"""Pure-Python kernels for dense polynomial arithmetic over GF(p).

A polynomial is a list of ints in [0, p), ascending degree, with no trailing
zeros; the empty list is the zero polynomial.  Callers pass only such
trimmed operands.
"""

from __future__ import annotations


def ptrim(a):
    """Strip trailing zeros in place-free fashion."""
    n = len(a)
    while n and a[n - 1] == 0:
        n -= 1
    return a[:n]


def padd(a, b, p):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = (out[i] + c) % p
    return ptrim(out)


def psub(a, b, p):
    n = max(len(a), len(b))
    out = [0] * n
    for i in range(n):
        av = a[i] if i < len(a) else 0
        bv = b[i] if i < len(b) else 0
        out[i] = (av - bv) % p
    return ptrim(out)


def pneg(a, p):
    return [(-c) % p for c in a]


def pscale(a, c, p):
    c %= p
    if c == 0:
        return []
    return ptrim([(c * v) % p for v in a])


def pmul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, av in enumerate(a):
        if av == 0:
            continue
        for j, bv in enumerate(b):
            out[i + j] = (out[i + j] + av * bv) % p
    return out


def pdivmod(a, b, p):
    """Quotient and remainder; b must be nonzero."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if len(a) < len(b):
        return [], list(a)
    r = list(a)
    db = len(b) - 1
    inv_lead = pow(b[-1], p - 2, p)
    q = [0] * (len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        c = r[i]
        if c == 0:
            continue
        factor = (c * inv_lead) % p
        q[i - db] = factor
        for j in range(db + 1):
            r[i - db + j] = (r[i - db + j] - factor * b[j]) % p
    return ptrim(q), ptrim(r)


def pmonic(a, p):
    if not a:
        return []
    return pscale(a, pow(a[-1], p - 2, p), p)


def pgcd(a, b, p):
    while b:
        a, b = b, pdivmod(a, b, p)[1]
    return pmonic(a, p)


def pxgcd(a, b, p):
    """Extended gcd: returns monic g and s, t with s*a + t*b = g."""
    r0, r1 = list(a), list(b)
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        q, r = pdivmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, psub(s0, pmul(q, s1, p), p)
        t0, t1 = t1, psub(t0, pmul(q, t1, p), p)
    if not r0:
        return [], s0, t0
    inv = pow(r0[-1], p - 2, p)
    return pscale(r0, inv, p), pscale(s0, inv, p), pscale(t0, inv, p)


def peval(a, x, p):
    acc = 0
    for c in reversed(a):
        acc = (acc * x + c) % p
    return acc


def pmulmod(a, b, mod, p):
    return pdivmod(pmul(a, b, p), mod, p)[1]


def ppowmod(a, e, mod, p):
    result = [1]
    base = pdivmod(a, mod, p)[1]
    while e:
        if e & 1:
            result = pmulmod(result, base, mod, p)
        base = pmulmod(base, base, mod, p)
        e >>= 1
    return result


def pinvmod(a, mod, p):
    """Inverse of a modulo mod; raises if not coprime."""
    g, s, _ = pxgcd(a, mod, p)
    if g != [1]:
        raise ZeroDivisionError("element not invertible")
    return pdivmod(s, mod, p)[1]
