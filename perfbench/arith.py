"""The benchmark's own exact arithmetic, used to make inputs and to check
outputs without calling the library under test.

GF(p) polynomials are lists of ints in [0, p), ascending, with no trailing
zeros.  GF(p^m) elements are tuples of m ints (the coefficients of a power
basis over the printed modulus), matching the CLI's JSON element format.
"""

from __future__ import annotations

from math import comb


# -- GF(p)[x] ----------------------------------------------------------------

def trim(a):
    n = len(a)
    while n and a[n - 1] == 0:
        n -= 1
    return a[:n]


def zp_add(a, b, p):
    n = max(len(a), len(b))
    return trim([((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)) % p
                 for i in range(n)])


def zp_mul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return trim([c % p for c in out])


def zp_mod(a, b, p):
    r = list(a)
    inv = pow(b[-1], p - 2, p)
    db = len(b) - 1
    for i in range(len(r) - 1, db - 1, -1):
        c = r[i] * inv % p
        if c:
            for j in range(db + 1):
                r[i - db + j] = (r[i - db + j] - c * b[j]) % p
    return trim(r[:db])


def zp_gcd(a, b, p):
    a, b = trim(a), trim(b)
    while b:
        a, b = b, zp_mod(a, b, p)
    return a


def zp_derivative(a, p):
    return trim([i * a[i] % p for i in range(1, len(a))])


def zp_eval(a, x, p):
    acc = 0
    for c in reversed(a):
        acc = (acc * x + c) % p
    return acc


def zp_linear_power(a, n, p):
    """(x - a)^n over GF(p) by the binomial theorem."""
    return trim([comb(n, k) * pow(-a, n - k, p) % p for k in range(n + 1)])


def zp_is_squarefree(f, p):
    d = zp_derivative(f, p)
    return bool(d) and len(zp_gcd(f, d, p)) == 1


# -- GF(p^m) -----------------------------------------------------------------

class PointCounter:
    """Counts affine points over GF(p^m) of y^2 = f(x), f in GF(p)[x].

    The count does not depend on which modulus represents GF(p^m), so this
    uses its own: the first primitive one, whose powers of t give exp/log
    tables, and the quadratic character is the parity of the logarithm.
    """

    def __init__(self, p, m):
        self.p, self.m, self.q = p, m, p ** m
        for code in range(p ** m):
            tail = [code // p ** i % p for i in range(m)]
            exps = self._powers(tail)
            if exps is not None:
                break
        self.log = {e: k for k, e in enumerate(exps)}
        self.exp = exps

    def _powers(self, tail):
        """Powers t^0 .. t^(q-2) mod t^m + tail, or None if t is not a
        generator of the unit group."""
        p, m = self.p, self.m
        cur, out, seen = (1,) + (0,) * (m - 1), [], set()
        for _ in range(self.q - 1):
            if cur in seen:
                return None
            seen.add(cur)
            out.append(cur)
            top = cur[-1]
            cur = tuple((-top * tail[0]) % p if i == 0 else
                        (cur[i - 1] - top * tail[i]) % p for i in range(m))
        return out if cur == out[0] else None

    def count(self, f):
        p, q1, log, exp = self.p, self.q - 1, self.log, self.exp
        zero = (0,) * self.m
        total = 0
        for x in [zero] + exp:
            lx = log.get(x)
            acc = zero
            for c in reversed(f):
                if acc != zero and lx is not None:
                    acc = exp[(log[acc] + lx) % q1]
                else:
                    acc = zero
                acc = ((acc[0] + c) % p,) + acc[1:]
            if acc == zero:
                total += 1
            elif log[acc] % 2 == 0:
                total += 2
        return total


class Fq:
    """GF(p)[t]/(modulus); elements are m-tuples, indexed base p ascending
    like the library's field enumeration order."""

    def __init__(self, p, modulus):
        self.p = p
        self.mod = list(modulus)
        self.m = len(modulus) - 1
        self.q = p ** self.m
        self.zero = (0,) * self.m
        self.one = (1,) + (0,) * (self.m - 1)

    def _pad(self, a):
        return tuple(a) + (0,) * (self.m - len(a))

    def from_json(self, obj):
        return self._pad([obj % self.p] if isinstance(obj, int) else
                         [c % self.p for c in obj])

    def from_index(self, i):
        digits = []
        while i:
            digits.append(i % self.p)
            i //= self.p
        return self._pad(digits)

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def neg(self, a):
        return tuple(-x % self.p for x in a)

    def mul(self, a, b):
        prod = zp_mul(trim(list(a)), trim(list(b)), self.p)
        return self._pad(zp_mod(prod, self.mod, self.p) if prod else [])

    def pow(self, a, e):
        out, base = self.one, a
        while e:
            if e & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            e >>= 1
        return out

    def primitive_root_of_unity(self, n):
        """Least element, in index order, of multiplicative order exactly n."""
        primes = [r for r in range(2, n + 1)
                  if n % r == 0 and all(r % s for s in range(2, r))]
        for i in range(1, self.q):
            z = self.from_index(i)
            if self.pow(z, n) == self.one and all(
                    self.pow(z, n // r) != self.one for r in primes):
                return z
        raise ValueError(f"no element of order {n} in GF({self.p}^{self.m})")

    def poly_eval(self, coeffs, x):
        acc = self.zero
        for c in reversed(coeffs):
            acc = self.add(self.mul(acc, x), c)
        return acc
