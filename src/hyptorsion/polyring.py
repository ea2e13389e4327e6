"""Dense univariate polynomials over an exact field context.

Coefficients are stored ascending with no trailing zeros; the zero polynomial
has an empty coefficient tuple and `degree` None (a sentinel, never used in
arithmetic).  Prime-field polynomials route through the kernel backend; the
rational gcd uses a primitive-PRS reduction on integer polynomials to keep
coefficient growth in check at large degree.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .fields import Field, PrimeField, Rationals


class Poly:
    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: Field, coeffs):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == ctx.zero:
            coeffs.pop()
        self.ctx = ctx
        self.coeffs = tuple(coeffs)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, ctx):
        return cls(ctx, [])

    @classmethod
    def const(cls, ctx, c):
        return cls(ctx, [c])

    @classmethod
    def x(cls, ctx):
        return cls(ctx, [ctx.zero, ctx.one])

    @classmethod
    def from_ints(cls, ctx, ints):
        return cls(ctx, [ctx.coerce(n) for n in ints])

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self):
        return not self.coeffs

    @property
    def degree(self):
        """Degree, or None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    @property
    def leading(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def is_monic(self):
        return bool(self.coeffs) and self.coeffs[-1] == self.ctx.one

    def coeff(self, i):
        return self.coeffs[i] if i < len(self.coeffs) else self.ctx.zero

    def __eq__(self, other):
        return (isinstance(other, Poly) and other.ctx == self.ctx
                and other.coeffs == self.coeffs)

    def __hash__(self):
        return hash((self.ctx, self.coeffs))

    def __repr__(self):
        if self.is_zero:
            return "Poly(0)"
        terms = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == self.ctx.zero:
                continue
            if i == 0:
                terms.append(f"{c}")
            elif i == 1:
                terms.append(f"({c})*x" if not _is_one(self.ctx, c) else "x")
            else:
                terms.append(f"({c})*x^{i}" if not _is_one(self.ctx, c) else f"x^{i}")
        return "Poly(" + " + ".join(terms) + ")"

    # -- ring operations ---------------------------------------------------

    def _kp(self):
        # (kernel, prime) for the prime-field fast path, else None.
        ctx = self.ctx
        if isinstance(ctx, PrimeField):
            return ctx._k, ctx.p
        return None

    def __add__(self, other):
        kp = self._kp()
        if kp:
            k, p = kp
            return Poly(self.ctx, k.padd(list(self.coeffs), list(other.coeffs), p))
        ctx = self.ctx
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(ctx, [ctx.add(self.coeff(i), other.coeff(i)) for i in range(n)])

    def __sub__(self, other):
        kp = self._kp()
        if kp:
            k, p = kp
            return Poly(self.ctx, k.psub(list(self.coeffs), list(other.coeffs), p))
        ctx = self.ctx
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(ctx, [ctx.sub(self.coeff(i), other.coeff(i)) for i in range(n)])

    def __neg__(self):
        ctx = self.ctx
        return Poly(ctx, [ctx.neg(c) for c in self.coeffs])

    def __mul__(self, other):
        kp = self._kp()
        if kp:
            k, p = kp
            return Poly(self.ctx, k.pmul(list(self.coeffs), list(other.coeffs), p))
        if self.is_zero or other.is_zero:
            return Poly.zero(self.ctx)
        ctx = self.ctx
        out = [ctx.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == ctx.zero:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = ctx.add(out[i + j], ctx.mul(a, b))
        return Poly(ctx, out)

    def scale(self, c):
        ctx = self.ctx
        if c == ctx.zero:
            return Poly.zero(ctx)
        return Poly(ctx, [ctx.mul(c, v) for v in self.coeffs])

    def __divmod__(self, other):
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        kp = self._kp()
        if kp:
            k, p = kp
            q, r = k.pdivmod(list(self.coeffs), list(other.coeffs), p)
            return Poly(self.ctx, q), Poly(self.ctx, r)
        ctx = self.ctx
        r = list(self.coeffs)
        b = other.coeffs
        db = len(b) - 1
        if len(r) <= db:
            return Poly.zero(ctx), Poly(ctx, r)
        inv_lead = ctx.inv(b[-1])
        q = [ctx.zero] * (len(r) - db)
        for i in range(len(r) - 1, db - 1, -1):
            c = r[i]
            if c == ctx.zero:
                continue
            factor = ctx.mul(c, inv_lead)
            q[i - db] = factor
            for j in range(db + 1):
                r[i - db + j] = ctx.sub(r[i - db + j], ctx.mul(factor, b[j]))
        return Poly(ctx, q), Poly(ctx, r[:db])

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __pow__(self, e):
        if e < 0:
            raise ValueError("negative polynomial power")
        result = Poly.const(self.ctx, self.ctx.one)
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def monic(self):
        if self.is_zero:
            return self
        return self.scale(self.ctx.inv(self.leading))

    def gcd(self, other):
        kp = self._kp()
        if kp:
            k, p = kp
            return Poly(self.ctx, k.pgcd(list(self.coeffs), list(other.coeffs), p))
        if isinstance(self.ctx, Rationals):
            return _qq_gcd(self, other)
        a, b = self, other
        while not b.is_zero:
            a, b = b, a % b
        return a.monic()

    def xgcd(self, other):
        """(g, s, t) with s*self + t*other = g, g monic (or zero)."""
        kp = self._kp()
        if kp:
            k, p = kp
            g, s, t = k.pxgcd(list(self.coeffs), list(other.coeffs), p)
            return Poly(self.ctx, g), Poly(self.ctx, s), Poly(self.ctx, t)
        ctx = self.ctx
        r0, r1 = self, other
        s0, s1 = Poly.const(ctx, ctx.one), Poly.zero(ctx)
        t0, t1 = Poly.zero(ctx), Poly.const(ctx, ctx.one)
        while not r1.is_zero:
            q, r = divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, s0 - q * s1
            t0, t1 = t1, t0 - q * t1
        if r0.is_zero:
            return r0, s0, t0
        inv = ctx.inv(r0.leading)
        return r0.scale(inv), s0.scale(inv), t0.scale(inv)

    def derivative(self):
        ctx = self.ctx
        out = []
        for i in range(1, len(self.coeffs)):
            out.append(ctx.mul(ctx.coerce(i), self.coeffs[i]))
        return Poly(ctx, out)

    def __call__(self, x0):
        kp = self._kp()
        if kp:
            k, p = kp
            return k.peval(list(self.coeffs), x0, p)
        ctx = self.ctx
        acc = ctx.zero
        for c in reversed(self.coeffs):
            acc = ctx.add(ctx.mul(acc, x0), c)
        return acc

    def shift(self, c):
        """Substitute x -> x + c (Horner on the shifted variable)."""
        ctx = self.ctx
        result = Poly.zero(ctx)
        xc = Poly(ctx, [c, ctx.one])
        for coeff in reversed(self.coeffs):
            result = result * xc + Poly.const(ctx, coeff)
        return result

    def scale_arg(self, s):
        """Substitute x -> s*x; s must be nonzero."""
        ctx = self.ctx
        if s == ctx.zero:
            raise ValueError("scale_arg requires a nonzero scalar")
        out, power = [], ctx.one
        for c in self.coeffs:
            out.append(ctx.mul(c, power))
            power = ctx.mul(power, s)
        return Poly(ctx, out)

    # -- serialization -----------------------------------------------------

    def to_json(self):
        return [self.ctx.elem_to_json(c) for c in self.coeffs]

    @classmethod
    def from_json(cls, ctx, arr):
        return cls(ctx, [ctx.elem_from_json(c) for c in arr])


def _is_one(ctx, c):
    return c == ctx.one


# -- rational gcd via primitive PRS on integer polynomials -----------------

def _to_zz(p: Poly):
    """Primitive integer coefficient list of a rational polynomial."""
    if p.is_zero:
        return []
    den = 1
    for c in p.coeffs:
        den = den * c.denominator // math.gcd(den, c.denominator)
    ints = [int(c * den) for c in p.coeffs]
    content = 0
    for c in ints:
        content = math.gcd(content, c)
    return [c // content for c in ints]


def _zz_primitive(a):
    content = 0
    for c in a:
        content = math.gcd(content, c)
    if content in (0, 1):
        return list(a)
    return [c // content for c in a]


def _zz_mul_scalar(a, s):
    return [c * s for c in a]


def _zz_prem(a, b):
    """Pseudo-remainder of integer polynomials, lc(b)^(da-db+1) * a mod b."""
    da, db = len(a) - 1, len(b) - 1
    lead = b[-1]
    r = list(a)
    for i in range(da, db - 1, -1):
        if len(r) - 1 < i:
            r = _zz_mul_scalar(r, lead)
            continue
        c = r[i]
        r = _zz_mul_scalar(r, lead)
        for j in range(db + 1):
            r[i - db + j] -= c * b[j]
        while r and r[-1] == 0:
            r.pop()
    return r


def _qq_gcd(a: Poly, b: Poly) -> Poly:
    ctx = a.ctx
    fa, fb = _to_zz(a), _to_zz(b)
    if not fa:
        return b.monic()
    if not fb:
        return a.monic()
    if len(fa) < len(fb):
        fa, fb = fb, fa
    while fb:
        r = _zz_prem(fa, fb)
        fa, fb = fb, _zz_primitive(r)
    return Poly(ctx, [Fraction(c) for c in fa]).monic()


# -- spec-level operations -------------------------------------------------

def poly_divrem(a: Poly, b: Poly):
    return divmod(a, b)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    return a.gcd(b)


def poly_derivative(a: Poly) -> Poly:
    return a.derivative()


def poly_eval(a: Poly, x0):
    return a(x0)


def poly_shift(a: Poly, c) -> Poly:
    return a.shift(c)


def poly_scale_arg(a: Poly, s) -> Poly:
    return a.scale_arg(s)


_SQFREE_PRIMES = (10007, 10009, 10037, 10039, 10061)


def is_squarefree(f: Poly) -> bool:
    """True iff gcd(f, f') = 1; zero derivative in char p means a p-th power."""
    if f.is_zero:
        raise ValueError("squarefreeness of the zero polynomial is undefined")
    if f.degree == 0:
        return True
    d = f.derivative()
    if d.is_zero:
        return False
    if isinstance(f.ctx, Rationals):
        # A squarefree modular image certifies squarefreeness over Q; the
        # exact PRS gcd decides the (rare) remaining cases.
        ints = _to_zz(f)
        for p in _SQFREE_PRIMES:
            if ints[-1] % p == 0:
                continue
            from . import _kernel_py as k
            fa = k.ptrim([c % p for c in ints])
            da = k.ptrim([(i * ints[i]) % p for i in range(1, len(ints))])
            if da and k.pgcd(fa, da, p) == [1]:
                return True
    return f.gcd(d).degree == 0


def poly_sqrt(h: Poly):
    """A polynomial square root of h with canonical leading sign, or None.

    Strips any even power of x, takes a field square root of the lowest
    coefficient, recovers the remaining coefficients one by one from the
    square's convolution, and confirms with a full verification multiply.
    """
    ctx = h.ctx
    if ctx.char == 2:
        raise ValueError("characteristic 2 is not supported")
    if h.is_zero:
        return h
    val = 0
    while h.coeffs[val] == ctx.zero:
        val += 1
    if val % 2:
        return None
    body = h.coeffs[val:]
    d = len(body) - 1
    if d % 2:
        return None
    t0 = ctx.sqrt(body[0])
    if t0 is None:
        return None
    n = d // 2
    inv2t0 = ctx.inv(ctx.add(t0, t0))
    t = [t0]
    for k in range(1, n + 1):
        acc = body[k] if k < len(body) else ctx.zero
        for i in range(1, k):
            if i <= n and k - i <= len(t) - 1:
                acc = ctx.sub(acc, ctx.mul(t[i], t[k - i]))
        t.append(ctx.mul(acc, inv2t0))
    root = Poly(ctx, [ctx.zero] * (val // 2) + t)
    if root * root != h:
        return None
    if ctx.canonical_min(root.leading) != root.leading:
        root = -root
    return root


def reverse_scale(w: Poly, a) -> Poly:
    """The unique reciprocal transform wt with wt(a/x) = w(x)/x^deg(w)."""
    ctx = w.ctx
    if a == ctx.zero:
        raise ValueError("reverse_scale requires a nonzero scalar")
    if w.is_zero or w.coeffs[0] == ctx.zero:
        raise ValueError("reverse_scale requires a nonzero constant term")
    g = w.degree
    out = []
    apow = ctx.one
    for j in range(g + 1):
        out.append(ctx.div(w.coeffs[g - j], apow))
        apow = ctx.mul(apow, a)
    return Poly(ctx, out)


_CYCLO_CACHE: dict[int, tuple[int, ...]] = {}


def _zz_divmod_exact(a, b):
    """Exact division of integer polynomials with monic-leading divisor."""
    r = list(a)
    db = len(b) - 1
    q = [0] * (len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        c = r[i]
        if c == 0:
            continue
        if c % b[-1]:
            raise ValueError("integer polynomial division is not exact")
        factor = c // b[-1]
        q[i - db] = factor
        for j in range(db + 1):
            r[i - db + j] -= factor * b[j]
    if any(r):
        raise ValueError("integer polynomial division leaves a remainder")
    return q


def _cyclotomic_ints(n):
    if n in _CYCLO_CACHE:
        return _CYCLO_CACHE[n]
    poly = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            poly = _zz_divmod_exact(poly, list(_cyclotomic_ints(d)))
    result = tuple(poly)
    _CYCLO_CACHE[n] = result
    return result


def cyclotomic(n, ctx=None) -> Poly:
    """The n-th cyclotomic polynomial over Q (degree phi(n))."""
    if n < 1:
        raise ValueError("n must be positive")
    if ctx is None:
        ctx = Rationals()
    return Poly.from_ints(ctx, _cyclotomic_ints(n))


def diff_power(ctx, a1, a2, n) -> Poly:
    """(x - a2)^n - (x - a1)^n for distinct a1, a2 and odd n >= 3."""
    if a1 == a2:
        raise ValueError("abscissas must be distinct")
    if n < 3 or n % 2 == 0:
        raise ValueError(f"n must be odd and >= 3, got {n}")
    lin2 = Poly(ctx, [ctx.neg(a2), ctx.one])
    lin1 = Poly(ctx, [ctx.neg(a1), ctx.one])
    return lin2 ** n - lin1 ** n
