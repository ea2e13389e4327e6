"""Dense univariate polynomials over an exact field context.

Coefficients are stored ascending with no trailing zeros; the zero polynomial
has an empty coefficient tuple and `degree` None (a sentinel, never used in
arithmetic).  `Poly` wraps the coefficient tuple; its ring operations,
division, gcds and evaluation are the field context's `poly_*` methods, so
the field alone decides which arithmetic backs its polynomials.
"""

from __future__ import annotations

from . import _kernel_py
from .fields import Field, Rationals, _to_zz


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

    # -- ring operations: the field context owns the arithmetic -------------

    def __add__(self, other):
        return Poly(self.ctx, self.ctx.poly_add(self.coeffs, other.coeffs))

    def __sub__(self, other):
        return Poly(self.ctx, self.ctx.poly_sub(self.coeffs, other.coeffs))

    def __neg__(self):
        ctx = self.ctx
        return Poly(ctx, [ctx.neg(c) for c in self.coeffs])

    def __mul__(self, other):
        return Poly(self.ctx, self.ctx.poly_mul(self.coeffs, other.coeffs))

    def scale(self, c):
        ctx = self.ctx
        if c == ctx.zero:
            return Poly.zero(ctx)
        return Poly(ctx, [ctx.mul(c, v) for v in self.coeffs])

    def __divmod__(self, other):
        q, r = self.ctx.poly_divmod(self.coeffs, other.coeffs)
        return Poly(self.ctx, q), Poly(self.ctx, r)

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
        return Poly(self.ctx, self.ctx.poly_gcd(self.coeffs, other.coeffs))

    def xgcd(self, other):
        """(g, s, t) with s*self + t*other = g, g monic (or zero)."""
        g, s, t = self.ctx.poly_xgcd(self.coeffs, other.coeffs)
        return Poly(self.ctx, g), Poly(self.ctx, s), Poly(self.ctx, t)

    def derivative(self):
        ctx = self.ctx
        out = []
        for i in range(1, len(self.coeffs)):
            out.append(ctx.mul(ctx.coerce(i), self.coeffs[i]))
        return Poly(ctx, out)

    def __call__(self, x0):
        return self.ctx.poly_eval(self.coeffs, x0)

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
        ints = _to_zz(f.coeffs)
        for p in _SQFREE_PRIMES:
            if ints[-1] % p == 0:
                continue
            fa = _kernel_py.ptrim([c % p for c in ints])
            da = _kernel_py.ptrim([(i * ints[i]) % p for i in range(1, len(ints))])
            if da and _kernel_py.pgcd(fa, da, p) == [1]:
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
