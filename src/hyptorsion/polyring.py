"""Dense univariate polynomials over an exact field context.

Coefficients are stored ascending with no trailing zeros; the zero polynomial
has an empty coefficient tuple and `degree` None (a sentinel, never used in
arithmetic).  `Poly` wraps the coefficient tuple; its ring operations,
division, gcds and evaluation are the field context's `poly_*` methods, so
the field alone decides which arithmetic backs its polynomials.  A power of a
linear polynomial, such as a certificate's (x - a)^{2g+1}, is expanded by the
binomial theorem; other powers square and multiply.
"""

from __future__ import annotations

from .fields import Field


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
                terms.append(f"({c})*x" if c != self.ctx.one else "x")
            else:
                terms.append(f"({c})*x^{i}" if c != self.ctx.one else f"x^{i}")
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
        ctx = self.ctx
        if self.degree == 1:
            # (c0 + c1 x)^e has C(e, k) c0^(e-k) c1^k at x^k
            c0, c1 = self.coeffs
            low, high = [ctx.one], [ctx.one]
            for _ in range(e):
                low.append(ctx.mul(low[-1], c0))
                high.append(ctx.mul(high[-1], c1))
            out, binom = [], 1
            for k in range(e + 1):
                out.append(ctx.mul(ctx.coerce(binom), ctx.mul(low[e - k], high[k])))
                binom = binom * (e - k) // (k + 1)
            return Poly(ctx, out)
        result = Poly.const(ctx, ctx.one)
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

    # -- serialization -----------------------------------------------------

    def to_json(self):
        return [self.ctx.elem_to_json(c) for c in self.coeffs]

    @classmethod
    def from_json(cls, ctx, arr):
        return cls(ctx, [ctx.elem_from_json(c) for c in arr])


def is_squarefree(f: Poly) -> bool:
    """True iff gcd(f, f') = 1; zero derivative in char p means a p-th power."""
    if f.is_zero:
        raise ValueError("squarefreeness of the zero polynomial is undefined")
    if f.degree == 0:
        return True
    d = f.derivative()
    if d.is_zero:
        return False
    return f.gcd(d).degree == 0


def poly_sqrt(h: Poly):
    """A polynomial square root of h with canonical leading sign, or None.

    Strips any even power of x, takes a field square root of the lowest
    coefficient, recovers the remaining coefficients one by one from the
    square's convolution, and confirms with a full verification multiply.
    """
    ctx = h.ctx
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
        acc = body[k]
        for i in range(1, k):
            acc = ctx.sub(acc, ctx.mul(t[i], t[k - i]))
        t.append(ctx.mul(acc, inv2t0))
    root = Poly(ctx, [ctx.zero] * (val // 2) + t)
    if root * root != h:
        return None
    if ctx.canonical_min(root.leading) != root.leading:
        root = -root
    return root


def diff_power(ctx, a1, a2, n) -> Poly:
    """(x - a2)^n - (x - a1)^n for distinct a1, a2 and odd n >= 3."""
    if a1 == a2:
        raise ValueError("abscissas must be distinct")
    if n < 3 or n % 2 == 0:
        raise ValueError(f"n must be odd and >= 3, got {n}")
    lin2 = Poly(ctx, [ctx.neg(a2), ctx.one])
    lin1 = Poly(ctx, [ctx.neg(a1), ctx.one])
    return lin2 ** n - lin1 ** n
