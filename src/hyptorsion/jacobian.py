"""Mumford representation and Cantor's algorithm on odd-degree Jacobians.

This module is the independent oracle for every torsion claim: divisor
classes on y^2 = f(x) (deg f = 2g+1, monic, squarefree) are represented by
reduced Mumford pairs (u, v), composed via extended polynomial gcds, and
reduced until deg u <= g.  cantor_add takes the textbook special cases first:
a point operand P is added along the chord, cancels against -P in the other
operand's support, or raises P's multiplicity there (the tangent when the
other operand is P), all with no gcd; a higher-degree doubling with
gcd(u1, 2 v1) = 1 runs one xgcd.  Everything else runs Cantor's general
two-xgcd composition (_compose), which is also the oracle the special cases
are tested against.  So the census order test of a point, whose ladder
stays among the multiples [k]P = ((x - a)^k, v) with k <= g, never reaches
_compose.
Orders are computed exactly by dividing out the prime factors of a known
multiple (`fields.order_from_multiple`).  Each test [m]D = 0 on the way is
decided as [m - k]D = -[k]D with k = m // 2, one doubling short of [m]D.
Reduced pairs are unique, so every route of cantor_add gives the same pair,
and the two sides of a test agree as pairs exactly when they agree as classes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fields import order_from_multiple
from .polyring import Poly, is_squarefree


class CurveError(ValueError):
    pass


class DegreeError(CurveError):
    pass


class NotMonicError(CurveError):
    pass


class NotSquarefreeError(CurveError):
    pass


class Curve:
    """y^2 = f(x) with f monic, squarefree, of odd degree 2g+1."""

    __slots__ = ("ctx", "g", "f")

    def __init__(self, ctx, g, f: Poly):
        if g < 1:
            raise CurveError(f"genus must be >= 1, got {g}")
        if f.degree != 2 * g + 1:
            raise DegreeError(f"deg f = {f.degree}, expected {2 * g + 1}")
        if not f.is_monic:
            raise NotMonicError("f must be monic")
        if not is_squarefree(f):
            raise NotSquarefreeError("f has a multiple root")
        self.ctx = ctx
        self.g = g
        self.f = f

    def __eq__(self, other):
        return (isinstance(other, Curve) and other.ctx == self.ctx
                and other.g == self.g and other.f == self.f)

    def __hash__(self):
        return hash((self.ctx, self.g, self.f))

    def __repr__(self):
        return f"Curve(g={self.g}, y^2 = {self.f!r})"

    def contains(self, x0, y0):
        return self.ctx.mul(y0, y0) == self.f(x0)

    def to_json(self):
        return {"field": self.ctx.to_json(), "g": self.g, "f": self.f.to_json()}


@dataclass(frozen=True)
class AffinePoint:
    x: object
    y: object

    def to_json(self, ctx):
        return {"x": ctx.elem_to_json(self.x), "y": ctx.elem_to_json(self.y)}

    @classmethod
    def from_json(cls, ctx, obj):
        return cls(ctx.elem_from_json(obj["x"]), ctx.elem_from_json(obj["y"]))


def involution(P: AffinePoint, ctx) -> AffinePoint:
    return AffinePoint(P.x, ctx.neg(P.y))


def points_with_x(C: Curve, x0):
    """The 0, 1 or 2 affine points of C with the given abscissa."""
    ctx = C.ctx
    y2 = C.f(x0)
    if y2 == ctx.zero:
        return [AffinePoint(x0, ctx.zero)]
    y = ctx.sqrt(y2)
    if y is None:
        return []
    return [AffinePoint(x0, y), AffinePoint(x0, ctx.neg(y))]


class MumfordDivisor:
    """Reduced Mumford pair (u, v): u monic, deg u <= g, deg v < deg u,
    u | v^2 - f.  The identity is (1, 0)."""

    __slots__ = ("u", "v")

    def __init__(self, C: Curve, u: Poly, v: Poly, _checked=False):
        if not _checked:
            if u.is_zero or not u.is_monic:
                raise CurveError("u must be monic and nonzero")
            if u.degree > C.g:
                raise CurveError(f"deg u = {u.degree} exceeds genus {C.g}")
            if not v.is_zero and v.degree >= u.degree:
                raise CurveError("deg v must be below deg u")
            if not ((v * v - C.f) % u).is_zero:
                raise CurveError("u does not divide v^2 - f")
        self.u = u
        self.v = v

    def __eq__(self, other):
        return (isinstance(other, MumfordDivisor)
                and other.u == self.u and other.v == self.v)

    def __hash__(self):
        return hash((self.u, self.v))

    def __repr__(self):
        return f"MumfordDivisor(u={self.u!r}, v={self.v!r})"

    @property
    def is_identity(self):
        return self.u.degree == 0


def identity(C: Curve) -> MumfordDivisor:
    one = Poly.const(C.ctx, C.ctx.one)
    return MumfordDivisor(C, one, Poly.zero(C.ctx), _checked=True)


def embed(C: Curve, P: AffinePoint) -> MumfordDivisor:
    """Class of (P) - (infinity): the pair (x - x(P), y(P))."""
    ctx = C.ctx
    if not C.contains(P.x, P.y):  # u | v^2 - f for u = x - x(P)
        raise CurveError("u does not divide v^2 - f")
    u = Poly(ctx, [ctx.neg(P.x), ctx.one])
    return MumfordDivisor(C, u, Poly.const(ctx, P.y), _checked=True)


def neg(C: Curve, D: MumfordDivisor) -> MumfordDivisor:
    return MumfordDivisor(C, D.u, -D.v, _checked=True)


def _reduce(C: Curve, u: Poly, v: Poly) -> MumfordDivisor:
    """Cantor reduction of a semi-reduced pair until deg u <= g."""
    g = C.g
    steps = 0
    bound = (u.degree or 0) + 1
    while u.degree > g:
        u = ((C.f - v * v) // u).monic()
        v = (-v) % u if u.degree > 0 else Poly.zero(C.ctx)
        steps += 1
        if steps > bound:
            raise CurveError("reduction failed to terminate")
    return MumfordDivisor(C, u, v, _checked=True)


def _compose(C: Curve, D1: MumfordDivisor, D2: MumfordDivisor) -> MumfordDivisor:
    """Cantor's general composition and reduction (Cantor, Math. Comp. 48,
    1987): d1 = gcd(u1, u2) = e1 u1 + e2 u2, then d = gcd(d1, v1 + v2) =
    c1 d1 + c2 (v1 + v2), two xgcds.  The fallback of cantor_add and the
    oracle of its special cases."""
    u1, v1, u2, v2 = D1.u, D1.v, D2.u, D2.v
    d1, e1, e2 = u1.xgcd(u2)
    d, c1, c2 = d1.xgcd(v1 + v2)
    s1, s2, s3 = c1 * e1, c1 * e2, c2
    u = (u1 * u2) // (d * d)
    v = ((s1 * u1 * v2 + s2 * u2 * v1 + s3 * (v1 * v2 + C.f)) // d) % u
    return _reduce(C, u.monic(), v)


def cantor_add(C: Curve, D1: MumfordDivisor, D2: MumfordDivisor) -> MumfordDivisor:
    """Reduced representative of the class D1 + D2 (composition + reduction).

    An identity operand returns the other one.  With a point operand
    P = (x - a, b), the other operand (u1, v1) is
      - a divisor with u1(a) != 0: the chord u = u1 (x - a),
        v = v1 + u1 (b - v1(a))/u1(a);
      - a divisor holding (a, -b), that is v1(a) = -b (so also any b = 0):
        one copy cancels, u = u1/(x - a) and v = v1 mod u;
      - a divisor holding P, v1(a) = b != 0: the multiplicity of P goes up,
        u = u1 (x - a) and v = v1 + u1 k(a)/(2b) with k = (f - v1^2)/u1,
        which for u1 = x - a is the tangent;
    none of which runs a gcd.  Doubling a divisor of higher degree runs
    one xgcd(u1, 2 v1): with gcd 1 and t = (2 v1)^-1 mod u1, u = u1^2 and
    v = v1 + (k t mod u1) u1.  Any other doubling, and any sum of two
    distinct divisors of degree >= 2, goes through _compose.  (Handbook of
    Elliptic and Hyperelliptic Curve Cryptography, ch. 14.)"""
    if D1.is_identity:
        return D2
    if D2.is_identity:
        return D1
    if D2.u.degree != 1:
        D1, D2 = D2, D1
    u1, v1, u2, v2 = D1.u, D1.v, D2.u, D2.v
    ctx = C.ctx
    if u2.degree == 1:
        a, b = ctx.neg(u2.coeffs[0]), v2.coeff(0)
        w = u1(a)
        if w != ctx.zero:
            v = v1 + u1.scale(ctx.div(ctx.sub(b, v1(a)), w))
            return _reduce(C, u1 * u2, v)
        if ctx.add(v1(a), b) == ctx.zero:  # v1(a) = +-b, so b = 0 lands here
            u = u1 // u2
            return MumfordDivisor(C, u, v1 % u, _checked=True)
        k = (C.f - v1 * v1) // u1
        v = v1 + u1.scale(ctx.div(k(a), ctx.add(b, b)))
        return _reduce(C, u1 * u2, v)
    if D1 == D2:
        d, _, t = u1.xgcd(v1 + v1)
        if d.degree == 0:
            k = (C.f - v1 * v1) // u1
            return _reduce(C, u1 * u1, v1 + ((k * t) % u1) * u1)
    return _compose(C, D1, D2)


def scalar_mul(C: Curve, n: int, D: MumfordDivisor) -> MumfordDivisor:
    """[n]D by the left-to-right binary ladder: start from D and, for each
    bit of n below the top one, double and then add D on a 1 bit.  That is
    bit_length(n) - 1 + popcount(n) - 1 compositions, none with the
    identity and none past the last bit."""
    if n < 0:
        return scalar_mul(C, -n, neg(C, D))
    if n == 0:
        return identity(C)
    result = D
    for bit in bin(n)[3:]:
        result = cantor_add(C, result, result)
        if bit == "1":
            result = cantor_add(C, result, D)
    return result


def _kills(C: Curve, m: int, D: MumfordDivisor) -> bool:
    """[m]D = 0 for m >= 1, decided as [m - k]D = -[k]D with k = m // 2.
    [k]D comes from the ladder and [m - k]D is the same pair or one more
    addition of D, so the test makes one composition fewer than [m]D."""
    H = scalar_mul(C, m // 2, D)
    K = cantor_add(C, H, D) if m & 1 else H
    return K.u == H.u and K.v == -H.v


def exact_order(C: Curve, D: MumfordDivisor, n: int):
    """Exact order of D given a candidate multiple n, or None if ord(D) | n
    fails.  order_from_multiple divides each prime out of n.  Every test
    [m]D = 0 (m = n, then each m = order // p) goes through _kills, so it
    costs bit_length(m // 2) - 1 + popcount(m // 2) - 1 + m % 2
    compositions for m >= 2.  For a point D, only the doublings of degree
    >= 2 among them run an xgcd, one each."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not _kills(C, n, D):
        return None
    return order_from_multiple(n, lambda m: _kills(C, m, D))
