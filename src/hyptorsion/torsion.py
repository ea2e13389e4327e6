"""Certificates for points of order 2g+1 on odd-degree hyperelliptic curves.

A point P = (a, v(a)) on y^2 = f(x) has order 2g+1 exactly when
f = (x - a)^{2g+1} + v(x)^2 with deg v <= g and v(a) != 0; a pair of such
points with distinct abscissas is encoded by polynomials u1, u2 whose product
is (x - a2)^{2g+1} - (x - a1)^{2g+1}.  Everything here is exact polynomial
identity checking; the Jacobian oracle is the independent cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .fields import InsufficientFieldError
from .jacobian import (AffinePoint, Curve, MumfordDivisor, embed, exact_order,
                       involution, points_with_x)
from .polyring import Poly, diff_power, poly_sqrt


class CertError(ValueError):
    """A certificate invariant is violated; subclasses name which one."""


class ProductMismatchError(CertError):
    pass


class CertDegreeError(CertError):
    pass


class PSideDegeneracyError(CertError):
    """u1(a1) + u2(a1) = 0: the would-be point P has y = 0."""


class QSideDegeneracyError(CertError):
    """u1(a2) - u2(a2) = 0: the would-be point Q has y = 0."""


class ZeroDerivativeError(CertError):
    pass


@dataclass(frozen=True)
class SingleCert:
    """Witness that P = (a, v(a)) has order 2g+1 on y^2 = (x-a)^{2g+1} + v^2."""

    g: int
    a: object
    v: Poly

    def __post_init__(self):
        ctx = self.v.ctx
        if self.v.is_zero or self.v.degree > self.g:
            raise CertDegreeError("v must be nonzero of degree <= g")
        if self.v(self.a) == ctx.zero:
            raise CertError("v(a) = 0: the point would be Weierstrass")

    @property
    def point(self):
        return AffinePoint(self.a, self.v(self.a))

    def curve_poly(self):
        ctx = self.v.ctx
        lin = Poly(ctx, [ctx.neg(self.a), ctx.one])
        return lin ** (2 * self.g + 1) + self.v * self.v

    def to_json(self, ctx):
        return {"g": self.g, "a": ctx.elem_to_json(self.a), "v": self.v.to_json()}


@dataclass(frozen=True)
class PairCert:
    """Witness for two order-(2g+1) points at distinct abscissas a1, a2."""

    g: int
    a1: object
    a2: object
    u1: Poly
    u2: Poly

    def __post_init__(self):
        ctx = self.u1.ctx
        g, n = self.g, 2 * self.g + 1
        if self.a1 == self.a2:
            raise CertError("abscissas a1, a2 must be distinct")
        if self.u1.is_zero or self.u2.is_zero:
            raise CertError("u1, u2 must be nonzero")
        if self.u1.degree > g or self.u2.degree > g:
            raise CertDegreeError("deg u1, deg u2 must be <= g")
        if ctx.char == 0 or n % ctx.char != 0:
            if self.u1.degree != g or self.u2.degree != g:
                raise CertDegreeError(
                    "deg u1 = deg u2 = g is required when char does not divide 2g+1")
        if self.u1 * self.u2 != diff_power(ctx, self.a1, self.a2, n):
            raise ProductMismatchError(
                "u1*u2 != (x - a2)^{2g+1} - (x - a1)^{2g+1}")
        if ctx.add(self.u1(self.a1), self.u2(self.a1)) == ctx.zero:
            raise PSideDegeneracyError("u1(a1) + u2(a1) = 0")
        if ctx.sub(self.u1(self.a2), self.u2(self.a2)) == ctx.zero:
            raise QSideDegeneracyError("u1(a2) - u2(a2) = 0")

    def v_polys(self):
        """v1 = (u1+u2)/2 certifying P, v2 = (u1-u2)/2 certifying Q."""
        ctx = self.u1.ctx
        half = ctx.inv(ctx.coerce(2))
        return (self.u1 + self.u2).scale(half), (self.u1 - self.u2).scale(half)

    def curve_poly(self):
        ctx = self.u1.ctx
        v1, _ = self.v_polys()
        lin = Poly(ctx, [ctx.neg(self.a1), ctx.one])
        return lin ** (2 * self.g + 1) + v1 * v1

    def to_json(self, ctx):
        return {"g": self.g, "a1": ctx.elem_to_json(self.a1),
                "a2": ctx.elem_to_json(self.a2),
                "u1": self.u1.to_json(), "u2": self.u2.to_json()}


@dataclass(frozen=True)
class EnhancedCurve:
    """A curve with an ordered pair of marked order-(2g+1) points."""

    C: Curve
    P: AffinePoint
    Q: AffinePoint

    def __post_init__(self):
        if self.P.x == self.Q.x:
            raise CertError("marked points must have distinct abscissas")


@dataclass(frozen=True)
class IsoMap:
    """x -> (x - r)/lam^2, y -> y/lam^{2g+1}; lam != 0."""

    lam: object
    r: object

    def apply_point(self, ctx, g, P):
        lam2 = ctx.mul(self.lam, self.lam)
        x1 = ctx.div(ctx.sub(P.x, self.r), lam2)
        y1 = ctx.div(P.y, ctx.pow_el(self.lam, 2 * g + 1))
        return AffinePoint(x1, y1)


def make_single(ctx, g, a, v: Poly):
    """Curve y^2 = (x-a)^{2g+1} + v^2 with its order-(2g+1) point (a, v(a))."""
    cert = SingleCert(g, a, v)
    f = cert.curve_poly()
    C = Curve(ctx, g, f)  # raises NotSquarefreeError on multiple roots
    return C, cert.point, cert


def verify_single(C: Curve, P: AffinePoint):
    """SingleCert for P if it has order exactly 2g+1, else None."""
    ctx = C.ctx
    if P.y == ctx.zero:
        return None
    n = 2 * C.g + 1
    lin = Poly(ctx, [ctx.neg(P.x), ctx.one])
    h = C.f - lin ** n
    v = poly_sqrt(h)
    if v is None or v.is_zero or v.degree > C.g:
        return None
    if v(P.x) != P.y:
        v = -v
    if v(P.x) != P.y:
        return None
    return SingleCert(C.g, P.x, v)


def make_pair(ctx, g, cert: PairCert) -> EnhancedCurve:
    """Enhanced curve carrying both certified points of order 2g+1.  Its f is
    also (x - a2)^{2g+1} + v2^2, as v1^2 - v2^2 = u1*u2 (checked by PairCert)."""
    v1, v2 = cert.v_polys()
    f = cert.curve_poly()
    C = Curve(ctx, g, f)  # raises NotSquarefreeError on multiple roots
    if cert.u1.derivative().is_zero:
        raise ZeroDerivativeError("u1' = 0")
    if cert.u2.derivative().is_zero:
        raise ZeroDerivativeError("u2' = 0")
    P = AffinePoint(cert.a1, v1(cert.a1))
    Q = AffinePoint(cert.a2, v2(cert.a2))
    return EnhancedCurve(C, P, Q)


def recover_pair(C: Curve, P: AffinePoint, Q: AffinePoint) -> PairCert:
    """The unique PairCert with (u1+u2)/2 certifying P and (u1-u2)/2
    certifying Q; raises if either point does not have order 2g+1."""
    ctx = C.ctx
    if P.x == Q.x:
        raise CertError("points must have distinct abscissas")
    if P.y == ctx.zero or Q.y == ctx.zero:
        raise CertError("points must not be Weierstrass")
    c1 = verify_single(C, P)
    if c1 is None:
        raise CertError("first point does not have order 2g+1")
    c2 = verify_single(C, Q)
    if c2 is None:
        raise CertError("second point does not have order 2g+1")
    u1, u2 = c1.v + c2.v, c1.v - c2.v
    cert = PairCert(C.g, P.x, Q.x, u1, u2)
    _check_evaluation_identities(cert)
    return cert


def _check_evaluation_identities(cert: PairCert):
    # u1(a1)u2(a1) = u1(a2)u2(a2) = (a1 - a2)^{2g+1}
    ctx = cert.u1.ctx
    rhs = ctx.pow_el(ctx.sub(cert.a1, cert.a2), 2 * cert.g + 1)
    for a in (cert.a1, cert.a2):
        if ctx.mul(cert.u1(a), cert.u2(a)) != rhs:
            raise CertError("evaluation identity u1(a)u2(a) = (a1-a2)^{2g+1} fails")


@dataclass(frozen=True)
class Decoration:
    """One of the four sign/swap variants of a PairCert with its point pair."""

    cert: PairCert
    P: AffinePoint
    Q: AffinePoint


def decorations_of(C: Curve, P: AffinePoint, Q: AffinePoint):
    """The four decorations (u1,u2), (-u1,-u2), (u2,u1), (-u2,-u1) of the
    curve, each with the marked pair it certifies; the first matches (P, Q)."""
    ctx = C.ctx
    base = recover_pair(C, P, Q)
    iP, iQ = involution(P, ctx), involution(Q, ctx)
    a1, a2, g = base.a1, base.a2, base.g
    u1, u2 = base.u1, base.u2
    variants = [
        (Decoration(base, P, Q)),
        (Decoration(PairCert(g, a1, a2, -u1, -u2), iP, iQ)),
        (Decoration(PairCert(g, a1, a2, u2, u1), P, iQ)),
        (Decoration(PairCert(g, a1, a2, -u2, -u1), iP, Q)),
    ]
    for dec in variants:
        v1, v2 = dec.cert.v_polys()
        if v1(a1) != dec.P.y or v2(a2) != dec.Q.y:
            raise CertError("a decoration's v1(a1), v2(a2) miss its marked pair")
    return variants


def normalize_enhanced(C: Curve, P: AffinePoint, Q: AffinePoint):
    """Move (P, Q) to abscissas (0, -1); returns the new enhanced curve and
    the isomorphism used.  Needs sqrt(x(P) - x(Q)); if the field lacks it, a
    quadratic extension is reported via InsufficientFieldError."""
    ctx = C.ctx
    if P.x == Q.x:
        raise CertError("points must have distinct abscissas")
    a, c = P.x, Q.x
    d = ctx.sub(a, c)
    lam = ctx.sqrt(d)
    if lam is None:
        raise InsufficientFieldError(
            "sqrt(x(P) - x(Q)) does not exist; a quadratic extension suffices",
            extension_degree=2)
    n = 2 * C.g + 1
    # f1(x) = f(d*x + a) / d^{2g+1}; monic since f is monic of degree 2g+1.
    f1 = C.f.shift(a).scale_arg(d).scale(ctx.inv(ctx.pow_el(d, n)))
    C1 = Curve(ctx, C.g, f1)
    iso = IsoMap(lam, a)
    P1 = iso.apply_point(ctx, C.g, P)
    Q1 = iso.apply_point(ctx, C.g, Q)
    if P1.x != ctx.zero or Q1.x != ctx.neg(ctx.one):
        raise CertError("normalized abscissas are not 0 and -1")
    if not (C1.contains(P1.x, P1.y) and C1.contains(Q1.x, Q1.y)):
        raise CertError("normalized points are not on the normalized curve")
    if verify_single(C1, P1) is None or verify_single(C1, Q1) is None:
        raise CertError("normalized points lost the order-(2g+1) certificate")
    return EnhancedCurve(C1, P1, Q1), iso


def torsion_census(C: Curve, n: int):
    """All affine points of exact order n, with orders, sorted canonically.

    Exhaustive over the base field; Q contexts are rejected as unenumerable.
    A point's order divides #J(GF(q)) <= (sqrt(q) + 1)^(2g), so an n above
    (isqrt(q) + 2)^(2g) has no point and runs no Cantor ladder.
    """
    ctx = C.ctx
    if not ctx.is_finite:
        raise ValueError("census requires a finite field")
    if n > (math.isqrt(ctx.order) + 2) ** (2 * C.g):
        return []
    found = []
    for x0 in ctx.elements():
        for pt in points_with_x(C, x0):
            order = exact_order(C, embed(C, pt), n)
            if order == n:
                found.append((pt, order))
    found.sort(key=lambda po: (ctx.to_index(po[0].x), ctx.to_index(po[0].y)))
    return found
