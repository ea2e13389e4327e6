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

from .jacobian import AffinePoint, Curve, embed, exact_order, points_with_x
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

    def to_json(self):
        return {"g": self.g, "a": self.v.ctx.elem_to_json(self.a),
                "v": self.v.to_json()}


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


@dataclass(frozen=True)
class EnhancedCurve:
    """A curve with an ordered pair of marked order-(2g+1) points, made by
    make_pair from a PairCert, which refuses equal abscissas."""

    C: Curve
    P: AffinePoint
    Q: AffinePoint


def make_single(g, a, v: Poly):
    """Curve y^2 = (x-a)^{2g+1} + v^2 over v's field with its order-(2g+1)
    point (a, v(a))."""
    cert = SingleCert(g, a, v)
    C = Curve(v.ctx, g, cert.curve_poly())  # NotSquarefreeError on multiple roots
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
    if v is None:
        return None
    if v(P.x) != P.y:
        v = -v
    if v(P.x) != P.y:
        return None
    return SingleCert(C.g, P.x, v)


def make_pair(cert: PairCert) -> EnhancedCurve:
    """Enhanced curve carrying both certified points of order 2g+1.  Its f is
    also (x - a2)^{2g+1} + v2^2, as v1^2 - v2^2 = u1*u2 (checked by PairCert)."""
    v1, v2 = cert.v_polys()
    # Curve raises NotSquarefreeError on multiple roots, which also rules
    # out u1' = 0 and u2' = 0.  If char does not divide n = 2g+1,
    # u1*u2 = (x - a2)^n - (x - a1)^n has 2g distinct roots, so u1 and u2 are
    # squarefree of degree g >= 1 and their derivatives are nonzero.  If it
    # does, f' = 2 v1 v1' = 2 v2 v2' with u1 = v1 + v2, u2 = v1 - v2: u1' = 0
    # gives v2' = -v1', so v1' u1 = 0; u2' = 0 gives v2' = v1', so v1' u2 = 0.
    # As u1, u2 != 0, v1' = 0, so f' = 0 and f is not squarefree.
    C = Curve(cert.u1.ctx, cert.g, cert.curve_poly())
    P = AffinePoint(cert.a1, v1(cert.a1))
    Q = AffinePoint(cert.a2, v2(cert.a2))
    return EnhancedCurve(C, P, Q)


def recover_pair(C: Curve, P: AffinePoint, Q: AffinePoint) -> PairCert:
    """The unique PairCert with (u1+u2)/2 certifying P and (u1-u2)/2
    certifying Q; raises if either point does not have order 2g+1 or the
    abscissas coincide.  PairCert's product identity gives the evaluation
    identities u1(a)u2(a) = (a1 - a2)^{2g+1} at a = a1, a2, as 2g+1 is odd."""
    c1 = verify_single(C, P)
    if c1 is None:
        raise CertError("first point does not have order 2g+1")
    c2 = verify_single(C, Q)
    if c2 is None:
        raise CertError("second point does not have order 2g+1")
    u1, u2 = c1.v + c2.v, c1.v - c2.v
    return PairCert(C.g, P.x, Q.x, u1, u2)


def torsion_census(C: Curve, n: int):
    """All affine points of exact order n, sorted canonically.

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
            if exact_order(C, embed(C, pt), n) == n:
                found.append(pt)
    return found
