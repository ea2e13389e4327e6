"""Weil pairing of the two marked order-(2g+1) points, two ways.

The explicit route reads F and g from a PairCert at abscissas 0 and -1, as
families.family_pair builds it, and evaluates the pairing functions at a
Weierstrass point W = (w, 0): with v1 = (u1+u2)/2 and v2 = (u1-u2)/2,

    g_P(D_Q) = -(v2(-1) - v1(-1))^2 / (1+w)^{2g+1}
    g_Q(D)   = (v1(0) - v2(0))^2 / v2(w)^2,    v2(w)^2 = -(1+w)^{2g+1},

e2 = g_P(D_Q)/g_Q(D) is the 2(2g+1)-pairing and e = e2^{g+1} its unique
square root among (2g+1)-th roots of unity.  Two checks in F[x]/(f) at the
generic root w = x mod f, that (1+w)^{2g+1} is a unit and that
v2(w)^2 = -(1+w)^{2g+1}, show that e2 does not depend on W: a congruence mod f
holds at every root of f in its splitting field, so no root is computed.  The
closed route is the product of eps over the complement of the family's subset
I.  Both must agree; the characteristic must not divide 2g+1.
"""

from __future__ import annotations

from .fields import FieldError, nth_roots_of_unity
from .polyring import Poly
from .torsion import CertError, PairCert, curve_poly


def weil_explicit(cert: PairCert):
    """The pairing e = e2^{g+1} of the marked points, evaluated through the
    g_P/g_Q functions at the Weierstrass points of f; returned in the field
    of cert's u1, u2."""
    F, g = cert.u1.ctx, cert.g
    n = 2 * g + 1
    if F.char and n % F.char == 0:
        raise FieldError("pairing requires characteristic prime to 2g+1")
    v1, v2 = cert.v_polys()
    m1 = F.neg(F.one)
    num_p = F.sub(v2(m1), v1(m1))
    num_q = F.sub(v1(F.zero), v2(F.zero))
    if num_p == F.zero or num_q == F.zero:
        raise CertError("degenerate pairing numerator")
    e2 = F.div(F.mul(num_p, num_p), F.mul(num_q, num_q))
    e = F.pow_el(e2, g + 1)
    if F.mul(e, e) != e2:
        raise CertError("e is not a square root of e2")
    # e*e = e2 != 0 gives e2^(2g+1) = 1, so e^(2g+1) = (e2^(2g+1))^(g+1) = 1

    # At the generic root w = x mod f (deg v2 <= g < deg f), (1+w)^{2g+1} must
    # be a unit and v2(w)^2 = -(1+w)^{2g+1}.  Then v2(w) is a unit too (a common
    # root of v2 and f would be a root of (1+x)^{2g+1}), and g_P(D_Q)/g_Q(D) =
    # -(num_p/num_q)^2 v2(w)^2 / (1+w)^{2g+1} = e2 at every root w of f.
    f = curve_poly(g, cert.a1, v1)
    pw = Poly(F, [F.one, F.one]) ** n - f   # (1+x)^n mod f: both monic of degree n
    if pw.gcd(f).degree != 0:
        raise CertError("(1+w)^{2g+1} or v2(w) vanishes at a root of f")
    if not ((v2 * v2 + pw) % f).is_zero:
        raise CertError("v2(w)^2 = -(1+w)^{2g+1} fails mod f")
    return e


def weil_closed(F, g, I):
    """Product of eps over the complement of I in the canonical M(2g+1)."""
    roots = nth_roots_of_unity(F, 2 * g + 1)
    in_I = set(I)
    acc = F.one
    for i, eps in enumerate(roots):
        if i not in in_I:
            acc = F.mul(acc, eps)
    return acc
