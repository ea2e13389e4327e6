import copy
import itertools
import math
import random

import pytest

from hyptorsion import torsion
from hyptorsion.families import find_good_mu, nice_pairs_coprime
from hyptorsion.fields import ExtField, PrimeField, Rationals
from hyptorsion.jacobian import (Curve, NotSquarefreeError, embed, exact_order,
                                 involution, points_with_x)
from hyptorsion.polyring import Poly, diff_power
from hyptorsion.torsion import (CertError, PairCert, QSideDegeneracyError,
                                curve_poly, make_pair, make_single, recover_pair,
                                torsion_census, verify_single)

F11 = PrimeField(11)
F5 = PrimeField(5)


class TestMakeSingle:
    def test_examples(self):
        C, P, cert = make_single(2, 0, Poly.from_ints(F11, [1]))
        assert C.f == Poly.from_ints(F11, [1, 0, 0, 0, 0, 1])
        assert (P.x, P.y) == (0, 1)
        C, P, cert = make_single(2, 0, Poly.from_ints(F5, [1, 1]))
        assert C.f == Poly.from_ints(F5, [1, 2, 1, 0, 0, 1])
        assert (P.x, P.y) == (0, 1)

    def test_freshman_dream_rejected(self):
        with pytest.raises(NotSquarefreeError):
            make_single(2, 0, Poly.from_ints(F5, [1]))  # x^5+1 = (x+1)^5

    def test_weierstrass_v_rejected(self):
        with pytest.raises(CertError):
            make_single(2, 1, Poly.from_ints(F11, [10, 1]))  # v(1) = 0


class TestVerifySingle:
    def test_example(self):
        C, P, _ = make_single(2, 0, Poly.from_ints(F11, [1]))
        cert = verify_single(C, P)
        assert cert is not None and cert.v == Poly.from_ints(F11, [1])
        assert verify_single(C, involution(P, F11)).v == Poly.from_ints(F11, [10])

    def test_weierstrass_none(self):
        C, _, _ = make_single(2, 0, Poly.from_ints(F11, [1]))
        W = points_with_x(C, 10)[0]
        assert verify_single(C, W) is None

    @pytest.mark.parametrize("g,p", [(1, 7), (1, 11), (2, 11), (2, 13),
                                     (3, 13), (3, 31)])
    def test_soundness_and_completeness(self, g, p):
        """cert exists <=> Cantor order is exactly 2g+1, for every affine
        point on a sample of random curves."""
        F = PrimeField(p)
        n = 2 * g + 1
        rng = random.Random(1000 * g + p)
        curves = []
        while len(curves) < 4:
            f = Poly(F, [rng.randrange(p) for _ in range(n)] + [1])
            try:
                curves.append(Curve(F, g, f))
            except NotSquarefreeError:
                continue
        # also include a constructed curve that certainly has order-n points
        while True:
            v = Poly(F, [rng.randrange(p) for _ in range(g + 1)])
            try:
                C, _, _ = make_single(g, F.coerce(rng.randrange(p)), v)
                curves.append(C)
                break
            except (CertError, NotSquarefreeError):
                continue
        for C in curves:
            for x0 in F.elements():
                for P in points_with_x(C, x0):
                    has_cert = verify_single(C, P) is not None
                    oracle = exact_order(C, embed(C, P), n) == n
                    assert has_cert == oracle, (C.f.coeffs, P)


def _template_cert(F, g, I, mu):
    from hyptorsion.families import eta_roots
    labels = eta_roots(F, 2 * g + 1)
    n = F.coerce(2 * g + 1)
    u1 = Poly.const(F, mu)
    u2 = Poly.const(F, F.div(n, mu))
    for i, eta in enumerate(labels):
        lin = Poly(F, [F.neg(eta), F.one])
        if i in I:
            u1 = u1 * lin
        else:
            u2 = u2 * lin
    return PairCert(g, F.zero, F.neg(F.one), u1, u2)


def _zero_derivative_candidates():
    """(F, g, a1, a2, u1, u2) with u1' = u2' = 0, the characteristic dividing
    2g+1.  Over GF(3^4) at g = 7: mu * H_S^3 and (5/mu) * H_rest^3 for every
    subset S of the four eta labels of M(5), as (x+1)^15 - x^15 = 5 H^3 there.
    Over GF(3), GF(3^2), GF(5) and GF(7): the constant u1 = c, and
    u2 = ((x - a2)^n - (x - a1)^n)/c, which is a constant too."""
    from hyptorsion.families import eta_roots
    E = ExtField(3, 4)
    lins = [Poly(E, [E.neg(eta), E.one]) for eta in eta_roots(E, 5)]
    one = Poly.const(E, E.one)
    for S in itertools.product((False, True), repeat=len(lins)):
        h1 = math.prod((lin for lin, s in zip(lins, S) if s), start=one) ** 3
        h2 = math.prod((lin for lin, s in zip(lins, S) if not s), start=one) ** 3
        for mu in range(1, E.order):
            yield (E, 7, E.zero, E.neg(E.one), h1.scale(mu),
                   h2.scale(E.div(E.coerce(5), mu)))
    for F, g in ((PrimeField(3), 1), (ExtField(3, 2), 1), (F5, 2), (PrimeField(7), 3)):
        for a1, a2 in itertools.permutations(F.elements(), 2):
            d = diff_power(F, a1, a2, 2 * g + 1)
            for c in range(1, F.order):
                yield F, g, a1, a2, Poly.const(F, c), d.scale(F.inv(c))


def test_zero_derivative_is_refused_as_not_squarefree():
    # make_pair has no check of its own for u1' = 0 or u2' = 0: the curve's
    # squarefreeness check refuses every such certificate
    refused = 0
    for F, g, *args in _zero_derivative_candidates():
        try:
            cert = PairCert(g, *args)
        except CertError:
            continue
        assert cert.u1.derivative().is_zero and cert.u2.derivative().is_zero
        with pytest.raises(NotSquarefreeError):
            make_pair(cert)
        refused += 1
    assert refused == 1096


class TestPairs:
    def test_mu_1_degenerates_for_I_01(self):
        # the subset {3, 9} of M(5) in canonical order is indices {0, 1}
        with pytest.raises(QSideDegeneracyError):
            _template_cert(F11, 2, (0, 1), F11.one)

    def test_make_recover_roundtrip(self):
        cert = _template_cert(F11, 2, (0, 1), F11.coerce(2))
        enh = make_pair(cert)
        assert enh.P.x == 0 and enh.Q.x == 10
        back = recover_pair(enh.C, enh.P, enh.Q)
        assert back.u1 == cert.u1 and back.u2 == cert.u2

    def test_same_abscissa_rejected(self):
        C, P, _ = make_single(2, 0, Poly.from_ints(F5, [1, 1]))
        with pytest.raises(CertError):
            recover_pair(C, P, involution(P, F5))

    def test_weierstrass_point_rejected(self):
        # at mu = 3 the curve of I = (0, 1) has a root of f in GF(11)
        enh = make_pair(_template_cert(F11, 2, (0, 1), F11.coerce(3)))
        W = next(pt for x0 in F11.elements() for pt in points_with_x(enh.C, x0)
                 if pt.y == F11.zero)
        with pytest.raises(CertError):
            recover_pair(enh.C, enh.P, W)
        with pytest.raises(CertError):
            recover_pair(enh.C, W, enh.Q)

    def test_both_points_give_one_curve(self):
        # make_pair builds f from (a1, v1) alone; the product identity makes
        # it (x - a2)^{2g+1} + v2^2 as well.
        for F, g in ((F11, 2), (ExtField(29, 2), 2), (ExtField(11, 3), 3)):
            for t in nice_pairs_coprime(F, g):
                _, cert, _ = find_good_mu(g, t.factors(F))
                v1, v2 = cert.v_polys()
                assert curve_poly(g, cert.a1, v1) == curve_poly(g, cert.a2, v2), (F, t.I)
        forged = copy.copy(cert)  # u2 + 1, past PairCert.__post_init__
        object.__setattr__(forged, "u2", cert.u2 + Poly.const(F, F.one))
        v1, v2 = forged.v_polys()
        assert curve_poly(g, cert.a1, v1) != curve_poly(g, cert.a2, v2)

    def test_evaluation_identities(self):
        cert = _template_cert(F11, 2, (0, 2), F11.one)
        rhs = F11.pow_el(F11.sub(cert.a1, cert.a2), 5)
        for a in (cert.a1, cert.a2):
            assert F11.mul(cert.u1(a), cert.u2(a)) == rhs


class TestCensus:
    def test_gf5_and_extension(self):
        C, _, _ = make_single(2, 0, Poly.from_ints(F5, [1, 1]))
        pts = torsion_census(C, 5)
        assert [(P.x, P.y) for P in pts] == [(0, 1), (0, 4)]
        E = ExtField(5, 4)
        fE = Poly(E, [E.coerce(c) for c in C.f.coeffs])
        CE = Curve(E, 2, fE)
        assert len(torsion_census(CE, 5)) == 2  # the bound holds over GF(5^4)

    def test_count_even(self):
        C = Curve(F11, 2, Poly.from_ints(F11, [1, 0, 0, 0, 0, 1]))
        pts = torsion_census(C, 5)
        assert len(pts) >= 2 and len(pts) % 2 == 0

    def test_rationals_rejected(self):
        QQ = Rationals()
        x = Poly.x(QQ)
        C = Curve(QQ, 1, x ** 3 + Poly.const(QQ, QQ.one))
        with pytest.raises(ValueError):
            torsion_census(C, 3)

    def test_order_bound(self, monkeypatch):
        # y^2 = x^3 + 4x^2 + 3x + 2 over GF(7): 12 points of order 13, the
        # largest point order (found by repeated addition), against the
        # census bound (isqrt(7) + 2)^2 = 16 on #J.
        F7 = PrimeField(7)
        C = Curve(F7, 1, Poly.from_ints(F7, [2, 3, 4, 1]))
        bound = (math.isqrt(7) + 2) ** 2
        calls = []

        def counting(C, D, n):
            calls.append(n)
            return exact_order(C, D, n)

        monkeypatch.setattr(torsion, "exact_order", counting)
        assert len(torsion_census(C, 13)) == 12 and calls
        del calls[:]
        assert torsion_census(C, bound) == [] and calls
        del calls[:]
        assert torsion_census(C, bound + 1) == [] and not calls
