import itertools
import math
import random

import pytest

from hyptorsion import torsion
from hyptorsion.fields import (ExtField, InsufficientFieldError, PrimeField,
                               Rationals)
from hyptorsion.jacobian import (Curve, DegreeError, NotSquarefreeError, embed,
                                 exact_order, involution, points_with_x)
from hyptorsion.polyring import Poly
from hyptorsion.torsion import (CertError, PairCert, QSideDegeneracyError,
                                decorations_of, make_pair, make_single,
                                normalize_enhanced, recover_pair,
                                torsion_census, verify_single)

F11 = PrimeField(11)
F5 = PrimeField(5)


class TestMakeSingle:
    def test_examples(self):
        C, P, cert = make_single(F11, 2, 0, Poly.from_ints(F11, [1]))
        assert C.f == Poly.from_ints(F11, [1, 0, 0, 0, 0, 1])
        assert (P.x, P.y) == (0, 1)
        C, P, cert = make_single(F5, 2, 0, Poly.from_ints(F5, [1, 1]))
        assert C.f == Poly.from_ints(F5, [1, 2, 1, 0, 0, 1])
        assert (P.x, P.y) == (0, 1)

    def test_freshman_dream_rejected(self):
        with pytest.raises(NotSquarefreeError):
            make_single(F5, 2, 0, Poly.from_ints(F5, [1]))  # x^5+1 = (x+1)^5

    def test_weierstrass_v_rejected(self):
        with pytest.raises(CertError):
            make_single(F11, 2, 1, Poly.from_ints(F11, [10, 1]))  # v(1) = 0


class TestVerifySingle:
    def test_example(self):
        C, P, _ = make_single(F11, 2, 0, Poly.from_ints(F11, [1]))
        cert = verify_single(C, P)
        assert cert is not None and cert.v == Poly.from_ints(F11, [1])
        assert verify_single(C, involution(P, F11)).v == Poly.from_ints(F11, [10])

    def test_weierstrass_none(self):
        C, _, _ = make_single(F11, 2, 0, Poly.from_ints(F11, [1]))
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
                C, _, _ = make_single(F, g, F.coerce(rng.randrange(p)), v)
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
    for i, lab in enumerate(labels):
        lin = Poly(F, [F.neg(lab.eta), F.one])
        if i in I:
            u1 = u1 * lin
        else:
            u2 = u2 * lin
    return PairCert(g, F.zero, F.neg(F.one), u1, u2)


class TestPairs:
    def test_mu_1_degenerates_for_I_01(self):
        # the subset {3, 9} of M(5) in canonical order is indices {0, 1}
        with pytest.raises(QSideDegeneracyError):
            _template_cert(F11, 2, (0, 1), F11.one)

    def test_make_recover_roundtrip(self):
        cert = _template_cert(F11, 2, (0, 1), F11.coerce(2))
        enh = make_pair(F11, 2, cert)
        assert enh.P.x == 0 and enh.Q.x == 10
        back = recover_pair(enh.C, enh.P, enh.Q)
        assert back.u1 == cert.u1 and back.u2 == cert.u2

    def test_make_pair_refuses_another_genus(self):
        cert = _template_cert(F11, 2, (0, 1), F11.coerce(2))
        with pytest.raises(DegreeError):
            make_pair(F11, 3, cert)

    def test_same_abscissa_rejected(self):
        C, P, _ = make_single(F5, 2, 0, Poly.from_ints(F5, [1, 1]))
        with pytest.raises(CertError):
            recover_pair(C, P, involution(P, F5))

    def test_evaluation_identities(self):
        cert = _template_cert(F11, 2, (0, 2), F11.one)
        rhs = F11.pow_el(F11.sub(cert.a1, cert.a2), 5)
        for a in (cert.a1, cert.a2):
            assert F11.mul(cert.u1(a), cert.u2(a)) == rhs


class TestDecorations:
    def test_check_survives_optimize(self, run_optimized):
        out = run_optimized("""
            from hyptorsion import torsion
            from hyptorsion.families import find_good_mu, nice_pairs_coprime
            from hyptorsion.fields import PrimeField
            F = PrimeField(11)
            t = next(t for t in nice_pairs_coprime(F, 2) if t.I == (0, 1))
            _, _, enh = find_good_mu(F, 2, t)
            torsion.involution = lambda P, ctx: P
            try:
                torsion.decorations_of(enh.C, enh.P, enh.Q)
                print("accepted")
            except Exception as exc:
                print(type(exc).__name__, exc)
        """)
        assert out == ["CertError a decoration's v1(a1), v2(a2) miss its "
                       "marked pair"]

    def test_four_variants(self):
        cert = _template_cert(F11, 2, (0, 1), F11.coerce(2))
        enh = make_pair(F11, 2, cert)
        decs = decorations_of(enh.C, enh.P, enh.Q)
        assert len(decs) == 4
        assert len({(d.cert.u1, d.cert.u2) for d in decs}) == 4
        # all four give the same curve polynomial
        assert len({d.cert.curve_poly() for d in decs}) == 1
        # the (-u1, -u2) variant marks (iota P, iota Q)
        d = decs[1]
        assert d.cert.u1 == -decs[0].cert.u1 and d.cert.u2 == -decs[0].cert.u2
        assert d.P == involution(enh.P, F11) and d.Q == involution(enh.Q, F11)
        # exactly one decoration matches the original marked pair
        assert sum(1 for d in decs if (d.P, d.Q) == (enh.P, enh.Q)) == 1


class TestNormalize:
    def test_identity_on_normalized(self):
        cert = _template_cert(F11, 2, (0, 1), F11.coerce(2))
        enh = make_pair(F11, 2, cert)
        norm, iso = normalize_enhanced(enh.C, enh.P, enh.Q)
        assert norm.C.f == enh.C.f and iso.lam == F11.one and iso.r == F11.zero

    def test_shift_and_normalize_back(self):
        cert = _template_cert(F11, 2, (0, 1), F11.coerce(2))
        enh = make_pair(F11, 2, cert)
        # move the curve by x -> x - 1 so P sits at abscissa 1, Q at 0
        f_shift = enh.C.f.shift(F11.neg(F11.one))
        C2 = Curve(F11, 2, f_shift)
        P2 = points_with_x(C2, F11.add(enh.P.x, F11.one))
        Q2 = points_with_x(C2, F11.add(enh.Q.x, F11.one))
        P2 = next(p for p in P2 if p.y == enh.P.y)
        Q2 = next(q for q in Q2 if q.y == enh.Q.y)
        norm, iso = normalize_enhanced(C2, P2, Q2)
        assert norm.C.f == enh.C.f
        assert norm.P.x == F11.zero and norm.Q.x == F11.neg(F11.one)
        # idempotence
        again, iso2 = normalize_enhanced(norm.C, norm.P, norm.Q)
        assert again.C.f == norm.C.f and iso2.lam == F11.one

    def test_insufficient_field(self):
        # x(P) - x(Q) a non-residue forces a quadratic extension
        F = PrimeField(19)
        got = None
        for g, a in itertools.product([2], range(2, 19)):
            if F.sqrt(F.coerce(a)) is not None:
                continue
            try:
                C, P, _ = make_single(F, g, F.coerce(a), Poly.from_ints(F, [1]))
            except NotSquarefreeError:
                continue
            Qs = [q for x0 in F.elements() for q in points_with_x(C, x0)
                  if x0 == 0 and q.y != 0]
            for Q in Qs:
                if verify_single(C, Q) is None:
                    continue
                with pytest.raises(InsufficientFieldError) as exc:
                    normalize_enhanced(C, P, Q)
                assert exc.value.extension_degree == 2
                got = True
            if got:
                return
        pytest.skip("no witness found in range")

    def test_checks_survive_optimize(self, run_optimized):
        # python -O strips assert statements; the typed raises must remain.
        out = run_optimized("""
            from hyptorsion import torsion
            from hyptorsion.families import find_good_mu, nice_pairs_coprime
            from hyptorsion.fields import PrimeField
            from hyptorsion.jacobian import AffinePoint
            F = PrimeField(11)
            t = next(t for t in nice_pairs_coprime(F, 2) if t.I == (0, 1))
            _, _, enh = find_good_mu(F, 2, t)
            apply_point = torsion.IsoMap.apply_point
            for dx, dy in ((1, 0), (0, 1)):
                def wrong(self, ctx, g, P, dx=dx, dy=dy):
                    P1 = apply_point(self, ctx, g, P)
                    return AffinePoint(ctx.add(P1.x, dx), ctx.add(P1.y, dy))
                torsion.IsoMap.apply_point = wrong
                try:
                    torsion.normalize_enhanced(enh.C, enh.P, enh.Q)
                    print("accepted")
                except Exception as exc:
                    print(type(exc).__name__, exc)
        """)
        assert out == [
            "CertError normalized abscissas are not 0 and -1",
            "CertError normalized points are not on the normalized curve",
        ]


class TestCensus:
    def test_gf5_and_extension(self):
        C, _, _ = make_single(F5, 2, 0, Poly.from_ints(F5, [1, 1]))
        pts = torsion_census(C, 5)
        assert [(P.x, P.y) for P, _ in pts] == [(0, 1), (0, 4)]
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
