from fractions import Fraction

import pytest

from hyptorsion.families import (AdmissibleFn, CharTemplate, CoprimeTemplate,
                                 RootLabel, admissible_enum, char_templates,
                                 eta_roots, find_good_mu, mu_candidates,
                                 nice_pairs_coprime, rational_four_torsion,
                                 symmetry_classes, upsilon_ij_enum)
from hyptorsion.fields import (ExtField, FieldError, InsufficientFieldError,
                               PrimeField, Rationals)
from hyptorsion.jacobian import embed, exact_order
from hyptorsion.polyring import Poly
from hyptorsion.torsion import QSideDegeneracyError, verify_single

F11 = PrimeField(11)


class TestEtaRoots:
    def test_gf11_values(self):
        labels = eta_roots(F11, 5)
        assert [lab.eps for lab in labels] == [3, 9, 5, 4]
        assert {lab.eta for lab in labels} == {6, 7, 3, 4}
        # Vieta: sum of eta over M(n) is -(n-1)/2
        assert sum(lab.eta for lab in labels) % 11 == 9
        # eta determines eps back: eps = (1 + eta)/eta
        for lab in labels:
            assert F11.div(F11.add(F11.one, lab.eta), lab.eta) == lab.eps


class TestCoprimeTemplates:
    def test_genus_one_counts(self):
        F7 = PrimeField(7)
        temps = list(nice_pairs_coprime(F7, 1))
        assert len(temps) == 2
        assert len(symmetry_classes(temps)) == 1

    def test_genus_two_counts(self):
        temps = list(nice_pairs_coprime(F11, 2))
        assert len(temps) == 6
        classes = symmetry_classes(temps)
        assert len(classes) == 3
        assert all(len(c) == 2 for c in classes)

    def test_char_divides_rejected(self):
        with pytest.raises(FieldError):
            list(nice_pairs_coprime(PrimeField(5), 2))

    def test_mu_one_can_be_bad(self):
        t = next(iter(nice_pairs_coprime(F11, 2)))  # I = (0, 1)
        u1, u2 = t.u_pair(F11, F11.one)
        from hyptorsion.torsion import PairCert
        with pytest.raises(QSideDegeneracyError):
            PairCert(2, F11.zero, F11.neg(F11.one), u1, u2)

    def test_find_good_mu_gives_order_5(self):
        for t in nice_pairs_coprime(F11, 2):
            mu, cert, enh = find_good_mu(F11, 2, t)
            for P in (enh.P, enh.Q):
                assert exact_order(enh.C, embed(enh.C, P), 5) == 5
                assert verify_single(enh.C, P) is not None

    def test_family_json(self):
        t = next(iter(nice_pairs_coprime(F11, 2)))
        mu, _, _ = find_good_mu(F11, 2, t)
        j = t.to_json(mu=mu, F=F11)
        assert j["regime"] == "coprime" and j["I"] == [0, 1] and "mu" in j


class TestAdmissible:
    def test_validation(self):
        with pytest.raises(ValueError):
            AdmissibleFn(3, 1, 2, (3, 3, 3, 3))  # all zero mod 3
        with pytest.raises(ValueError):
            AdmissibleFn(3, 1, 2, (4, 0, 0, 0))  # value above p^k
        with pytest.raises(ValueError):
            AdmissibleFn(3, 1, 2, (2, 2, 2, 2))  # degree exceeds g = 7

    def test_bar_admissible(self):
        for ups in upsilon_ij_enum(ExtField(3, 4), 3, 1, 2):
            bar = ups.bar
            assert bar.bar == ups

    def test_ij_values(self):
        E = ExtField(3, 4)
        fns = list(upsilon_ij_enum(E, 3, 1, 2))
        assert len(fns) == 6
        for ups in fns:
            assert sorted(ups.values) == [1, 1, 2, 2]

    def test_ij_subset_of_admissible(self):
        E = ExtField(3, 4)
        all_fns = {f.values for f in admissible_enum(E, 3, 1, 2)}
        for ups in upsilon_ij_enum(E, 3, 1, 2):
            assert ups.values in all_fns

    def test_negative_k_rejected(self):
        F7 = PrimeField(7)
        with pytest.raises(ValueError, match="k must be >= 0, got -1"):
            AdmissibleFn(7, -1, 1, (0, 1))
        for enum in (upsilon_ij_enum, admissible_enum):
            with pytest.raises(ValueError, match="k must be >= 0, got -1"):
                list(enum(F7, 7, -1, 1))
        with pytest.raises(ValueError, match="k must be >= 0"):
            list(char_templates(F7, 7, -2, 1, ij_only=False))

    def test_char_mismatch_rejected(self):
        with pytest.raises(FieldError):
            list(upsilon_ij_enum(F11, 3, 1, 2))
        with pytest.raises(FieldError):
            list(upsilon_ij_enum(PrimeField(3), 3, 1, 4))  # 3 | 2l+1


class TestCharRegime:
    def test_order_fifteen_curves(self):
        E = ExtField(3, 4)
        temps = list(char_templates(E, 3, 1, 2))
        assert len(temps) == 6
        for t in temps:
            assert t.g == 7
            mu, cert, enh = find_good_mu(E, 7, t)
            D = embed(enh.C, enh.P)
            assert exact_order(enh.C, D, 15) == 15
            j = t.to_json(mu=mu, F=E)
            assert j["regime"] == "char" and sorted(j["upsilon"]) == [1, 1, 2, 2]

    def test_perturbed_labels_exhaust_the_scan(self):
        # u1*u2 misses (x+1)^15 - x^15 for every mu; PairCert refuses each one
        E = ExtField(3, 4)
        t = next(char_templates(E, 3, 1, 2))
        eps, eta = t.labels[0].eps, t.labels[0].eta
        labels = (RootLabel(eps, E.add(eta, E.one)),) + t.labels[1:]
        with pytest.raises(InsufficientFieldError):
            find_good_mu(E, 7, CharTemplate(t.ups, labels))


class TestRationalFamilies:
    def test_mu_scan_order(self):
        it = mu_candidates(Rationals())
        assert [next(it) for _ in range(4)] == [1, -1, 2, -2]

    def test_not_hyperelliptic_rejected(self):
        with pytest.raises(ValueError):
            rational_four_torsion(1)
        with pytest.raises(ValueError):
            rational_four_torsion(4)  # n = 9

    def test_degree_check_survives_optimize(self, run_optimized):
        out = run_optimized("""
            from hyptorsion import families
            from hyptorsion.polyring import Poly
            cyclotomic = families.cyclotomic
            families.cyclotomic = lambda d, F: Poly.x(F) * cyclotomic(d, F)

            def scan(*args):
                raise RuntimeError("the mu scan was reached")

            families.find_good_mu = scan
            try:
                families.rational_four_torsion(52)
            except Exception as exc:
                print(type(exc).__name__, exc)
        """)
        assert out == ["ValueError partition factors have degrees 54, 57; "
                       "expected g = 52"]

    def test_genus_52(self):
        C, points, cert, mu = rational_four_torsion(52)
        assert C.f.degree == 105 and C.f.is_monic
        assert mu == Fraction(2)
        assert len({(P.x, P.y) for P in points}) == 4
        for P in points:
            assert verify_single(C, P) is not None
