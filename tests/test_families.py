import math
from argparse import Namespace
from fractions import Fraction

import pytest

from hyptorsion import families
from hyptorsion.cli import _family_json
from hyptorsion.families import (Template, char_templates,
                                 check_admissible, eta_roots, family_pair,
                                 find_good_mu, mu_candidates, nice_pairs_coprime,
                                 rational_four_torsion, symmetry_classes)
from hyptorsion.fields import (ExtField, FieldError, InsufficientFieldError,
                               PrimeField, Rationals, nth_roots_of_unity)
from hyptorsion.jacobian import embed, exact_order
from hyptorsion.torsion import QSideDegeneracyError, verify_single

F11 = PrimeField(11)


class TestEtaRoots:
    def test_gf11_values(self):
        labels = eta_roots(F11, 5)
        assert nth_roots_of_unity(F11, 5) == (3, 9, 5, 4)
        assert set(labels) == {6, 7, 3, 4}
        # Vieta: sum of eta over M(n) is -(n-1)/2
        assert sum(labels) % 11 == 9
        # eta determines eps back, in the order of M(n): eps = (1 + eta)/eta
        assert [F11.div(F11.add(F11.one, eta), eta) for eta in labels] == [3, 9, 5, 4]

    def test_product_identity_catches_a_wrong_root(self, monkeypatch):
        def one_wrong(F, n):
            roots = nth_roots_of_unity(F, n)
            return (F.add(roots[0], F.one),) + roots[1:]    # 3 + 1 over GF(11)

        monkeypatch.setattr(families, "nth_roots_of_unity", one_wrong)
        families.eta_roots.cache_clear()
        try:
            with pytest.raises(FieldError, match="eta product identity failed"):
                eta_roots(F11, 5)
        finally:
            families.eta_roots.cache_clear()


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
        with pytest.raises(QSideDegeneracyError):
            family_pair(2, t.factors(F11), F11.one)

    def test_find_good_mu_gives_order_5(self):
        for t in nice_pairs_coprime(F11, 2):
            mu, cert, enh = find_good_mu(2, t.factors(F11))
            for P in (enh.P, enh.Q):
                assert exact_order(enh.C, embed(enh.C, P), 5) == 5
                assert verify_single(enh.C, P) is not None

    def test_family_json(self):
        # templates carry no regime; the CLI names it from --regime
        t = next(iter(nice_pairs_coprime(F11, 2)))
        mu, _, _ = find_good_mu(2, t.factors(F11))
        j = {**_family_json(Namespace(regime="coprime"), t),
             "mu": F11.elem_to_json(mu)}
        assert j["regime"] == "coprime" and j["I"] == [0, 1] and "mu" in j


class TestCoprimeIsCharAtKZero:
    """The coprime regime is the char regime at q = p^0 = 1, where the
    upsilon_{I,J} values are 1 on I and 0 off it."""

    @pytest.mark.parametrize("F, g", [(F11, 2), (PrimeField(29), 3),
                                      (ExtField(11, 3), 3)])
    def test_same_templates_in_the_same_order(self, F, g):
        coprime = list(nice_pairs_coprime(F, g))
        char = list(char_templates(F, F.char, 0, g))
        assert len(coprime) == math.comb(2 * g, g) and char == coprime
        assert [t.factors(F) for t in char] == [t.factors(F) for t in coprime]
        admissible = list(char_templates(F, F.char, 0, g, ij_only=False))
        assert len(admissible) == len(coprime)
        assert {t.values for t in admissible} == {t.values for t in coprime}


class TestAdmissible:
    def test_validation(self):
        with pytest.raises(ValueError, match="some value must be nonzero mod p"):
            check_admissible(3, 1, 2, (3, 3, 3, 3))  # all zero mod 3
        with pytest.raises(ValueError, match=r"values must lie in \[0, 3\]"):
            check_admissible(3, 1, 2, (4, 0, 0, 0))  # value above p^k
        with pytest.raises(ValueError, match="deg upsilon exceeds g"):
            check_admissible(3, 1, 2, (2, 2, 2, 2))  # degree exceeds g = 7

    def test_bar_admissible(self):
        for t in char_templates(ExtField(3, 4), 3, 1, 2):
            bar = t.bar
            check_admissible(3, 1, 2, bar.values)
            assert bar.bar == t

    def test_ij_values(self):
        E = ExtField(3, 4)
        temps = list(char_templates(E, 3, 1, 2))
        assert len(temps) == 6
        for t in temps:
            assert sorted(t.values) == [1, 1, 2, 2]

    def test_ij_subset_of_admissible(self):
        # the subset walk runs no admissibility check of its own
        for E, p, k, l in ((ExtField(3, 4), 3, 1, 2), (ExtField(5, 2), 5, 1, 1)):
            all_fns = {t.values for t in char_templates(E, p, k, l, ij_only=False)}
            for t in char_templates(E, p, k, l):
                assert t.values in all_fns

    def test_negative_k_rejected(self):
        F7 = PrimeField(7)
        with pytest.raises(ValueError, match="k must be >= 0, got -1"):
            check_admissible(7, -1, 1, (0, 1))
        for ij_only in (True, False):
            with pytest.raises(ValueError, match="k must be >= 0, got -1"):
                list(char_templates(F7, 7, -1, 1, ij_only=ij_only))
        with pytest.raises(ValueError, match="k must be >= 0"):
            list(char_templates(F7, 7, -2, 1, ij_only=False))

    def test_char_mismatch_rejected(self):
        with pytest.raises(FieldError, match="field characteristic 11 != p = 3"):
            list(char_templates(F11, 3, 1, 2))
        with pytest.raises(FieldError, match="divisible by the characteristic 3"):
            list(char_templates(PrimeField(3), 3, 1, 4))  # 3 | 2l+1


class TestCharRegime:
    def test_order_fifteen_curves(self):
        E = ExtField(3, 4)
        temps = list(char_templates(E, 3, 1, 2))
        assert len(temps) == 6
        for t in temps:
            assert t.g == 7 and len(t.I) == 2
            mu, cert, enh = find_good_mu(7, t.factors(E))
            D = embed(enh.C, enh.P)
            assert exact_order(enh.C, D, 15) == 15

    def test_perturbed_labels_exhaust_the_scan(self):
        # u1*u2 misses (x+1)^15 - x^15 for every mu; PairCert refuses each one
        E = ExtField(3, 4)
        t = next(char_templates(E, 3, 1, 2))
        labels = (E.add(t.labels[0], E.one),) + t.labels[1:]
        with pytest.raises(InsufficientFieldError):
            find_good_mu(7, Template(labels, t.values, t.q).factors(E))


class TestRationalFamilies:
    def test_mu_scan_order(self):
        it = mu_candidates(Rationals())
        assert [next(it) for _ in range(4)] == [1, -1, 2, -2]
        assert list(mu_candidates(F11)) == list(range(1, 11))   # never 0

    def test_not_hyperelliptic_rejected(self):
        with pytest.raises(ValueError):
            rational_four_torsion(1)
        with pytest.raises(ValueError):
            rational_four_torsion(4)  # n = 9

    def test_degree_check_survives_optimize(self, run_optimized):
        out = run_optimized("""
            from hyptorsion import families
            psi_factors = families._psi_factors
            families._psi_factors = lambda n: {   # each Psi_d times x
                d: [0] + psi for d, psi in psi_factors(n).items()}

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
