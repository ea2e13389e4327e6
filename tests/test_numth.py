import itertools

import pytest

from hyptorsion import numth
from hyptorsion.numth import (SearchTooLongError, TotientPartition, divisors,
                              factorize, hyperelliptic_cert,
                              hyperelliptic_scan, overq_filter, totient)


def test_factorize_and_totient():
    assert factorize(360) == {2: 3, 3: 2, 5: 1}
    assert totient(1) == 1
    assert totient(105) == 48
    assert totient(165) == 80
    assert divisors(105) == [1, 3, 5, 7, 15, 21, 35, 105]


def test_totient_divisor_identity():
    for n in range(3, 1001, 2):
        assert sum(totient(d) for d in divisors(n) if d > 1) == n - 1


def test_totient_bound_check_survives_optimize(run_optimized):
    out = run_optimized("""
        from hyptorsion import numth
        numth.totient = lambda n: 0
        try:
            print(numth.overq_filter(9))
        except Exception as exc:
            print(type(exc).__name__, exc)
    """)
    assert out == ["ValueError filter case i without its totient bound for n=9"]


class TestCert:
    def test_known_certs(self):
        c = hyperelliptic_cert(105)
        assert set(c.S1) == {105, 5} and c.S1[0] == 105
        assert sum(totient(d) for d in c.S1) == 52
        c = hyperelliptic_cert(165)
        assert set(c.S1) == {165, 3}
        assert sum(totient(d) for d in c.S1) == 82

    def test_none_cases(self):
        assert hyperelliptic_cert(9) is None
        assert hyperelliptic_cert(5) is None
        assert hyperelliptic_cert(195) is None  # all totients even, g odd

    def test_validation(self):
        with pytest.raises(ValueError):
            hyperelliptic_cert(8)
        with pytest.raises(ValueError):
            TotientPartition(105, (105,), (5, 35, 21, 15, 7, 3))

    def test_matches_brute_force_to_2001(self):
        for n in range(3, 2002, 2):
            c = hyperelliptic_cert(n)
            assert (None if c is None else (c.S1, c.S2)) == _reference_cert(n), n

    @pytest.mark.parametrize("n, size", [(99645, 9), (201285, 7), (765765, 6),
                                         (4849845, 8)])
    def test_large_certs(self, n, size):
        c = hyperelliptic_cert(n)
        assert len(c.S1) == size
        assert TotientPartition(c.n, c.S1, c.S2) == c

    def test_table_bound(self, monkeypatch):
        monkeypatch.setattr(numth, "MAX_TABLE_BITS", 10 ** 6)
        assert hyperelliptic_cert(105).S1 == (105, 5)
        with pytest.raises(SearchTooLongError):
            hyperelliptic_cert(765765)


def _reference_cert(n):
    """The first subset of the least size, in itertools order over the
    divisors above 1 in descending order, whose totients sum to (n-1)/2."""
    g = (n - 1) // 2
    divs = sorted((d for d in divisors(n) if d > 1), reverse=True)
    phis = {d: totient(d) for d in divs}
    for size in range(1, len(divs) + 1):
        for combo in itertools.combinations(divs, size):
            if sum(phis[d] for d in combo) == g:
                return combo, tuple(d for d in divs if d not in combo)
    return None


class TestFilter:
    def test_cases(self):
        assert overq_filter(117).case == "ii"      # 3^2 * 13
        assert overq_filter(385).case == "iii"     # 5 * 7 * 11
        assert overq_filter(9).case == "i"
        assert overq_filter(105).hyperelliptic_possible
        assert overq_filter(195).hyperelliptic_possible  # silent, still no cert

    def test_soundness_to_2000(self):
        for n in range(3, 2001, 2):
            if not overq_filter(n).hyperelliptic_possible:
                assert hyperelliptic_cert(n) is None, n


class TestScan:
    def test_known_ranges(self):
        assert hyperelliptic_scan(100) == []
        assert hyperelliptic_scan(201) == [105, 165]

    def test_validation(self):
        with pytest.raises(ValueError):
            hyperelliptic_scan(2)
