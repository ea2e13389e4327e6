import pytest

from hyptorsion.numth import (TotientPartition, divisors, factorize,
                              hyperelliptic_cert, hyperelliptic_scan,
                              overq_filter, totient)


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

    def test_json_roundtrip(self):
        c = hyperelliptic_cert(105)
        assert TotientPartition.from_json(c.to_json()) == c


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
