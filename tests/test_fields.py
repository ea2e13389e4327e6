import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from hyptorsion import families, fields
from hyptorsion.families import eta_roots
from hyptorsion.fields import (ExtField, FieldError, InsufficientFieldError,
                               PrimeField, Rationals, field_make,
                               find_irreducible, is_prime, nth_roots_of_unity,
                               order_from_multiple)
from hyptorsion.polyring import Poly


def test_is_prime():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert is_prime(2 ** 61 - 1)
    assert not is_prime(2 ** 67 - 1)


# The least strong pseudoprimes to the first 12 and to the first 13 prime
# bases: 399165290221 * 798330580441 and 1287836182261 * 2575672364521.
PSI_12 = 318665857834031151167461
PSI_13 = 3317044064679887385961981


class TestIsPrime:
    def test_refuses_strong_pseudoprimes_and_carmichael_numbers(self):
        assert PSI_12 == 399165290221 * 798330580441
        assert PSI_13 == 1287836182261 * 2575672364521
        for n in (PSI_12, PSI_13, 561, 41041, 825265):
            assert not is_prime(n), n

    def test_accepts_large_primes(self):
        assert is_prime(2 ** 89 - 1) and is_prime(2 ** 127 - 1)
        # 2^128 - 159 is the largest prime below 2^128
        assert next(n for n in range(2 ** 128 - 1, 0, -2) if is_prime(n)) \
            == 2 ** 128 - 159

    def test_agrees_with_a_sieve(self):
        sieve = [True] * 10 ** 5
        sieve[0] = sieve[1] = False
        for i in range(2, 317):
            if sieve[i]:
                sieve[i * i::i] = [False] * len(range(i * i, 10 ** 5, i))
        assert [is_prime(n) for n in range(10 ** 5)] == sieve

    def test_strong_lucas_pseudoprimes(self):
        # Below 5 * 10^4 the strong Lucas test with Selfridge's parameters
        # passes every prime and exactly these composites (OEIS A217255).
        candidates = [n for n in range(43, 5 * 10 ** 4, 2)
                      if all(n % p for p in fields._MR_BASES)]
        passed = [n for n in candidates if fields._is_strong_lucas_prp(n)]
        assert [n for n in passed if not is_prime(n)] == [
            5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309]
        assert [n for n in candidates if is_prime(n)] \
            == [n for n in passed if is_prime(n)]


class TestRationals:
    F = Rationals()

    def test_arithmetic(self):
        F = self.F
        a, b = Fraction(3, 4), Fraction(-2, 5)
        assert F.add(a, b) == Fraction(7, 20)
        assert F.mul(a, F.inv(a)) == F.one
        assert F.div(a, b) == Fraction(-15, 8)

    def test_sqrt(self):
        assert self.F.sqrt(Fraction(9, 4)) == Fraction(3, 2)
        assert self.F.sqrt(Fraction(2)) is None
        assert self.F.sqrt(Fraction(-1)) is None

    def test_poly_gcd_matches_the_prs(self, monkeypatch):
        # The modular shortcut answers only gcd 1; with it and without it
        # (no primes to try) the gcd is the same, with and without a planted
        # common factor.
        rng = random.Random(14)
        F = self.F

        def draw(deg):
            return [Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))
                    for _ in range(deg)] + [Fraction(rng.randrange(1, 9))]

        cases = []
        for _ in range(40):
            a, b, h = draw(rng.randrange(0, 6)), draw(rng.randrange(0, 6)), draw(2)
            cases += [(a, b), (F.poly_mul(a, h), F.poly_mul(b, h))]
        with_shortcut = [F.poly_gcd(a, b) for a, b in cases]
        monkeypatch.setattr(fields, "_GCD_FIELDS", ())
        assert with_shortcut == [F.poly_gcd(a, b) for a, b in cases]
        assert sum(len(g) > 1 for g in with_shortcut) >= 40

    def test_poly_mul_matches_the_generic_loop(self):
        # products over Z with one division per coefficient, against the
        # Field loop over Fraction elements; zero coefficients included
        rng = random.Random(15)
        for _ in range(200):
            a, b = ([Fraction(rng.randrange(-9, 10), rng.randrange(1, 13))
                     for _ in range(rng.randrange(0, 8))]
                    + [Fraction(rng.randrange(1, 9))] for _ in range(2))
            product = self.F.poly_mul(a, b)
            assert product == fields.Field.poly_mul(self.F, a, b)
            assert all(type(c) is Fraction for c in product)
        assert self.F.poly_mul([], [Fraction(1)]) == []

    def test_json(self):
        assert self.F.elem_to_json(Fraction(-3, 7)) == "-3/7"
        assert self.F.elem_from_json("-3/7") == Fraction(-3, 7)
        assert field_make(self.F.to_json()) == self.F

    @pytest.mark.parametrize("obj", [1.5, "1/2/3", "1/0", "-3/0", True, [1]])
    def test_json_refuses_what_is_not_a_rational(self, obj):
        with pytest.raises(ValueError):
            self.F.elem_from_json(obj)


class TestPrimeField:
    def test_rejects_bad_modulus(self):
        with pytest.raises(FieldError):
            PrimeField(2)
        with pytest.raises(FieldError):
            PrimeField(15)

    def test_arithmetic(self):
        F = PrimeField(11)
        assert F.add(7, 8) == 4
        assert F.mul(F.inv(3), 3) == 1
        assert F.pow_el(2, -1) == F.inv(2)

    def test_sqrt_all_elements(self):
        for p in (11, 13, 29):
            F = PrimeField(p)
            squares = {F.mul(a, a) for a in F.elements()}
            for a in F.elements():
                s = F.sqrt(a)
                if a in squares:
                    assert s is not None and F.mul(s, s) == a
                    assert s == F.canonical_min(s)
                else:
                    assert s is None

    def test_canonical_min(self):
        F = PrimeField(11)
        assert F.canonical_min(8) == 3
        assert F.canonical_min(3) == 3


class TestExtField:
    def test_modulus_validation(self):
        with pytest.raises(FieldError):
            ExtField(3, 2, modulus=[0, 0, 1])  # x^2 is reducible
        F = ExtField(3, 2)
        assert F.order == 9

    def test_linear_modulus_is_irreducible(self):
        for c in range(3):
            F = ExtField(3, 1, modulus=[c, 1])
            assert [F.mul(a, b) for a in (1, 2) for b in (1, 2)] == [1, 2, 2, 1]
        assert field_make({"kind": "GF", "p": 11, "m": 1, "modulus": [1, 1]}).order == 11
        with pytest.raises(FieldError):
            ExtField(3, 2, modulus=[2, 0, 1])  # x^2 - 1 = (x - 1)(x + 1)
        with pytest.raises(FieldError):
            ExtField(5, 2, modulus=[6, 5, 1])  # x^2 + 1 has the roots 2, 3

    def test_arithmetic_and_inverse(self):
        F = ExtField(5, 3)
        for a in range(1, F.order):
            assert F.mul(a, F.inv(a)) == F.one

    def test_sqrt_all_elements(self):
        F = ExtField(3, 2)
        squares = {F.mul(a, a) for a in F.elements()}
        for a in F.elements():
            s = F.sqrt(a)
            if a in squares:
                assert s is not None and F.mul(s, s) == a
            else:
                assert s is None

    def test_index_roundtrip_and_json(self):
        F = ExtField(3, 3)
        for i in (0, 1, 5, 26):
            assert F.elem_from_json(F.elem_to_json(i)) == i
        assert field_make(F.to_json()) == F

    def test_embed_is_homomorphism(self):
        F = ExtField(7, 2)
        for a in range(7):
            for b in range(7):
                assert F.add(F.coerce(a), F.coerce(b)) == F.coerce((a + b) % 7)
                assert F.mul(F.coerce(a), F.coerce(b)) == F.coerce(a * b % 7)


class TestTableField:
    """Exp/log/Zech tables against the untabled path on the same field."""

    @staticmethod
    def _twins(p, m, monkeypatch):
        F = ExtField(p, m)
        with monkeypatch.context() as mp:
            mp.setattr(fields, "_TABLE_MAX", 0)
            K = ExtField(p, m, modulus=F.modulus)
        assert F._log is not None and K._log is None
        return F, K

    @staticmethod
    def _agree(F, K, pairs):
        q = F.order
        for a in sorted({a for pair in pairs for a in pair}):
            for name in ("neg", "sqrt", "canonical_min"):
                assert getattr(F, name)(a) == getattr(K, name)(a), (name, a)
            if a:
                assert F.inv(a) == K.inv(a), a
            for e in (0, 1, 2, 5, (q - 1) // 2, q - 1, q, -1, -7):
                if a or e >= 0:
                    assert F.pow_el(a, e) == K.pow_el(a, e), (a, e)
        for a, b in pairs:
            for name in ("add", "sub", "mul"):
                assert getattr(F, name)(a, b) == getattr(K, name)(a, b), (name, a, b)

    @pytest.mark.parametrize("p, m", [(3, 4), (5, 3)])
    def test_every_pair(self, p, m, monkeypatch):
        F, K = self._twins(p, m, monkeypatch)
        self._agree(F, K, [(a, b) for a in F.elements() for b in F.elements()])

    @pytest.mark.parametrize("p, m", [(29, 2), (11, 3)])
    def test_seeded_pairs(self, p, m, monkeypatch):
        F, K = self._twins(p, m, monkeypatch)
        rng = random.Random(f"{p}^{m}")
        pairs = [(rng.randrange(F.order), rng.randrange(F.order)) for _ in range(2000)]
        self._agree(F, K, pairs + [(0, 0), (1, F.neg(1)), (5, 0), (0, 5)])

    def test_zero_has_no_inverse(self, monkeypatch):
        for F in self._twins(3, 4, monkeypatch):
            with pytest.raises(ZeroDivisionError):
                F.inv(F.zero)
            with pytest.raises(ZeroDivisionError):
                F.pow_el(F.zero, -1)

    def test_above_table_limit(self):
        F = ExtField(97, 2)
        assert F.order > fields._TABLE_MAX
        assert F.elem_to_json(3 + 5 * 97) == [3, 5]
        rng = random.Random(97)
        for _ in range(30):
            a = rng.randrange(1, F.order)
            n = order_from_multiple(F.order - 1, lambda m: F.pow_el(a, m) == F.one)
            assert (F.order - 1) % n == 0 and F.pow_el(a, n) == F.one
            assert all(F.pow_el(a, n // r) != F.one for r in fields.factorize(n))
            s = F.sqrt(F.mul(a, a))
            assert s in (a, F.neg(a)) and s == F.canonical_min(s)
            assert F.mul(a, F.inv(a)) == F.one
            assert F.elem_from_json(json.loads(json.dumps(F.elem_to_json(a)))) == a

    def test_table_cache_is_bounded(self):
        tables = fields._build_tables
        tables.cache_clear()
        moduli = _irreducible_quadratics(7)[:17]
        for modulus in moduli:
            ExtField(7, 2, modulus=modulus)
        assert tables.cache_info()[1:] == (17, 16, 16)     # misses, maxsize, size
        ExtField(7, 2, modulus=moduli[-1])      # kept
        ExtField(7, 2, modulus=moduli[0])       # the least recently used, dropped
        assert tables.cache_info()[:2] == (1, 18)


class TestFieldEquality:
    # A field compares and hashes by its value: Q, GF(p) by p, and GF(p^m)
    # by p and modulus, however it was built.
    @staticmethod
    def table():
        gf9 = ExtField(3, 2)
        return [
            (Rationals(), Rationals(), True),
            (PrimeField(11), PrimeField(11), True),
            (PrimeField(11), PrimeField(13), False),
            (Rationals(), PrimeField(5), False),
            (ExtField(7, 1), PrimeField(7), False),
            (gf9, ExtField(3, 2, modulus=list(gf9.modulus)), True),
            (gf9, field_make({"kind": "GF", "p": 3, "m": 2,
                              "modulus": list(gf9.modulus)}), True),
            (ExtField(3, 2, modulus=[1, 0, 1]), ExtField(3, 2, modulus=[2, 1, 1]), False),
            (ExtField(3, 2), ExtField(5, 2), False),
        ]

    def test_equality_and_hash(self):
        for a, b, equal in self.table():
            assert (a == b, b == a, a != b) == (equal, equal, not equal), (a, b)
            if equal:
                assert hash(a) == hash(b), (a, b)

    def test_a_field_is_no_number(self):
        for F in (Rationals(), PrimeField(11), ExtField(3, 2)):
            assert F != 11 and 11 != F and F != "Q"

    def test_polys_over_unequal_fields_differ(self):
        assert Poly(PrimeField(11), [1]) != Poly(PrimeField(13), [1])
        assert Poly(PrimeField(11), [1]) == Poly(PrimeField(11), [1])

    def test_fields_as_dict_keys(self):
        keys = {Rationals(): "Q", PrimeField(11): "GF(11)", ExtField(3, 2): "GF(9)",
                ExtField(7, 1): "GF(7^1)", PrimeField(7): "GF(7)"}
        assert len(keys) == 5
        modulus = list(ExtField(3, 2).modulus)
        assert [keys[F] for F in (Rationals(), PrimeField(11),
                                  ExtField(3, 2, modulus=modulus),
                                  ExtField(7, 1), PrimeField(7))] \
            == ["Q", "GF(11)", "GF(9)", "GF(7^1)", "GF(7)"]
        assert PrimeField(13) not in keys


def test_order_from_multiple_matches_brute_force():
    for F in (PrimeField(13), ExtField(3, 4)):
        for a in range(1, F.order):
            brute, acc = 1, a
            while acc != F.one:
                acc, brute = F.mul(acc, a), brute + 1
            assert order_from_multiple(
                F.order - 1, lambda m: F.pow_el(a, m) == F.one) == brute, (F, a)


def _irreducible_quadratics(p):
    """The monic irreducible x^2 + bx + c over GF(p), as lists [c, b, 1]."""
    return [[c, b, 1] for b in range(p) for c in range(p)
            if fields._is_irreducible([c, b, 1], p)]


def test_found_modulus_is_tested_once(monkeypatch):
    # A process searches each (p, m, seed) once: a second ExtField of it
    # tests no candidate and gets the same modulus.
    calls = []
    is_irreducible = fields._is_irreducible

    def counted(modulus, p):
        calls.append(tuple(modulus))
        return is_irreducible(modulus, p)

    monkeypatch.setattr(fields, "_is_irreducible", counted)
    fields.find_irreducible.cache_clear()
    for p, m, seed in ((3, 4, 0), (5, 3, 1), (29, 2, 3), (7, 1, 0)):
        first = ExtField(p, m, seed=seed).modulus
        assert calls or m == 1, (p, m)
        calls.clear()
        assert ExtField(p, m, seed=seed).modulus == first
        assert calls == [], (p, m)


def _monic(p, degree):
    for low in itertools.product(range(p), repeat=degree):
        yield list(low) + [1]


@pytest.mark.parametrize("p", [3, 5])
def test_ben_or_matches_factor_search(p):
    # f is reducible exactly when a monic polynomial of degree <= m/2
    # divides it
    F = PrimeField(p)
    for m in range(1, 5):
        divisors = [d for k in range(1, m // 2 + 1) for d in _monic(p, k)]
        for f in _monic(p, m):
            reducible = any(not F.poly_divmod(f, d)[1] for d in divisors)
            assert fields._is_irreducible(f, p) == (not reducible), f


def test_find_irreducible_keeps_its_moduli():
    # The moduli the search returned when it tested candidates by Rabin's
    # test, for p in {3, 5, 7, 11, 13, 29}, m <= 8 and seeds 0-4, and for
    # GF(13^32) at seed 1: an exact test takes the same first irreducible
    # candidate of the same seeded stream.
    fields.find_irreducible.cache_clear()
    grid = json.loads((Path(__file__).parent / "moduli_grid.json").read_text())
    assert len(grid) == 6 * 8 * 5 + 1
    for key, modulus in grid.items():
        p, m, seed = map(int, key.split(","))
        assert find_irreducible(p, m, seed=seed) == tuple(modulus), key


class TestFieldMemos:
    def test_reducible_user_modulus_still_raises(self):
        for seed in (0, 1):
            ExtField(3, 2, seed=seed)
        with pytest.raises(FieldError, match="reducible"):
            ExtField(3, 2, modulus=[2, 0, 1])
        with pytest.raises(FieldError, match="reducible"):
            field_make({"kind": "GF", "p": 3, "m": 2, "modulus": [2, 0, 1]})

    def test_seeds_keep_their_own_moduli(self):
        fields.find_irreducible.cache_clear()
        seeds = range(5)
        first = [ExtField(13, 4, seed=s).modulus for s in seeds]
        assert len(set(first)) == len(first)
        again = [ExtField(13, 4, seed=s).modulus for s in reversed(seeds)]
        assert again[::-1] == first
        assert fields.find_irreducible.cache_info()[:2] == (5, 5)  # hits, misses

    def test_memos_are_bounded_and_keyed_on_value(self):
        per_field = (fields._build_tables, fields.nth_roots_of_unity,
                     fields._nonresidue, families.eta_roots)
        for memo in (fields.find_irreducible,) + per_field:
            memo.cache_clear()
        for seed in range(17):
            find_irreducible(7, 2, seed=seed)
        assert fields.find_irreducible.cache_info()[1:] == (17, 16, 16)
        # GF(49) has square roots by Tonelli-Shanks and cube roots of unity
        built = [ExtField(7, 2, modulus=m) for m in _irreducible_quadratics(7)[:17]]
        for F in built:
            eta_roots(F, 3)
            F.sqrt(F.one)
        # a field built again from its modulus hits the memos
        again = ExtField(7, 2, modulus=built[-1].modulus)
        eta_roots(again, 3)
        nth_roots_of_unity(again, 3)
        again.sqrt(again.one)
        for memo in per_field:                  # hits, misses, maxsize, size
            assert memo.cache_info() == (1, 17, 16, 16), memo
        assert fields._nonresidue(again) == fields._nonresidue.__wrapped__(built[-1])
        # the least recently used field was dropped
        eta_roots(built[0], 3)
        assert families.eta_roots.cache_info()[:2] == (1, 18)

    def test_callers_cannot_mutate_cached_values(self):
        # each memoized fact is handed out as its cached tuple of ints
        F = ExtField(3, 4)
        for fact in (lambda: nth_roots_of_unity(F, 5), lambda: eta_roots(F, 5),
                     lambda: find_irreducible(3, 4), lambda: find_irreducible(3, 1)):
            value = fact()
            assert type(value) is tuple and all(type(c) is int for c in value)
            with pytest.raises(TypeError):
                value[0] = value[-1]
            assert fact() is value


def test_find_irreducible_deterministic():
    assert find_irreducible(5, 4, seed=1) == find_irreducible(5, 4, seed=1)
    assert len(find_irreducible(5, 4)) == 5


class TestRootsOfUnity:
    def test_gf11_order5(self):
        F = PrimeField(11)
        assert nth_roots_of_unity(F, 5) == (3, 9, 5, 4)

    def test_orders(self):
        F = ExtField(3, 4)
        roots = nth_roots_of_unity(F, 5)
        assert len(roots) == 4
        for z in roots:
            assert F.pow_el(z, 5) == F.one and z != F.one

    def test_insufficient_field_reports_degree(self):
        with pytest.raises(InsufficientFieldError) as exc:
            nth_roots_of_unity(PrimeField(29), 5)
        assert exc.value.extension_degree == 2
        with pytest.raises(InsufficientFieldError) as exc:
            nth_roots_of_unity(PrimeField(11), 7)
        assert exc.value.extension_degree == 3
        with pytest.raises(InsufficientFieldError) as exc:
            nth_roots_of_unity(Rationals(), 5)
        assert exc.value.extension_degree == 4  # phi(5)

    @staticmethod
    def scan(F, n):
        """M(n) as powers of the least-index element of order n, found by
        walking the field."""
        zeta = next(z for z in F.elements() if F.pow_el(z, n) == F.one
                    and all(F.pow_el(z, k) != F.one for k in range(1, n)))
        roots, acc = [], F.one
        for _ in range(n - 1):
            acc = F.mul(acc, zeta)
            roots.append(acc)
        return tuple(roots)

    def test_matches_the_scan(self):
        checked = 0
        for F in (PrimeField(11), PrimeField(29), PrimeField(31), PrimeField(43),
                  ExtField(29, 2), ExtField(11, 3), ExtField(3, 4), ExtField(5, 2)):
            for n in (3, 5, 7, 9, 11, 13, 15, 21, 25):
                if n % F.char and (F.order - 1) % n == 0:
                    assert nth_roots_of_unity(F, n) == self.scan(F, n), (F, n)
                    checked += 1
        assert checked == 17

    def test_char_divides_rejected(self):
        with pytest.raises(FieldError):
            nth_roots_of_unity(PrimeField(5), 15)
