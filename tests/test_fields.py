import json
import random
from fractions import Fraction

import pytest

from hyptorsion import fields
from hyptorsion.fields import (ExtField, FieldError, InsufficientFieldError,
                               PrimeField, Rationals, field_make,
                               find_irreducible, is_prime, nth_roots_of_unity)


def test_is_prime():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert is_prime(2 ** 61 - 1)
    assert not is_prime(2 ** 67 - 1)


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

    def test_json(self):
        assert self.F.elem_to_json(Fraction(-3, 7)) == "-3/7"
        assert self.F.elem_from_json("-3/7") == Fraction(-3, 7)
        assert field_make(self.F.to_json()) == self.F


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
        with pytest.raises(FieldError):
            ExtField(3, 2, modulus=[2, 0, 1])  # x^2 - 1 = (x - 1)(x + 1)
        with pytest.raises(FieldError):
            ExtField(5, 2, modulus=[6, 5, 1])  # x^2 + 1 has the roots 2, 3

    def test_arithmetic_and_inverse(self):
        F = ExtField(5, 3)
        for i in range(1, F.order):
            a = F.from_index(i)
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
            a = F.from_index(i)
            assert F.to_index(a) == i
            assert F.elem_from_json(F.elem_to_json(a)) == a
        assert field_make(F.to_json()) == F

    def test_embed_is_homomorphism(self):
        F = ExtField(7, 2)
        for a in range(7):
            for b in range(7):
                assert F.add(F.embed(a), F.embed(b)) == F.embed((a + b) % 7)
                assert F.mul(F.embed(a), F.embed(b)) == F.embed(a * b % 7)


class TestTableField:
    """Exp/log/Zech tables against the kernel path on the same field."""

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
            n = F.multiplicative_order(a)
            assert (F.order - 1) % n == 0 and F.pow_el(a, n) == F.one
            assert all(F.pow_el(a, n // r) != F.one for r in fields.factorize(n))
            s = F.sqrt(F.mul(a, a))
            assert s in (a, F.neg(a)) and s == F.canonical_min(s)
            assert F.mul(a, F.inv(a)) == F.one
            assert F.elem_from_json(json.loads(json.dumps(F.elem_to_json(a)))) == a

    def test_table_cache_is_bounded(self, monkeypatch):
        monkeypatch.setattr(fields, "_TABLES", {})
        monkeypatch.setattr(fields, "_TABLES_KEPT", 2)
        moduli = [(1, 0, 1), (2, 1, 1), (2, 2, 1)]   # the irreducible x^2 + bx + c
        for modulus in moduli:
            ExtField(3, 2, modulus=modulus)
        assert list(fields._TABLES) == [(3, m) for m in moduli[1:]]


def test_find_irreducible_deterministic():
    assert find_irreducible(5, 4, seed=1) == find_irreducible(5, 4, seed=1)
    assert len(find_irreducible(5, 4)) == 5


class TestRootsOfUnity:
    def test_gf11_order5(self):
        F = PrimeField(11)
        assert nth_roots_of_unity(F, 5) == [3, 9, 5, 4]

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

    def test_char_divides_rejected(self):
        with pytest.raises(FieldError):
            nth_roots_of_unity(PrimeField(5), 15)
