import cmath
import math
import random
import signal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyptorsion import fields
from hyptorsion.fields import ExtField, Field, PrimeField, Rationals
from hyptorsion.polyring import Poly, diff_power, is_squarefree, poly_sqrt

F11 = PrimeField(11)
QQ = Rationals()

gf11_polys = st.lists(st.integers(0, 10), max_size=8).map(
    lambda cs: Poly(F11, cs))
q_fracs = st.tuples(st.integers(-30, 30), st.integers(1, 9)).map(
    lambda t: Fraction(t[0], t[1]))
q_polys = st.lists(q_fracs, max_size=6).map(lambda cs: Poly(QQ, cs))


class TestRing:
    @given(gf11_polys, gf11_polys, gf11_polys)
    def test_ring_axioms_gf(self, a, b, c):
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a - a == Poly.zero(F11)

    @given(gf11_polys, gf11_polys)
    @settings(max_examples=60)
    def test_divmod_gf(self, a, b):
        if b.is_zero:
            with pytest.raises(ZeroDivisionError):
                divmod(a, b)
            return
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.is_zero or r.degree < b.degree

    @given(q_polys, q_polys)
    @settings(max_examples=40)
    def test_divmod_q(self, a, b):
        if b.is_zero:
            return
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.is_zero or r.degree < b.degree

    @given(gf11_polys, gf11_polys)
    @settings(max_examples=60)
    def test_xgcd(self, a, b):
        g, s, t = a.xgcd(b)
        assert s * a + t * b == g
        if not g.is_zero:
            assert g.is_monic
            assert (a % g).is_zero and (b % g).is_zero

    @given(q_polys, q_polys)
    @settings(max_examples=30)
    def test_gcd_q_divides(self, a, b):
        g = a.gcd(b)
        if g.is_zero:
            assert a.is_zero and b.is_zero
        else:
            assert (a % g).is_zero and (b % g).is_zero
            assert g.is_monic

    def test_gcd_q_known(self):
        x = Poly.x(QQ)
        one = Poly.const(QQ, Fraction(1))
        a = (x - one) ** 2 * (x + one)
        b = (x - one) * (x + one) ** 3
        assert a.gcd(b) == (x - one) * (x + one)

    @given(gf11_polys, gf11_polys)
    @settings(max_examples=40)
    def test_derivative_product_rule(self, a, b):
        assert (a * b).derivative() == a.derivative() * b + a * b.derivative()


class TestSqrt:
    @given(gf11_polys)
    @settings(max_examples=80)
    def test_square_roundtrip(self, t):
        h = t * t
        r = poly_sqrt(h)
        assert r is not None and r * r == h
        if not t.is_zero:
            assert r.leading == F11.canonical_min(t.leading)

    def test_rejects_non_squares(self):
        x = Poly.x(F11)
        one = Poly.const(F11, 1)
        assert poly_sqrt(x) is None                      # odd valuation
        assert poly_sqrt(x * x * x) is None
        assert poly_sqrt(x * x + one) is None            # not a square
        two = Poly.const(F11, 2)                         # 2 is a non-residue mod 11
        assert poly_sqrt(two * (x + one) ** 2) is None

    def test_rational(self):
        t = Poly(QQ, [Fraction(1, 2), Fraction(-3), Fraction(2, 7)])
        assert poly_sqrt(t * t) == t


class TestSquarefree:
    def test_basic(self):
        x = Poly.x(QQ)
        one = Poly.const(QQ, Fraction(1))
        assert is_squarefree(x ** 5 + one)
        assert not is_squarefree((x - one) ** 2 * (x + one))

    def test_char_p_pth_power(self):
        F = PrimeField(5)
        x = Poly.x(F)
        assert not is_squarefree(x ** 5 + Poly.const(F, 1))  # (x+1)^5

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            is_squarefree(Poly.zero(QQ))

    def test_large_rational(self):
        # modular fast-accept path
        f = diff_power(QQ, 0, -1, 105)             # (x+1)^105 - x^105
        assert is_squarefree(f)
        assert not is_squarefree(f * diff_power(QQ, 0, -1, 5))

    def test_criterion_6_curve_needs_no_prs(self, monkeypatch):
        # Rationals.poly_gcd settles a gcd of 1 by modular images, so the
        # degree-105 curve of criterion 6 never reaches the integer PRS.
        from hyptorsion import fields
        from hyptorsion.families import rational_four_torsion
        C = rational_four_torsion(52)[0]

        def prem(a, b):
            raise AssertionError("the PRS ran")

        monkeypatch.setattr(fields, "_zz_prem", prem)
        assert C.f.degree == 105 and is_squarefree(C.f)


class TestPow:
    def test_matches_repeated_multiplication(self):
        for F in (F11, ExtField(3, 2)):
            p = Poly(F, [2, 3, F.one])
            expected = Poly.const(F, F.one)
            for e in range(21):
                assert p ** e == expected
                expected = expected * p

    def test_linear_base_matches_repeated_multiplication(self):
        F9, F5 = ExtField(3, 2), PrimeField(5)
        cases = [(QQ, [Fraction(-2, 3), Fraction(5, 7)], 12),
                 (F11, [3, 1], 20), (F11, [0, 7], 20), (QQ, [0, 1], 6),
                 (F9, [5, 7], 20),
                 (F5, [2, 3], 25), (F5, [1, 1], 30)]   # C(25, k) = 0 mod 5, 0 < k < 25
        for F, coeffs, top in cases:
            p = Poly(F, coeffs)
            expected = Poly.const(F, F.one)
            for e in range(top + 1):
                assert p ** e == expected, (F, coeffs, e)
                expected = expected * p

    def test_no_square_after_last_bit(self, monkeypatch):
        calls = []
        mul = Poly.__mul__

        def counting_mul(a, b):
            calls.append((a.degree, b.degree))
            return mul(a, b)

        monkeypatch.setattr(Poly, "__mul__", counting_mul)
        Poly(F11, [1, 1, 1]) ** 9  # 9 = 0b1001: three squarings, two products
        assert len(calls) == 5 and (16, 16) not in calls


class TestCyclotomic:
    """Psi_d(x) = x^phi(d) Phi_d(1 + 1/x), the factors of (x+1)^n - x^n that
    the rational construction splits."""

    def test_product_identity(self):
        from hyptorsion.families import _psi_factors
        from hyptorsion.numth import divisors, totient
        for n in (3, 15, 105, 165, 585):
            psi = _psi_factors(n)
            assert sorted(psi) == divisors(n)[1:]
            prod = Poly.const(QQ, QQ.one)
            for d, coeffs in psi.items():
                assert len(coeffs) - 1 == totient(d), (n, d)
                prod = prod * Poly.from_ints(QQ, coeffs)
            assert prod == diff_power(QQ, 0, -1, n), n
        # apart from the divisions: Psi_d vanishes at 1/(eps - 1) for each
        # primitive d-th root of unity eps
        for d, coeffs in _psi_factors(15).items():
            for k in range(1, d):
                if math.gcd(k, d) == 1:
                    eta = 1 / (cmath.exp(2j * cmath.pi * k / d) - 1)
                    assert abs(sum(c * eta ** i for i, c in enumerate(coeffs))) < 1e-6

    def test_degrees(self):
        from hyptorsion.families import _psi_factors
        from hyptorsion.numth import totient
        for n in (3, 5, 7, 105, 165):
            assert len(_psi_factors(n)[n]) - 1 == totient(n), n

    def test_exact_division_checks_survive_optimize(self, run_optimized):
        out = run_optimized("""
            from hyptorsion.families import _zz_divmod_exact
            for a, b in (([0, 3], [1, 2]), ([1, 0, 1], [1, 1])):
                try:
                    print(_zz_divmod_exact(a, b))
                except Exception as exc:
                    print(type(exc).__name__, exc)
        """)
        assert out == [
            "ValueError integer polynomial division is not exact",
            "ValueError integer polynomial division leaves a remainder",
        ]


class TestDiffPower:
    def test_example(self):
        f = diff_power(F11, 0, 10, 5)  # (x+1)^5 - x^5 over GF(11)
        assert f == Poly(F11, [1, 5, 10, 10, 5])

    def test_validation(self):
        with pytest.raises(ValueError):
            diff_power(F11, 3, 3, 5)
        with pytest.raises(ValueError):
            diff_power(F11, 0, 1, 4)


# -- the fields' polynomial arithmetic ------------------------------------------

POLY_FIELDS = {
    "GF(11)": lambda: F11,
    "GF(10007)": lambda: PrimeField(10007),
    "GF(3^4)": lambda: ExtField(3, 4),
    "GF(3^4)-untabled": lambda: ExtField(3, 4),     # built with _TABLE_MAX = 0
    "GF(97^2)": lambda: ExtField(97, 2),
    "Q": lambda: QQ,
}


@pytest.fixture(params=list(POLY_FIELDS))
def poly_field(request, monkeypatch):
    with monkeypatch.context() as mp:
        if request.param.endswith("untabled"):
            mp.setattr(fields, "_TABLE_MAX", 0)
        F = POLY_FIELDS[request.param]()
    assert (getattr(F, "_log", None) is None) == (request.param != "GF(3^4)")
    return F


def _elem(F, rng, nonzero=False):
    while True:
        a = (rng.randrange(F.order) if F.is_finite
             else Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
        if a != F.zero or not nonzero:
            return a


def _operands(F, seed):
    """Trimmed operands (zero, constants, random polynomials with zero
    coefficients mixed in, a negation and two products with a common factor)
    and untrimmed ones (trailing zeros, the zero polynomial among them)."""
    rng = random.Random(seed)
    trimmed = [[], [F.one], [_elem(F, rng, nonzero=True)]]
    for deg in range(1, 7):
        trimmed.append([_elem(F, rng) if rng.random() < 0.7 else F.zero
                        for _ in range(deg)] + [_elem(F, rng, nonzero=True)])
    trimmed.append([F.neg(c) for c in trimmed[-1]])
    for other in trimmed[5:7]:
        trimmed.append(Field.poly_mul(F, trimmed[4], other))
    untrimmed = [[F.zero], [F.zero, F.zero]]
    untrimmed += [a + [F.zero] * rng.randint(1, 2) for a in trimmed[1:6]]
    return trimmed, untrimmed


def _lists(r):
    return [_lists(x) for x in r] if isinstance(r, (list, tuple)) else r


def _trim(a, zero):
    a = list(a)
    while a and a[-1] == zero:
        a.pop()
    return a


class TestFieldPolyArithmetic:
    """Every field's poly_* methods: Q's override against the generic loops
    of the Field base class, and the generic loops against their contract."""

    # Q's poly_gcd is the one override of a generic body.
    @pytest.mark.parametrize("poly_field", ["Q"], indirect=True)
    def test_overrides_match_generic_bodies(self, poly_field):
        F = poly_field
        trimmed, untrimmed = _operands(F, repr(F))
        xs = [F.zero, F.one, _elem(F, random.Random(1), nonzero=True)]

        def agree(name, *args):
            got, want = getattr(F, name)(*args), getattr(Field, name)(F, *args)
            assert _lists(got) == _lists(want), (name, args)
            return got

        for a in trimmed:
            for x in xs:
                agree("poly_eval", a, x)
            for b in trimmed:
                for name in ("poly_add", "poly_sub", "poly_mul", "poly_gcd",
                             "poly_xgcd"):
                    agree(name, a, b)
                if b:
                    agree("poly_divmod", a, b)
        for a in untrimmed:
            for x in xs:
                agree("poly_eval", a, x)
            for b in trimmed + untrimmed:
                for name in ("poly_add", "poly_sub", "poly_mul"):
                    for args in ((a, b), (b, a)):
                        got = getattr(F, name)(*args)
                        want = getattr(Field, name)(F, *args)
                        assert _trim(got, F.zero) == _trim(want, F.zero), (name, args)
            for b in trimmed[1:]:
                got, want = F.poly_divmod(a, b), Field.poly_divmod(F, a, b)
                assert ([_trim(r, F.zero) for r in got]
                        == [_trim(r, F.zero) for r in want]), (a, b)

    def test_division_by_zero_raises(self, poly_field):
        F = poly_field
        trimmed, untrimmed = _operands(F, 7)
        for a in trimmed + untrimmed:
            for divmod_ in (F.poly_divmod, lambda a, b: Field.poly_divmod(F, a, b)):
                with pytest.raises(ZeroDivisionError):
                    divmod_(a, [])

    def test_xgcd_is_monic_bezout(self, poly_field):
        F = poly_field
        trimmed, _ = _operands(F, 11)
        for a in trimmed:
            for b in trimmed:
                g, s, t = F.poly_xgcd(a, b)
                g = list(g)
                assert not g or g[-1] == F.one, (a, b)
                bezout = Field.poly_add(F, Field.poly_mul(F, s, a),
                                        Field.poly_mul(F, t, b))
                assert bezout == g, (a, b)
                if g:
                    for c in (a, b):
                        assert Field.poly_divmod(F, c, g)[1] == [], (c, g)

    @pytest.mark.parametrize("p", [3, 11, 2 ** 31 - 1])
    def test_kernels_outside_poly_methods(self, p):
        """The modular operations that field construction and untabled
        GF(p^m) elements call, poly_mulmod, poly_powmod and poly_invmod over
        GF(p), against a recursive reference on the generic loops."""
        F = PrimeField(p)
        trimmed, _ = _operands(F, p)
        moduli = [m for m in trimmed if len(m) > 1]

        def mulmod(a, b, m):
            return Field.poly_divmod(F, Field.poly_mul(F, a, b), m)[1]

        def powmod(a, e, m):
            if not e:
                return [F.one]
            half = powmod(a, e // 2, m)
            r = mulmod(half, half, m)
            return mulmod(r, a, m) if e & 1 else r

        inverted = refused = 0
        for a in trimmed:
            for m in moduli:
                for b in trimmed:
                    assert F.poly_mulmod(a, b, m) == mulmod(a, b, m), (a, b, m)
                for e in (0, 1, 2, 7, p - 1, p ** 3 + 5):
                    assert F.poly_powmod(a, e, m) == powmod(a, e, m), (a, e, m)
                if Field.poly_gcd(F, a, m) == [F.one]:
                    inv = F.poly_invmod(a, m)
                    assert len(inv) < len(m) and mulmod(a, inv, m) == [F.one], (a, m)
                    inverted += 1
                else:
                    with pytest.raises(ZeroDivisionError):
                        F.poly_invmod(a, m)
                    refused += 1
            for name, args in (("poly_mulmod", (a, a)), ("poly_powmod", (a, 2)),
                               ("poly_invmod", (a,))):
                with pytest.raises(ZeroDivisionError):
                    getattr(F, name)(*args, [])
        assert inverted and refused

    def test_invmod_of_an_untrimmed_operand_raises(self):
        """[1, 0], 1 + 0*x with a trailing zero, is no divisor: its zero
        leading coefficient must raise at once, not leave a division loop
        that never shrinks the remainder."""
        def stuck(signum, frame):
            raise TimeoutError("poly_invmod did not return within 10 s")

        previous = signal.signal(signal.SIGALRM, stuck)
        signal.alarm(10)
        try:
            with pytest.raises(ZeroDivisionError):
                PrimeField(5).poly_invmod([1, 0], [1, 0, 1])
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    def test_tables_do_not_change_polynomials(self, monkeypatch):
        F = ExtField(3, 4)
        with monkeypatch.context() as mp:
            mp.setattr(fields, "_TABLE_MAX", 0)
            K = ExtField(3, 4, modulus=F.modulus)
        trimmed, _ = _operands(F, 3)
        for a in trimmed:
            assert F.poly_eval(a, 5) == K.poly_eval(a, 5)
            for b in trimmed:
                for name in ("poly_add", "poly_sub", "poly_mul", "poly_xgcd"):
                    assert (_lists(getattr(F, name)(a, b))
                            == _lists(getattr(K, name)(a, b))), (name, a, b)
                if b:
                    assert F.poly_divmod(a, b) == K.poly_divmod(a, b)
