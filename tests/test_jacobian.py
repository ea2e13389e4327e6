import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyptorsion import acceptance, jacobian
from hyptorsion.fields import ExtField, PrimeField, Rationals, factorize
from hyptorsion.jacobian import (AffinePoint, Curve, DegreeError,
                                 MumfordDivisor, NotMonicError,
                                 NotSquarefreeError, cantor_add, embed,
                                 exact_order, identity, involution, neg,
                                 points_with_x, scalar_mul)
from hyptorsion.polyring import Poly
from hyptorsion.torsion import make_single

import test_cli_digests

F11 = PrimeField(11)
C_X5_1 = Curve(F11, 2, Poly.from_ints(F11, [1, 0, 0, 0, 0, 1]))
F81 = ExtField(3, 4)
C_G4_F81 = Curve(F81, 4, Poly(F81, [2, 1] + [0] * 7 + [1]))  # x^9 + x + 2


def _divisors(C, seed, count):
    """A few random sums of at most g affine points of C."""
    F = C.ctx
    rng = random.Random(seed)
    pts = [P for x0 in F.elements() for P in points_with_x(C, x0)]
    out = []
    for _ in range(count):
        D = identity(C)
        for _ in range(rng.randrange(1, C.g + 1)):
            D = cantor_add(C, D, embed(C, pts[rng.randrange(len(pts))]))
        out.append(D)
    return out


class TestCurve:
    def test_distinguished_errors(self):
        QQ = Rationals()
        x = Poly.x(QQ)
        one = Poly.const(QQ, QQ.one)
        with pytest.raises(DegreeError):
            Curve(QQ, 2, x ** 3 + one)
        with pytest.raises(NotMonicError):
            Curve(QQ, 1, (x ** 3 + one).scale(QQ.coerce(2)))
        with pytest.raises(NotSquarefreeError):
            Curve(QQ, 1, (x - one) ** 2 * (x + one))

    def test_valid_examples(self):
        F5 = PrimeField(5)
        Curve(F5, 2, Poly.from_ints(F5, [1, 2, 1, 0, 0, 1]))  # x^5 + (x+1)^2


class TestPoints:
    def test_points_with_x(self):
        assert {(P.x, P.y) for P in points_with_x(C_X5_1, 0)} == {(0, 1), (0, 10)}
        assert [(P.x, P.y) for P in points_with_x(C_X5_1, 10)] == [(10, 0)]
        assert [(P.x, P.y) for P in points_with_x(C_X5_1, 2)] == [(2, 0)]  # 2^5+1=33


class TestMumford:
    def test_embed_and_identity(self):
        D = embed(C_X5_1, AffinePoint(0, 1))
        assert D.u == Poly.from_ints(F11, [0, 1]) and D.v == Poly.from_ints(F11, [1])
        w = embed(C_X5_1, AffinePoint(10, 0))
        assert cantor_add(C_X5_1, w, w).is_identity  # Weierstrass has order 2
        assert neg(C_X5_1, w) == w

    def test_invariant_validation(self):
        with pytest.raises(Exception):
            MumfordDivisor(C_X5_1, Poly.from_ints(F11, [0, 1]),
                           Poly.from_ints(F11, [5]))

    def test_embed_involution_is_neg(self):
        for x0 in range(11):
            for P in points_with_x(C_X5_1, x0):
                D = embed(C_X5_1, P)
                Di = embed(C_X5_1, involution(P, F11))
                assert cantor_add(C_X5_1, D, Di).is_identity
                assert Di == neg(C_X5_1, D)


class TestGroupLaw:
    def test_example_order_5(self):
        D = embed(C_X5_1, AffinePoint(0, 1))
        assert scalar_mul(C_X5_1, 5, D).is_identity
        assert not scalar_mul(C_X5_1, 1, D).is_identity
        assert exact_order(C_X5_1, D, 5) == 5
        assert exact_order(C_X5_1, D, 3) is None
        assert exact_order(C_X5_1, identity(C_X5_1), 30) == 1

    def test_output_is_reduced_and_valid(self):
        rng = random.Random(3)
        pts = [P for x0 in range(11) for P in points_with_x(C_X5_1, x0)]
        for _ in range(100):
            D1 = embed(C_X5_1, pts[rng.randrange(len(pts))])
            D2 = embed(C_X5_1, pts[rng.randrange(len(pts))])
            D = cantor_add(C_X5_1, D1, D2)
            # re-validate all Mumford invariants from scratch
            MumfordDivisor(C_X5_1, D.u, D.v)
            assert D.u.degree <= 2


class TestScalarMul:
    @pytest.mark.parametrize("C", [C_X5_1, C_G4_F81], ids=["x5+1/GF11", "g4/GF81"])
    def test_matches_repeated_addition(self, C):
        for D in _divisors(C, 5, 3):
            multiples = {0: identity(C)}
            for n in range(1, 41):
                multiples[n] = cantor_add(C, multiples[n - 1], D)
            for n in range(1, 16):
                multiples[-n] = cantor_add(C, multiples[1 - n], neg(C, D))
            for n, expected in multiples.items():
                assert scalar_mul(C, n, D) == expected, n

    def test_identity_operand_returns_the_other(self):
        for C in (C_X5_1, C_G4_F81):
            O = identity(C)
            for D in _divisors(C, 7, 5) + [O]:
                assert cantor_add(C, D, O) == D
                assert cantor_add(C, O, D) == D

    def test_composition_count(self, monkeypatch):
        calls = []
        add = jacobian.cantor_add

        def counting(C, D1, D2):
            calls.append(1)
            return add(C, D1, D2)

        monkeypatch.setattr(jacobian, "cantor_add", counting)
        D = embed(C_X5_1, AffinePoint(0, 1))
        for n in range(-40, 41):
            del calls[:]
            scalar_mul(C_X5_1, n, D)
            m = abs(n)
            expected = m.bit_length() - 1 + bin(m).count("1") - 1 if m else 0
            assert len(calls) == expected, n


F13 = PrimeField(13)
C_G1_F13 = Curve(F13, 1, Poly.from_ints(F13, [3, 2, 0, 1]))  # x^3 + 2x + 3
C_G2_F13 = Curve(F13, 2, Poly.from_ints(F13, [2, 1, 0, 0, 0, 1]))  # x^5 + x + 2


def _up_to_frobenius_and_sign(C, pts):
    """One point of each orbit of x -> x^p and y -> -y.  f has coefficients
    in GF(p), so both maps are group automorphisms and keep every order."""
    F = C.ctx
    seen, reps = set(), []
    for P in pts:
        if (P.x, P.y) in seen:
            continue
        reps.append(P)
        x, y = P.x, P.y
        for _ in range(F.m):
            seen |= {(x, y), (x, F.neg(y))}
            x, y = F.pow_el(x, F.p), F.pow_el(y, F.p)
    return reps


def _order_up_to(C, D, limit):
    """The least k <= limit with k D = 0 by repeated addition, else None."""
    multiple = D
    for k in range(1, limit + 1):
        if multiple.is_identity:
            return k
        multiple = cantor_add(C, multiple, D)
    return None


class TestExactOrder:
    @pytest.mark.parametrize("C", [C_G1_F13, C_X5_1, C_G4_F81],
                             ids=["g1/GF13", "x5+1/GF11", "g4/GF81"])
    def test_matches_brute_force(self, C):
        pts = [P for x0 in C.ctx.elements() for P in points_with_x(C, x0)]
        rng = random.Random(17)
        sums = [cantor_add(C, embed(C, rng.choice(pts)), embed(C, rng.choice(pts)))
                for _ in range(10)]
        if C is C_G4_F81:
            # 60 exact_order calls on each of 153 points would be the slowest
            # unit test; one point of each of the 24 orbits keeps every order
            pts = _up_to_frobenius_and_sign(C, pts)
        for D in [embed(C, P) for P in pts] + sums + [identity(C)]:
            order = _order_up_to(C, D, 60)
            for n in range(1, 61):
                expected = order if order and n % order == 0 else None
                assert exact_order(C, D, n) == expected, (D, n)

    def test_kill_test_composition_count(self, monkeypatch):
        calls = []
        add = jacobian.cantor_add

        def counting(C, D1, D2):
            calls.append(1)
            return add(C, D1, D2)

        monkeypatch.setattr(jacobian, "cantor_add", counting)
        for D in _divisors(C_X5_1, 9, 3):
            for m in range(1, 80):
                del calls[:]
                jacobian._kills(C_X5_1, m, D)
                k = m // 2
                expected = (k.bit_length() - 1 + bin(k).count("1") - 1 + m % 2
                            if m >= 2 else 1)
                assert len(calls) == expected, m


def _elliptic_add(F, a4, a6, P, Q):
    """Textbook chord-tangent law on y^2 = x^3 + a4 x + a6; None is infinity."""
    if P is None:
        return Q
    if Q is None:
        return P
    (x1, y1), (x2, y2) = P, Q
    if x1 == x2 and F.add(y1, y2) == F.zero:
        return None
    if P == Q:
        lam = F.div(F.add(F.mul(F.coerce(3), F.mul(x1, x1)), a4),
                    F.mul(F.coerce(2), y1))
    else:
        lam = F.div(F.sub(y2, y1), F.sub(x2, x1))
    x3 = F.sub(F.sub(F.mul(lam, lam), x1), x2)
    y3 = F.sub(F.mul(lam, F.sub(x1, x3)), y1)
    return (x3, y3)


class TestGenusOneCrossCheck:
    def test_against_chord_tangent(self):
        F = PrimeField(13)
        a4, a6 = F.coerce(2), F.coerce(3)
        f = Poly.from_ints(F, [3, 2, 0, 1])
        C = Curve(F, 1, f)
        pts = [P for x0 in F.elements() for P in points_with_x(C, x0)]
        rng = random.Random(11)
        for _ in range(200):
            P = pts[rng.randrange(len(pts))]
            Q = pts[rng.randrange(len(pts))]
            expected = _elliptic_add(F, a4, a6, (P.x, P.y), (Q.x, Q.y))
            got = cantor_add(C, embed(C, P), embed(C, Q))
            if expected is None:
                assert got.is_identity
            else:
                assert got.u == Poly(F, [F.neg(expected[0]), F.one])
                assert got.v == Poly(F, [expected[1]])

    def test_scalar_mul_against_chord_tangent(self):
        F = PrimeField(13)
        a4, a6 = F.coerce(2), F.coerce(3)
        C = Curve(F, 1, Poly.from_ints(F, [3, 2, 0, 1]))
        for x0 in F.elements():
            for P in points_with_x(C, x0):
                D = embed(C, P)
                expected = None
                for n in range(1, 25):
                    expected = _elliptic_add(F, a4, a6, expected, (P.x, P.y))
                    got = scalar_mul(C, n, D)
                    if expected is None:
                        assert got.is_identity, n
                    else:
                        assert got.u == Poly(F, [F.neg(expected[0]), F.one]), n
                        assert got.v == Poly(F, [expected[1]]), n


def _case_divisors(C):
    """Embedded points (one per Frobenius/sign orbit over GF(3^4)), and
    sums of two of them that keep both points in their support."""
    pts = [P for x0 in C.ctx.elements() for P in points_with_x(C, x0)]
    if C is C_G4_F81:
        pts = _up_to_frobenius_and_sign(C, pts)
    points = [embed(C, P) for P in pts]
    sums = [cantor_add(C, points[i], points[(3 * i + 1) % len(points)])
            for i in range(0, len(points), 3)]
    return points, [S for S in sums if S.u.degree >= 2]


def _count_xgcd(monkeypatch):
    calls = []
    xgcd = Poly.xgcd

    def counting(self, other):
        calls.append(1)
        return xgcd(self, other)

    monkeypatch.setattr(Poly, "xgcd", counting)
    return calls


def _doubling_xgcds(S):
    """xgcds that cantor_add(S, S) runs for deg S.u >= 2: xgcd(u1, 2 v1),
    and _compose's two more unless that gcd is 1."""
    return 1 if S.u.xgcd(S.v + S.v)[0].degree == 0 else 3


def _oracle_sum(C, terms):
    """The sum of k P over the (P, k) in terms, by general composition."""
    D = identity(C)
    for P, k in terms:
        E = embed(C, P if k > 0 else involution(P, C.ctx))
        for _ in range(abs(k)):
            D = jacobian._compose(C, D, E)
    return D


def _point_pool(C):
    """A 2-torsion point and three points off the 2-torsion, all with
    distinct abscissas, so that sums drawn from them often share support."""
    F = C.ctx
    pts = [P for x0 in F.elements() for P in points_with_x(C, x0)]
    pool = [next(P for P in pts if P.y == F.zero)]
    for P in pts:
        if len(pool) < 4 and P.y != F.zero and all(P.x != R.x for R in pool):
            pool.append(P)
    return C, pool


POOLS = [_point_pool(C) for C in (C_G1_F13, C_G2_F13, C_G4_F81)]


def _pool_sums(C, pool):
    """P + Q for every two pool points, and for g >= 3 the sum of all four."""
    sums = [_oracle_sum(C, [(P, 1), (Q, 1)])
            for i, P in enumerate(pool) for Q in pool[i + 1:]]
    if C.g >= 3:
        sums.append(_oracle_sum(C, [(P, 1) for P in pool]))
    return sums


class TestCompositionCases:
    """cantor_add's cases (a point operand by chord, tangent or a point
    already in the support; a doubling with gcd(u1, 2 v1) = 1) against the
    general two-xgcd composition, which they must match pair for pair."""

    @pytest.mark.parametrize("C", [C_G1_F13, C_X5_1, C_G4_F81],
                             ids=["g1/GF13", "x5+1/GF11", "g4/GF81"])
    def test_matches_general_composition(self, C):
        points, sums = _case_divisors(C)
        negs = [neg(C, D) for D in points + sums]
        for D1 in points + sums:
            for D2 in points + negs:
                assert cantor_add(C, D1, D2) == jacobian._compose(C, D1, D2), (D1, D2)
                assert cantor_add(C, D2, D1) == jacobian._compose(C, D2, D1), (D2, D1)
        for S in sums:
            assert cantor_add(C, S, S) == jacobian._compose(C, S, S)
            assert cantor_add(C, S, neg(C, S)).is_identity

    @pytest.mark.parametrize("C", [C_X5_1, C_G4_F81], ids=["x5+1/GF11", "g4/GF81"])
    def test_point_in_the_support_falls_back(self, C):
        pts = [P for x0 in C.ctx.elements() for P in points_with_x(C, x0)]
        P, Q = pts[0], next(Q for Q in pts if Q.x != pts[0].x)
        S = cantor_add(C, embed(C, P), embed(C, Q))
        assert S.u.degree == 2 and S.u(P.x) == C.ctx.zero
        for R in (P, involution(P, C.ctx)):
            D = embed(C, R)
            assert cantor_add(C, S, D) == jacobian._compose(C, S, D)
            assert cantor_add(C, D, S) == jacobian._compose(C, D, S)
        assert cantor_add(C, S, neg(C, embed(C, P))) == embed(C, Q)

    def test_two_torsion_doubles_to_identity(self):
        for C in (C_G1_F13, C_X5_1, C_G4_F81):
            F = C.ctx
            roots = [P for x0 in F.elements() for P in points_with_x(C, x0)
                     if P.y == F.zero]
            assert roots, C
            for P in roots:
                D = embed(C, P)
                assert neg(C, D) == D
                assert cantor_add(C, D, D).is_identity
                assert jacobian._compose(C, D, D).is_identity

    def test_tangent_and_chord_run_no_xgcd(self, monkeypatch):
        calls = _count_xgcd(monkeypatch)
        for C in (C_G1_F13, C_X5_1, C_G4_F81):
            points, sums = _case_divisors(C)
            for D in points:
                del calls[:]
                cantor_add(C, D, D)
                assert not calls, D
                a = C.ctx.neg(D.u.coeffs[0])
                for E in points + sums:
                    if E.u(a) == C.ctx.zero:
                        continue
                    del calls[:]
                    cantor_add(C, D, E)
                    cantor_add(C, E, D)
                    assert not calls, (D, E)

    def test_doubling_runs_one_xgcd_and_compose_two(self, monkeypatch):
        points, sums = _case_divisors(C_G4_F81)
        one_xgcd = [S for S in sums if _doubling_xgcds(S) == 1]
        assert one_xgcd
        calls = _count_xgcd(monkeypatch)
        for S in one_xgcd:
            del calls[:]
            cantor_add(C_G4_F81, S, S)
            assert len(calls) == 1, S
        del calls[:]
        jacobian._compose(C_G4_F81, sums[0], sums[0])
        assert len(calls) == 2

    @pytest.mark.parametrize("C, pool", POOLS, ids=["g1/GF13", "g2/GF13", "g4/GF81"])
    def test_ladder_multiples_hold_the_point(self, C, pool):
        # [k]P = ((x - a)^k, v) for k <= g: the pairs exact_order builds
        for P in pool[1:]:
            D, minus = embed(C, P), embed(C, involution(P, C.ctx))
            multiple = D
            for k in range(1, C.g + 1):
                assert multiple.u == D.u ** k
                for E in (D, minus, multiple):
                    assert cantor_add(C, multiple, E) == jacobian._compose(C, multiple, E)
                    assert cantor_add(C, E, multiple) == jacobian._compose(C, E, multiple)
                multiple = jacobian._compose(C, multiple, D)

    @pytest.mark.parametrize("C, pool", POOLS[1:], ids=["g2/GF13", "g4/GF81"])
    def test_two_torsion_point_in_the_support(self, C, pool):
        W, Q = embed(C, pool[0]), embed(C, pool[1])
        S = jacobian._compose(C, W, Q)
        assert S.u.degree == 2 and S.u(pool[0].x) == C.ctx.zero
        for D1, D2 in ((S, W), (W, S)):
            assert cantor_add(C, D1, D2) == jacobian._compose(C, D1, D2) == Q

    def test_higher_degree_doubling(self):
        # gcd(u1, 2 v1) = 1 unless a 2-torsion point is in the support
        for C, pool in POOLS[1:]:
            gcd_is_one = set()
            for S in _pool_sums(C, pool):
                assert S.u.degree >= 2
                gcd_is_one.add(S.u.xgcd(S.v + S.v)[0].degree == 0)
                assert cantor_add(C, S, S) == jacobian._compose(C, S, S), S
            assert gcd_is_one == {True, False}, C

    def test_point_in_the_support_and_doubling_xgcd_count(self, monkeypatch):
        cases = []
        for C, pool in POOLS:
            sums = _pool_sums(C, pool) if C.g >= 2 else []
            for P in pool:
                D = embed(C, P)
                multiple = D
                for _ in range(C.g):
                    cases += [(C, multiple, D, 0), (C, D, neg(C, multiple), 0)]
                    if multiple.u.degree >= 2:
                        cases.append((C, multiple, multiple, _doubling_xgcds(multiple)))
                    multiple = jacobian._compose(C, multiple, D)
                cases += [(C, S, D, 0) for S in sums if S.u(P.x) == C.ctx.zero]
            cases += [(C, S, S, _doubling_xgcds(S)) for S in sums]
        assert {expected for *_, expected in cases} == {0, 1, 3}
        calls = _count_xgcd(monkeypatch)
        for C, D1, D2, expected in cases:
            del calls[:]
            cantor_add(C, D1, D2)
            assert len(calls) == expected, (D1, D2)


@st.composite
def _divisor_pairs(draw):
    C, pool = draw(st.sampled_from(POOLS))
    terms = st.lists(st.tuples(st.sampled_from(pool), st.integers(-C.g, C.g)),
                     min_size=1, max_size=3)
    D1 = _oracle_sum(C, draw(terms))
    D2 = D1 if draw(st.booleans()) else _oracle_sum(C, draw(terms))
    return C, D1, D2


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=_divisor_pairs())
def test_cantor_add_matches_general_composition(case):
    C, D1, D2 = case
    assert cantor_add(C, D1, D2) == jacobian._compose(C, D1, D2)


def test_census_runs_no_general_composition(monkeypatch):
    calls = []
    compose = jacobian._compose

    def counting(*args):
        calls.append(1)
        return compose(*args)

    monkeypatch.setattr(jacobian, "_compose", counting)
    ok, detail = acceptance.criterion_2_census()
    assert ok, detail
    assert not calls


def test_cli_adds_no_two_distinct_divisors_of_higher_degree(monkeypatch, tmp_path):
    """Every pinned argv of test_cli_digests but selftest's adds a point to
    a divisor or doubles one, and a pairing round runs no Cantor at all:
    sums of two distinct divisors of degree >= 2, which take _compose, come
    only from criterion 8 and the tests."""
    add = jacobian.cantor_add
    calls = []

    def recording(C, D1, D2):
        calls.append(D1 != D2 and D1.u.degree >= 2 and D2.u.degree >= 2)
        return add(C, D1, D2)

    monkeypatch.setattr(jacobian, "cantor_add", recording)
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(tmp_path)
    test_cli_digests.write_files(tmp_path)
    total = 0
    for argv in test_cli_digests.ARGVS:
        if "selftest" in argv:
            continue
        del calls[:]
        test_cli_digests.digest(argv)
        assert not any(calls), argv
        if argv in test_cli_digests.PAIRING_ROUND:
            assert not calls, argv
        total += len(calls)
    assert total > 0


# -- a group-order oracle for Cantor: #J from point counts ---------------------
#
# For f with coefficients in GF(p), #J over GF(p^m) follows from the counts
# #C(GF(p^i)), i <= g, through the L-polynomial of C over GF(p), with no
# composition of divisors (Handbook of Elliptic and Hyperelliptic Curve
# Cryptography, ch. 8).  It checks Cantor's law from outside.

def _point_count(f, p, i):
    """#C(GF(p^i)) for y^2 = f(x), f a list of GF(p) coefficients: the point
    at infinity, and 1 + (f(x) / GF(p^i)) points over each x."""
    K = PrimeField(p) if i == 1 else ExtField(p, i)
    count = 1
    for x in K.elements():
        y2 = K.poly_eval(f, x)
        count += 1 if y2 == K.zero else 2 * K.is_square(y2)
    return count


def _elementary(S, d):
    """e_0 .. e_d of the numbers whose power sums are S[1], S[2], ...
    (Newton's identities)."""
    e = [1]
    for k in range(1, d + 1):
        total = sum((-1) ** (i - 1) * e[k - i] * S[i] for i in range(1, k + 1))
        assert total % k == 0, (S, k)
        e.append(total // k)
    return e


def _power_sums(e, n):
    """The power sums S[0 .. n] of the d numbers whose elementary symmetric
    functions are e[0 .. d]."""
    d = len(e) - 1
    S = [d]
    for k in range(1, n + 1):
        S.append(sum((-1) ** (i - 1) * e[i] * S[k - i] for i in range(1, min(k, d + 1)))
                 + ((-1) ** (k - 1) * k * e[k] if k <= d else 0))
    return S


def jacobian_order(C):
    """#J(GF(p^m)) for f in GF(p)[x] and p^g <= 2^13.  With the 2g roots
    alpha of the reversed L-polynomial of C over GF(p), S_i = sum alpha^i =
    p^i + 1 - #C(GF(p^i)); Newton's identities give e_1 .. e_g, and
    e_(2g-k) = p^(g-k) e_k the rest.  Then #J(GF(p^m)) = prod(1 - alpha^m),
    read off the power sums S_(km) of the alpha^m."""
    K, g = C.ctx, C.g
    p, m = K.p, getattr(K, "m", 1)
    f = C.f.coeffs
    assert max(f) < p and p ** g <= 2 ** 13, C
    S = [None] + [p ** i + 1 - _point_count(f, p, i) for i in range(1, g + 1)]
    e = _elementary(S, g)
    e += [p ** (k - g) * e[2 * g - k] for k in range(g + 1, 2 * g + 1)]
    S = _power_sums(e, 2 * g * m)
    e_m = _elementary([None] + [S[k * m] for k in range(1, 2 * g + 1)], 2 * g)
    return sum((-1) ** k * c for k, c in enumerate(e_m))


def _census_like_curves():
    """Curves y^2 = (x-a)^{2g+1} + v^2 over GF(3^4), a and v over GF(3), as
    the census benchmark draws them: two of genus 1 and one of genus 4, each
    with its point of order 2g+1."""
    rng, out = random.Random(81), []
    for g in (1, 1, 4):
        while True:
            a = rng.randrange(3)
            v = Poly(F81, [rng.randrange(3) for _ in range(g + 1)])
            if v(a) == F81.zero:
                continue
            try:
                C, P, _ = make_single(g, a, v)
            except NotSquarefreeError:
                continue
            if all(C != D for D, _ in out):
                out.append((C, P))
                break
    return out


CENSUS_LIKE = _census_like_curves()
ORACLE_CURVES = [C_G1_F13, C_X5_1, C_G2_F13, C_G4_F81] + [C for C, _ in CENSUS_LIKE]
ORACLE_IDS = ["g1/GF13", "x5+1/GF11", "g2/GF13", "g4/GF81",
              "census-g1a/GF81", "census-g1b/GF81", "census-g4/GF81"]


def _count_coprime_compositions(monkeypatch):
    """Record each _compose call whose operands have coprime supports."""
    calls = []
    compose = jacobian._compose

    def counting(C, D1, D2):
        if D1.u.gcd(D2.u).degree == 0:
            calls.append(1)
        return compose(C, D1, D2)

    monkeypatch.setattr(jacobian, "_compose", counting)
    return calls


class TestGroupOrderOracle:
    def test_known_orders(self):
        # genus 1: #J is the number of pairs (x, y) on y^2 = x^3 + 2x + 3,
        # and the point at infinity
        pairs = [(x, y) for x in range(13) for y in range(13)
                 if (y * y - x ** 3 - 2 * x - 3) % 13 == 0]
        assert jacobian_order(C_G1_F13) == len(pairs) + 1
        # 13 = 3 mod 5 makes x -> x^5 a bijection of GF(13) and of GF(13^2),
        # so y^2 = x^5 + 1 has L(T) = 1 + 13^2 T^4 over GF(13)
        C = Curve(F13, 2, Poly.from_ints(F13, [1, 0, 0, 0, 0, 1]))
        assert jacobian_order(C) == 13 ** 2 + 1

    @pytest.mark.parametrize("C", ORACLE_CURVES, ids=ORACLE_IDS)
    def test_order_kills_the_jacobian(self, C, monkeypatch):
        N, q = jacobian_order(C), C.ctx.order
        assert (q ** 0.5 - 1) ** (2 * C.g) <= N <= (q ** 0.5 + 1) ** (2 * C.g), N
        pts = [P for x0 in C.ctx.elements() for P in points_with_x(C, x0)]
        if C.ctx.order > C.ctx.p:
            pts = _up_to_frobenius_and_sign(C, pts)
        points = [embed(C, P) for P in pts]
        for D in points:
            assert scalar_mul(C, N, D).is_identity, D
        sums = _divisors(C, N, 20)
        coprime = _count_coprime_compositions(monkeypatch)
        for D in sums:
            assert scalar_mul(C, N, D).is_identity, D
        # from genus 2 on, these ladders add divisors with coprime supports;
        # but every affine point of y^2 = x^5 + 1 over GF(11) but (0, +-1)
        # has order 2, so the one addition of [80]D's ladder, [4]D + D, has
        # [4]D = 0 or a point
        assert bool(coprime) == (C.g >= 2 and C is not C_X5_1), C
        for D in points:
            order = exact_order(C, D, N)
            assert order is not None and N % order == 0, D
            if N <= 2000:
                assert _order_up_to(C, D, N) == order, D
            else:       # [order]D = 0 and no prime divides out of order
                assert scalar_mul(C, order, D).is_identity, D
                assert not any(scalar_mul(C, order // r, D).is_identity
                               for r in factorize(order)), D

    @pytest.mark.parametrize("C, P", CENSUS_LIKE, ids=ORACLE_IDS[4:])
    def test_certified_point_order_divides_the_jacobian(self, C, P):
        N, n = jacobian_order(C), 2 * C.g + 1
        assert N % n == 0
        assert exact_order(C, embed(C, P), N) == n
