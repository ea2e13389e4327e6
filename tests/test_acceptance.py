"""Acceptance gate: one test per criterion, one PASS/FAIL line each.

The Weil-pairing criterion is a documented expected failure: its
"nontrivial pairing for every family" clause cannot hold, because any
family whose complementary root subset has exponents summing to 0 mod 2g+1
has pairing value exactly 1 in every field.  All other clauses of that
criterion (route agreement, root-of-unity order, Weierstrass-point
independence) are still checked and pass.
"""

import random
import time

import pytest

from hyptorsion import acceptance
from hyptorsion.fields import ExtField, PrimeField
from hyptorsion.jacobian import Curve, NotSquarefreeError
from hyptorsion.polyring import Poly
from hyptorsion.torsion import torsion_census


def _param(name, fn):
    marks = []
    if name in acceptance.EXPECTED_FAIL:
        marks.append(pytest.mark.xfail(strict=True,
                                       reason=acceptance.EXPECTED_FAIL[name]))
    return pytest.param(name, fn, id=name, marks=marks)


@pytest.mark.parametrize("name,fn",
                         [_param(name, fn) for name, fn in acceptance.CRITERIA])
def test_criterion(name, fn, capsys):
    start = time.monotonic()
    ok, detail = fn()
    secs = time.monotonic() - start
    with capsys.disabled():
        print(f"\n{'PASS' if ok else 'FAIL'} {name} ({secs:.2f}s): {detail}")
    assert ok, detail


def _random_curves(F, g, count, rng):
    curves = []
    while len(curves) < count:
        f = Poly(F, [rng.randrange(F.order) for _ in range(2 * g + 1)] + [F.one])
        try:
            curves.append(Curve(F, g, f))
        except NotSquarefreeError:
            continue
    return curves


def test_no_point_of_order_3_to_2g():
    # Zarhin: for g >= 2 no point (a, b) of C(K) has order 3..2g in J;
    # criterion 2 bounds the points of order 2g+1.
    rng = random.Random(7)
    curves = 0
    for p, m in ((5, 1), (7, 1), (11, 1), (13, 1), (3, 2), (5, 2), (3, 3)):
        F = PrimeField(p) if m == 1 else ExtField(p, m)
        for g in (2, 3, 4):
            for C in _random_curves(F, g, 6, rng):
                curves += 1
                for n in range(3, 2 * g + 1):
                    assert torsion_census(C, n) == [], (p, m, C.f.coeffs, n)
    assert curves == 126


@pytest.mark.parametrize("p", [7, 13])
def test_order_3_points_exist_at_genus_1(p):
    # the control: at g = 1 the same census finds points of order 3
    rng = random.Random(p)
    found = sum(len(torsion_census(C, 3))
                for C in _random_curves(PrimeField(p), 1, 6, rng))
    assert found > 0


def test_cantor_checks_survive_optimize(run_optimized):
    # python -O strips assert statements; criterion 8's group-law checks
    # must still fail on a broken Cantor addition.
    out = run_optimized("""
        from hyptorsion import acceptance, jacobian
        add = jacobian.cantor_add
        acceptance.CRITERIA = [c for c in acceptance.CRITERIA
                               if c[0] == "criterion-8-property-suites"]
        for broken in (
                lambda C, D1, D2: add(C, D1, add(C, D2, D2)),
                lambda C, D1, D2: D2 if D2.is_identity and not D1.is_identity
                else add(C, D1, D2)):
            acceptance.cantor_add = broken
            [(name, ok, detail, _)] = acceptance.run_all()
            print(name, ok, detail.split(" on ")[0])
    """)
    assert out == [
        "criterion-8-property-suites False "
        "AssertionError: Cantor addition is not commutative",
        "criterion-8-property-suites False AssertionError: D + 0 is not D",
    ]
