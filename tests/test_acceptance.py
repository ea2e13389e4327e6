"""Acceptance gate: one test per criterion, one PASS/FAIL line each.

The Weil-pairing criterion is a documented expected failure: its
"nontrivial pairing for every family" clause cannot hold, because any
family whose complementary root subset has exponents summing to 0 mod 2g+1
has pairing value exactly 1 in every field.  All other clauses of that
criterion (route agreement, root-of-unity order, Weierstrass-point
independence) are still checked and pass.
"""

import time

import pytest

from hyptorsion import acceptance


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
