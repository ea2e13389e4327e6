"""The acceptance suite: one callable per criterion, shared by the pytest
gate (tests/test_acceptance.py) and the `hyptorsion selftest` subcommand.

Each criterion returns (ok, detail).  Criterion 7's nondegeneracy clause is
expected to fail: e = 1 is mathematically forced whenever the root-of-unity
exponents of the complement subset sum to 0 mod 2g+1 (see the detail text);
every other clause of criterion 7 holds.
"""

from __future__ import annotations

import itertools
import random
import sys
import time

from .families import (char_templates, find_good_mu, nice_pairs_coprime,
                       rational_four_torsion, symmetry_classes)
from .fields import ExtField, PrimeField, Rationals
from .jacobian import (Curve, CurveError, cantor_add, embed, exact_order,
                       identity, neg, points_with_x, scalar_mul)
from .numth import hyperelliptic_cert, hyperelliptic_scan, overq_filter
from .pairing import weil_closed, weil_explicit
from .polyring import Poly, diff_power, is_squarefree, poly_sqrt
from .torsion import (CertError, make_pair, make_single, recover_pair,
                      torsion_census, verify_single)


def criterion_1_examples():
    """(0, ±1) of order 5 on y^2=x^5+1 / GF(11) and y^2=x^5+(x+1)^2 / GF(5),
    by certificate and by the Cantor oracle."""
    checks = []
    for p, vcoeffs in ((11, [1]), (5, [1, 1])):
        F = PrimeField(p)
        C, P, cert = make_single(F, 2, F.zero, Poly.from_ints(F, vcoeffs))
        if (P.x, P.y) != (0, 1):
            raise AssertionError(
                f"GF({p}) example point is ({P.x}, {P.y}), not (0, 1)")
        cert_back = verify_single(C, P)
        oracle = exact_order(C, embed(C, P), 5)
        oracle_neg = exact_order(C, neg(C, embed(C, P)), 5)
        checks.append(cert_back is not None and oracle == 5 and oracle_neg == 5)
    ok = all(checks)
    return ok, f"GF(11) and GF(5) examples, cert+oracle: {checks}"


def _census_curves(p, k, g, per_m=(8, 6, 4, 2)):
    """>= 20 constructed curves with an order-p^k point, censused over their
    own field GF(p^m), m <= 4; returns (curves censused, worst point count)."""
    n = p ** k
    if n != 2 * g + 1:
        raise AssertionError(f"p^k = {n} is not 2g+1 = {2 * g + 1}")
    total, worst = 0, 0
    for m, want in zip(range(1, 5), per_m):
        F = PrimeField(p) if m == 1 else ExtField(p, m)
        built = 0
        done = False
        for a_idx in range(F.order):
            a = F.from_index(a_idx)
            for vi in range(1, F.order ** (g + 1)):
                digits, t = [], vi
                while t:
                    digits.append(F.from_index(t % F.order))
                    t //= F.order
                v = Poly(F, digits)
                if v.is_zero:
                    continue
                try:
                    C, P, _ = make_single(F, g, a, v)
                except (CurveError, CertError):
                    continue
                count = len(torsion_census(C, n))
                worst = max(worst, count)
                if count > 2:
                    raise AssertionError(
                        f"census found {count} points of order {n} on "
                        f"GF({p}^{m}), violating the bound of 2")
                built += 1
                total += 1
                if built >= want:
                    done = True
                    break
            if done:
                break
    return total, worst


def criterion_2_census():
    """Theorem-bound censuses: at most 2 points of order p^k when 2g+1 = p^k
    in characteristic p, across >= 20 curves per (p, k) over GF(p^m), m<=4."""
    details = []
    for p, k, g in ((3, 1, 1), (5, 1, 2), (3, 2, 4)):
        total, worst = _census_curves(p, k, g)
        details.append(f"p^k={p}^{k}: {total} curves, max count {worst}")
        if total < 20:
            return False, f"only {total} curves built for p={p}, k={k}"
    return True, "; ".join(details)


def criterion_3_coprime_families():
    """g=2 over GF(11): 6 templates, 3 symmetry classes; a good mu per class
    with both marked points oracle-verified of order 5."""
    F = PrimeField(11)
    templates = list(nice_pairs_coprime(F, 2))
    classes = symmetry_classes(templates)
    if len(templates) != 6 or len(classes) != 3:
        return False, f"{len(templates)} templates / {len(classes)} classes"
    for cls in classes:
        mu, cert, enh = find_good_mu(F, 2, cls[0])
        for pt in (enh.P, enh.Q):
            if exact_order(enh.C, embed(enh.C, pt), 5) != 5:
                return False, f"oracle order != 5 for I={cls[0].I}"
    return True, "6 templates / 3 classes, all mu-good with oracle order 5"


def criterion_4_char_regime():
    """p=3, 2g+1=15 over GF(81): exactly C(4,2)=6 upsilon_{I,J} templates,
    each with a good mu and oracle-verified order-15 points."""
    F = ExtField(3, 4)
    templates = list(char_templates(F, 3, 1, 2))
    if len(templates) != 6:
        return False, f"{len(templates)} templates, expected 6"
    for t in templates:
        mu, cert, enh = find_good_mu(F, t.g, t)
        for pt in (enh.P, enh.Q):
            if exact_order(enh.C, embed(enh.C, pt), 15) != 15:
                return False, f"oracle order != 15 for upsilon={t.ups.values}"
    return True, "6 upsilon_{I,J} templates, all mu-good with oracle order 15"


def criterion_5_hyperelliptic():
    """Scan to 201 = {105, 165} with the Example certificates; the filter
    never rejects an n that has a certificate, for all odd n <= 2000."""
    scan = hyperelliptic_scan(201)
    if scan != [105, 165]:
        return False, f"scan(201) = {scan}"
    c105, c165 = hyperelliptic_cert(105), hyperelliptic_cert(165)
    if set(c105.S1) != {105, 5} or set(c165.S1) != {165, 3}:
        return False, f"certificates {c105.S1}, {c165.S1}"
    for n in range(3, 2001, 2):
        if not overq_filter(n).hyperelliptic_possible and hyperelliptic_cert(n):
            return False, f"filter wrongly rejects n={n}"
    return True, "scan(201)=[105,165]; certs 48+4 / 80+2; filter sound to 2000"


def criterion_6_rational_g52():
    """rational_four_torsion(52): monic squarefree degree-105 f over Q with
    four rational points of order 105, verified by the certificate route."""
    C, pts, cert, mu = rational_four_torsion(52)
    if C.f.degree != 105 or not C.f.is_monic or not is_squarefree(C.f):
        return False, "curve polynomial shape is wrong"
    if len(pts) != 4 or len({(P.x, P.y) for P in pts}) != 4:
        return False, "need four distinct rational points"
    for P in pts:
        if verify_single(C, P) is None:
            return False, f"certificate route fails at x={P.x}"
    return True, f"degree-105 curve (mu={mu}), 4 points certified of order 105"


def _pairing_families():
    for p, m, g in ((11, 1, 2), (29, 2, 2), (29, 1, 3), (11, 3, 3)):
        F = PrimeField(p) if m == 1 else ExtField(p, m)
        for t in nice_pairs_coprime(F, g):
            yield F, g, t, f"GF({p}^{m})"


def criterion_7_pairing(require_nontrivial=True):
    """weil_explicit == weil_closed, e^{2g+1} = 1 and W-independence for
    every (I, mu-good) family at g in {2,3} over GF(11) and GF(29) (taking
    the quadratic/cubic extension where M(2g+1) demands it); optionally also
    e != 1 for every family."""
    trivial = []
    count = 0
    for F, g, t, fname in _pairing_families():
        mu, cert, enh = find_good_mu(F, g, t)
        # raises CertError unless e^{2g+1} = 1 and the value is W-independent
        e = weil_explicit(F, g, cert)
        if e != weil_closed(F, g, t.I):
            return False, f"route mismatch at {fname}, I={t.I}"
        if e == F.one:
            trivial.append(f"{fname} I={t.I}")
        count += 1
    if require_nontrivial and trivial:
        return False, (
            f"routes agree on all {count} families and e^(2g+1)=1 and "
            f"W-independence hold, but e = 1 for {len(trivial)} families "
            f"({'; '.join(trivial)}): whenever the exponents of the "
            "complement roots of unity sum to 0 mod 2g+1, the closed-form "
            "product is 1, so this clause cannot hold for every subset")
    return True, f"{count} families: routes agree, e^(2g+1)=1, W-independent"


def _random_poly(rng, F, max_deg):
    return Poly(F, [F.from_index(rng.randrange(F.order))
                    for _ in range(rng.randrange(1, max_deg + 2))])


def _property_sqrt(rng):
    for F in (Rationals(), PrimeField(11), PrimeField(29), ExtField(3, 2)):
        for _ in range(1000):
            if F.is_finite:
                t = _random_poly(rng, F, 8)
            else:
                t = Poly(F, [F.coerce(rng.randrange(-9, 10))
                             * F.inv(F.coerce(rng.randrange(1, 7)))
                             for _ in range(rng.randrange(1, 9))])
            h = t * t
            root = poly_sqrt(h)
            if root is None or root * root != h:
                raise AssertionError(
                    f"poly_sqrt fails over {F!r} on the square of {t.coeffs}")


def _property_roundtrip(rng):
    setups = [(PrimeField(11), 2), (PrimeField(31), 2), (PrimeField(29), 3),
              (PrimeField(43), 3)]
    done = 0
    while done < 200:
        F, g = setups[done % len(setups)]
        templates = list(nice_pairs_coprime(F, g))
        t = templates[rng.randrange(len(templates))]
        mu = F.from_index(rng.randrange(1, F.order))
        try:
            u1, u2 = t.u_pair(F, mu)
            from .torsion import PairCert
            cert = PairCert(g, F.zero, F.neg(F.one), u1, u2)
            enh = make_pair(F, g, cert)
        except (CertError, CurveError):
            continue
        back = recover_pair(enh.C, enh.P, enh.Q)  # checks the Remark identities
        if back.u1 != cert.u1 or back.u2 != cert.u2:
            raise AssertionError(f"pair round trip over {F!r} changes (u1, u2)")
        done += 1


def _property_cantor(rng):
    curves = []
    F11 = PrimeField(11)
    curves.append(Curve(F11, 2, Poly.from_ints(F11, [1, 0, 0, 0, 0, 1])))
    F5 = PrimeField(5)
    curves.append(Curve(F5, 2, Poly.from_ints(F5, [1, 2, 1, 0, 0, 1])))
    for C in curves:
        F = C.ctx
        pts = [pt for x0 in F.elements() for pt in points_with_x(C, x0)]

        def rand_div():
            D = identity(C)
            for _ in range(rng.randrange(1, C.g + 1)):
                D = cantor_add(C, D, embed(C, pts[rng.randrange(len(pts))]))
            return D

        for _ in range(500):
            D1, D2, D3 = rand_div(), rand_div(), rand_div()
            if cantor_add(C, D1, D2) != cantor_add(C, D2, D1):
                raise AssertionError(f"Cantor addition is not commutative on {C!r}")
            if (cantor_add(C, cantor_add(C, D1, D2), D3)
                    != cantor_add(C, D1, cantor_add(C, D2, D3))):
                raise AssertionError(f"Cantor addition is not associative on {C!r}")
            if not cantor_add(C, D1, neg(C, D1)).is_identity:
                raise AssertionError(f"D + (-D) is not the identity on {C!r}")
            if cantor_add(C, D1, identity(C)) != D1:
                raise AssertionError(f"D + 0 is not D on {C!r}")


def _property_diff_power(rng):
    fields = [Rationals(), PrimeField(11), PrimeField(13), ExtField(5, 2)]
    done = 0
    while done < 100:
        F = fields[done % len(fields)]
        n = rng.choice([3, 5, 7, 9, 11, 15])
        if F.char and n % F.char == 0:
            continue
        if F.is_finite:
            a1 = F.from_index(rng.randrange(F.order))
            a2 = F.from_index(rng.randrange(F.order))
        else:
            a1 = F.coerce(rng.randrange(-20, 21))
            a2 = F.coerce(rng.randrange(-20, 21))
        if a1 == a2:
            continue
        if not is_squarefree(diff_power(F, a1, a2, n)):
            raise AssertionError(f"diff_power over {F!r} is not squarefree at n={n}")
        done += 1


def criterion_8_properties():
    """Random property suites: poly_sqrt round trips, pair-certificate round
    trips with the evaluation identities, Cantor group laws, diff_power
    squarefreeness."""
    rng = random.Random(20260823)
    _property_sqrt(rng)
    _property_roundtrip(rng)
    _property_cantor(rng)
    _property_diff_power(rng)
    return True, ("4000 sqrt round-trips, 200 pair round-trips, "
                  "1000 Cantor triples, 100 diff_power draws: all pass")


CRITERIA = [
    ("criterion-1-worked-examples", criterion_1_examples),
    ("criterion-2-order-bound-census", criterion_2_census),
    ("criterion-3-coprime-families", criterion_3_coprime_families),
    ("criterion-4-char-divides-families", criterion_4_char_regime),
    ("criterion-5-hyperelliptic-numbers", criterion_5_hyperelliptic),
    ("criterion-6-rational-genus-52", criterion_6_rational_g52),
    ("criterion-7-weil-pairing", criterion_7_pairing),
    ("criterion-8-property-suites", criterion_8_properties),
]

EXPECTED_FAIL = {
    "criterion-7-weil-pairing":
        "the e != 1 clause is unsatisfiable for exponent-balanced subsets",
}


def run_all():
    """(name, ok, detail, seconds) per criterion, each also printed to stderr."""
    results = []
    for name, fn in CRITERIA:
        t0 = time.time()
        try:
            ok, detail = fn()
        except (AssertionError, CertError) as exc:
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        secs = time.time() - t0
        results.append((name, ok, detail, secs))
        status = "PASS" if ok else "FAIL"
        if not ok and name in EXPECTED_FAIL:
            status = "FAIL (expected)"
        print(f"{status:>15}  {name}  [{secs:.2f}s]  {detail}", file=sys.stderr)
    return results
