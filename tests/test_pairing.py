import collections
import copy
import os
import random
import subprocess
import sys
import textwrap

import pytest

import hyptorsion
from hyptorsion.families import find_good_mu, nice_pairs_coprime
from hyptorsion.fields import ExtField, FieldError, PrimeField
from hyptorsion.pairing import weil_closed, weil_explicit
from hyptorsion.polyring import Poly
from hyptorsion.torsion import CertError, PairCert, curve_poly

F11 = PrimeField(11)


def _family_cert(F, g, I):
    for t in nice_pairs_coprime(F, g):
        if t.I == I:
            _, cert, _ = find_good_mu(g, t.factors(F))
            return cert
    raise AssertionError("no such subset")


class TestClosedForm:
    def test_gf11_values(self):
        # canonical roots over GF(11) are [3, 9, 5, 4]; complement of {0,1}
        # is {2, 3}, so the closed form is 5 * 4 = 9
        assert weil_closed(F11, 2, (0, 1)) == 9
        assert weil_closed(F11, 2, (2, 3)) == F11.div(F11.one, F11.coerce(9))

    def test_complement_inverse(self):
        # closed(I) * closed(complement) = prod of all of M(n) = 1
        import itertools
        for I in itertools.combinations(range(4), 2):
            comp = tuple(i for i in range(4) if i not in I)
            assert F11.mul(weil_closed(F11, 2, I),
                           weil_closed(F11, 2, comp)) == F11.one


class TestExplicit:
    def test_agrees_with_closed(self):
        for I in ((0, 1), (0, 2), (1, 3)):
            cert = _family_cert(F11, 2, I)
            e = weil_explicit(cert)
            assert e == weil_closed(F11, 2, I)
            assert F11.pow_el(e, 5) == F11.one

    def test_swap_decoration_inverts(self):
        cert = _family_cert(F11, 2, (0, 1))
        swapped = PairCert(2, cert.a1, cert.a2, cert.u2, cert.u1)
        e = weil_explicit(cert)
        assert weil_explicit(swapped) == F11.inv(e)

    def test_balanced_subset_gives_trivial_pairing(self):
        # complement of I = (0, 3) is (1, 2): zeta^2 * zeta^3 = 1 always
        cert = _family_cert(F11, 2, (0, 3))
        assert weil_explicit(cert) == F11.one
        assert weil_closed(F11, 2, (0, 3)) == F11.one

    def test_extension_base_field(self):
        E = ExtField(29, 2)
        cert = _family_cert(E, 2, (0, 1))
        assert weil_explicit(cert) == weil_closed(E, 2, (0, 1))

    def test_char_divides_rejected(self):
        # a valid order-15 certificate in characteristic 5 (5 divides 15)
        from hyptorsion.families import char_templates
        E = ExtField(5, 2)
        t = next(iter(char_templates(E, 5, 1, 1)))
        _, cert, _ = find_good_mu(7, t.factors(E))
        with pytest.raises(FieldError):
            weil_explicit(cert)


class TestWIndependence:
    def test_every_base_root_against_direct_evaluation(self):
        # An oracle apart from the generic-root check: at every root w of f
        # in the base field, evaluate g_P(D_Q)/g_Q(D) directly.
        checked = 0
        for F, g in ((F11, 2), (PrimeField(29), 3)):
            n = 2 * g + 1
            m1 = F.neg(F.one)
            for t in nice_pairs_coprime(F, g):
                cert = _family_cert(F, g, t.I)
                e = weil_explicit(cert)
                v1, v2 = cert.v_polys()
                num_p = F.sub(v2(m1), v1(m1))
                num_q = F.sub(v1(F.zero), v2(F.zero))
                e2 = F.div(F.mul(num_p, num_p), F.mul(num_q, num_q))
                assert F.pow_el(e2, g + 1) == e
                f = curve_poly(g, cert.a1, v1)
                for w in F.elements():
                    if f(w) != F.zero:
                        continue
                    v2w = v2(w)
                    g_p = F.neg(F.div(F.mul(num_p, num_p),
                                      F.pow_el(F.add(F.one, w), n)))
                    g_q = F.div(F.mul(num_q, num_q), F.mul(v2w, v2w))
                    assert F.div(g_p, g_q) == e2
                    checked += 1
        assert checked >= 10

    def test_rejects_corrupted_certificate(self):
        cert = _family_cert(F11, 2, (0, 1))
        bad = copy.copy(cert)  # u2 + 1, past PairCert.__post_init__
        object.__setattr__(bad, "u2", cert.u2 + Poly.const(F11, F11.one))
        with pytest.raises(CertError, match="vanishes at a root of f"):
            weil_explicit(bad)

    def test_rejects_other_abscissas(self):
        # x -> -x takes the (0, -1) certificate to a valid one at (0, 1),
        # where f = (x-1)^5 + v2^2 and the (1+w)^5 formula does not apply.
        def flip(u):    # u(-x)
            return Poly(F11, [F11.neg(c) if i % 2 else c
                              for i, c in enumerate(u.coeffs)])

        cert = _family_cert(F11, 2, (0, 1))
        moved = PairCert(2, F11.zero, F11.one, flip(cert.u1), -flip(cert.u2))
        with pytest.raises(CertError, match="fails mod f"):
            weil_explicit(moved)

    def test_no_base_root_matches_closed(self):
        F = ExtField(11, 3)
        for t in nice_pairs_coprime(F, 3):
            cert = _family_cert(F, 3, t.I)
            f = curve_poly(3, cert.a1, cert.v_polys()[0])
            if all(f(a) != F.zero for a in F.elements()):
                break
        else:
            raise AssertionError("every GF(11^3) family has a base root")
        assert weil_explicit(cert) == weil_closed(F, 3, t.I)

    def test_checks_survive_optimize(self):
        # python -O strips assert statements; the typed raises must remain.
        src = textwrap.dedent("""
            import copy, sys
            from hyptorsion.families import find_good_mu, nice_pairs_coprime
            from hyptorsion.fields import PrimeField
            from hyptorsion.pairing import weil_explicit
            from hyptorsion.polyring import Poly
            if __debug__:
                sys.exit("asserts are live; run under python -O")
            for p, g, I in ((11, 2, (0, 1)), (29, 3, (0, 1, 2)),
                            (29, 3, (1, 2, 4))):
                F = PrimeField(p)
                t = next(t for t in nice_pairs_coprime(F, g) if t.I == I)
                _, cert, _ = find_good_mu(g, t.factors(F))
                bad = copy.copy(cert)
                object.__setattr__(bad, "u2", cert.u2 + Poly.const(F, F.one))
                try:
                    weil_explicit(bad)
                    print("accepted")
                except Exception as exc:
                    print(type(exc).__name__, exc)
        """)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [os.path.dirname(os.path.dirname(hyptorsion.__file__)),
             os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run([sys.executable, "-O", "-c", src], env=env,
                             capture_output=True, text=True, check=True).stdout
        assert out.splitlines() == [
            "CertError (1+w)^{2g+1} or v2(w) vanishes at a root of f",
            "CertError e is not a square root of e2",
            "CertError degenerate pairing numerator",
        ]


# -- the generic-root block: two checks decide what four did ----------------

VANISHES = "(1+w)^{2g+1} or v2(w) vanishes at a root of f"
FAILS_MOD_F = "v2(w)^2 = -(1+w)^{2g+1} fails mod f"


def _four_check_weil(cert):
    """weil_explicit with the four generic-root checks it once made: also
    gcd(v2, f) = 1, and -e2 v2^2 / (1+x)^{2g+1} = e2 mod f through the
    xgcd inverse."""
    F, g = cert.u1.ctx, cert.g
    n = 2 * g + 1
    v1, v2 = cert.v_polys()
    m1 = F.neg(F.one)
    num_p = F.sub(v2(m1), v1(m1))
    num_q = F.sub(v1(F.zero), v2(F.zero))
    if num_p == F.zero or num_q == F.zero:
        raise CertError("degenerate pairing numerator")
    e2 = F.div(F.mul(num_p, num_p), F.mul(num_q, num_q))
    e = F.pow_el(e2, g + 1)
    if F.mul(e, e) != e2:
        raise CertError("e is not a square root of e2")
    f = curve_poly(g, cert.a1, v1)
    pw = Poly(F, [F.one, F.one]) ** n % f
    unit, pw_inv, _ = pw.xgcd(f)
    if unit.degree != 0 or v2.gcd(f).degree != 0:
        raise CertError(VANISHES)
    v2_sq = v2 * v2
    if not ((v2_sq + pw) % f).is_zero:
        raise CertError(FAILS_MOD_F)
    if (v2_sq * pw_inv).scale(F.neg(e2)) % f != Poly.const(F, e2):
        raise CertError("pairing value depends on W")
    return e


def _outcome(weil, cert):
    try:
        return "ok", weil(cert)
    except CertError as exc:
        return "refused", str(exc)


def test_two_generic_root_checks_decide_as_the_four_did():
    # Certificates from the coprime templates at random mu (f need not be
    # squarefree: PairCert does not ask it), each with two copies whose u2
    # has one coefficient moved by 1, past PairCert.__post_init__.
    rng = random.Random(0)
    seen = collections.Counter()
    for F, g in ((F11, 2), (PrimeField(29), 3), (ExtField(29, 2), 2),
                 (ExtField(29, 2), 3), (ExtField(11, 3), 2), (ExtField(11, 3), 3)):
        certs = []
        for t in nice_pairs_coprime(F, g):
            for mu in rng.sample(range(1, F.order), 8):
                A, B = t.factors(F)
                mu = F.from_index(mu)
                try:
                    certs.append(PairCert(g, F.zero, F.neg(F.one), A.scale(mu),
                                          B.scale(F.inv(mu))))
                except CertError:
                    pass
        for cert in rng.sample(certs, min(40, len(certs))):
            cases = [cert]
            for _ in range(2):
                coeffs = list(cert.u2.coeffs)
                i = rng.randrange(len(coeffs))
                coeffs[i] = F.add(coeffs[i], F.one)
                bad = copy.copy(cert)
                object.__setattr__(bad, "u2", Poly(F, coeffs))
                cases.append(bad)
            for case in cases:
                old = _outcome(_four_check_weil, case)
                new = _outcome(weil_explicit, case)
                assert old[0] == new[0], (F, g, case, old, new)
                assert old == new or (old[1], new[1]) == (VANISHES, FAILS_MOD_F)
                seen[case is cert, old[1] if old[0] == "refused" else "ok",
                     new[1] if new[0] == "refused" else "ok"] += 1
    valid = seen.pop((True, "ok", "ok"))
    assert valid >= 200 and sum(seen.values()) >= 400
    assert not any(is_valid for is_valid, _, _ in seen), seen
    # the block itself refuses some, and some of those only gcd(v2, f) caught
    assert seen[False, VANISHES, VANISHES] and seen[False, FAILS_MOD_F, FAILS_MOD_F]
    assert seen[False, VANISHES, FAILS_MOD_F], seen
