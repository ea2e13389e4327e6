"""Parameterized families of enhanced curves with marked abscissas 0 and -1.

Normalized curves with two marked points of order n = 2g+1 come from
factorizations u1*u2 = (x+1)^n - x^n: family_pair builds the certificate and
curve of (u1, u2) = (mu*A, B/mu) for a template's factor pair (A, B).  A
template is an exponent function v on the nontrivial (2l+1)-th roots of unity
M(2l+1), n = q(2l+1): A is the product of (x - eta(eps))^v(eps) and B is 2l+1
times that of (x - eta(eps))^(q - v(eps)).  In characteristic p dividing n,
q = p^k and v is admissible; when the characteristic is prime to n, q = 1 and
v is the indicator of a g-element subset of M(n).  The free scalar mu is the
first one whose curve is squarefree, and the rational genus-52 construction
splits the Psi_d (1 < d | n) by totient sums.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .fields import (FieldError, InsufficientFieldError, Rationals, memo,
                     nth_roots_of_unity)
from .jacobian import CurveError, involution
from .numth import divisors, hyperelliptic_cert
from .polyring import Poly, diff_power
from .torsion import CertError, PairCert, make_pair


@memo
def eta_roots(F, n):
    """The abscissa labels eta = 1/(eps - 1) of all eps in M(n), in canonical
    zeta-power order, as a tuple.

    Found once per field and n, when they also pass the product identity
    n * prod(x - eta) = (x+1)^n - x^n.
    """
    labels = tuple(F.inv(F.sub(eps, F.one)) for eps in nth_roots_of_unity(F, n))
    if (_linear_product(F, labels, [1] * len(labels), n)
            != diff_power(F, F.zero, F.neg(F.one), n)):
        raise FieldError("eta product identity failed; roots are inconsistent")
    return labels


def _linear_product(F, labels, multiplicity, c=1):
    """c * prod (x - eta)^m over the eta labels, m the label's multiplicity."""
    prod = Poly.const(F, F.coerce(c))
    for eta, e in zip(labels, multiplicity):
        if e:
            prod = prod * Poly(F, [F.neg(eta), F.one]) ** e
    return prod


@dataclass(frozen=True)
class Template:
    """The factor pair (Upsilon, (2l+1) * Upsilon_bar) of an exponent function
    on M(2l+1) for n = q(2l+1): Upsilon is the product of (x - eta)^v over
    the eta labels (the tuple eta_roots hands out), Upsilon_bar that of
    (x - eta)^(q - v).  At q = 1 the values are the indicator of a g-subset I."""

    labels: tuple
    values: tuple
    q: int = 1

    @property
    def g(self):
        return (self.q * (len(self.labels) + 1) - 1) // 2

    @property
    def I(self):
        """The labels where v exceeds q/2: the set I of an upsilon_{I,J}."""
        return tuple(i for i, v in enumerate(self.values) if 2 * v > self.q)

    @property
    def bar(self):
        return Template(self.labels, tuple(self.q - v for v in self.values), self.q)

    def class_key(self):
        """Symmetry-class representative: {values, bar} as an unordered pair."""
        return frozenset((self.values, self.bar.values))

    def factors(self, F):
        return (_linear_product(F, self.labels, self.values),
                _linear_product(F, self.labels, [self.q - v for v in self.values],
                                len(self.labels) + 1))


def _subset_templates(labels, q):
    """The C(2l, l) templates taking (q+1)/2 on an l-subset I of the 2l labels
    and (q-1)/2 off it, in subset order; for odd q all are admissible."""
    m = len(labels)
    hi, lo = (q + 1) // 2, (q - 1) // 2
    for I in itertools.combinations(range(m), m // 2):
        yield Template(labels, tuple(hi if i in I else lo for i in range(m)), q)


def nice_pairs_coprime(F, g):
    """All C(2g, g) coprime-regime templates over F: the subset walk at q = 1."""
    n = 2 * g + 1
    if F.char and n % F.char == 0:
        raise FieldError(f"characteristic {F.char} divides 2g+1 = {n}")
    yield from _subset_templates(eta_roots(F, n), 1)


def symmetry_classes(templates):
    """Group templates into curve families: (u1,u2) swaps and sign flips
    identify a template with its bar, so each class is {values, bar}."""
    classes = {}
    for t in templates:
        classes.setdefault(t.class_key(), []).append(t)
    return list(classes.values())


def check_admissible(p, k, l, values):
    """Refuse values that are no admissible exponent function on M(2l+1) for
    n = p^k(2l+1) in characteristic p."""
    _check_k(k)
    q = p ** k
    g = (q * (2 * l + 1) - 1) // 2
    if len(values) != 2 * l:
        raise ValueError(f"need {2 * l} values, got {len(values)}")
    if any(v < 0 or v > q for v in values):
        raise ValueError(f"values must lie in [0, {q}]")
    if all(v % p == 0 for v in values):
        raise ValueError("some value must be nonzero mod p")
    if sum(values) > g:
        raise ValueError("deg upsilon exceeds g")
    if sum(q - v for v in values) > g:
        raise ValueError("deg of the complementary function exceeds g")


def _check_k(k):
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")


def char_templates(F, p, k, l, ij_only=True):
    """Templates for n = p^k(2l+1) over F of characteristic p: the
    upsilon_{I,J} subset walk at q = p^k, or with ij_only false every
    admissible exponent function, in tuple order."""
    labels = eta_roots(F, 2 * l + 1)
    _check_k(k)
    if F.char != p:
        raise FieldError(f"field characteristic {F.char} != p = {p}")
    q = p ** k
    if ij_only:
        yield from _subset_templates(labels, q)
        return
    for values in itertools.product(range(q + 1), repeat=2 * l):
        try:
            check_admissible(p, k, l, values)
        except ValueError:
            continue
        yield Template(labels, values, q)


def mu_candidates(F):
    """Deterministic scan order of the nonzero mu: the elements 1 .. q-1 of
    GF(q), in canonical order; 1, -1, 2, -2, ... for Q."""
    if F.is_finite:
        yield from range(1, F.order)
    else:
        n = 1
        while True:
            yield F.coerce(n)
            yield F.coerce(-n)
            n += 1


def family_pair(g, factors, mu):
    """(PairCert, enhanced curve) of (u1, u2) = (mu * A, B / mu) at abscissas
    0 and -1, for the factor pair (A, B) and a nonzero mu of their field;
    raises CertError or CurveError as PairCert and make_pair do."""
    A, B = factors
    F = A.ctx
    cert = PairCert(g, F.zero, F.neg(F.one), A.scale(mu), B.scale(F.inv(mu)))
    return cert, make_pair(cert)


def find_good_mu(g, factors):
    """(mu, PairCert, enhanced curve) at the first mu in scan order for which
    family_pair succeeds.  A finite field can run out: only finitely many mu
    are bad, so a degree-2 extension is recommended on exhaustion, as it is
    for a pair PairCert or make_pair refuses at every mu."""
    for mu in mu_candidates(factors[0].ctx):
        try:
            return (mu, *family_pair(g, factors, mu))
        except (CertError, CurveError):
            pass
    raise InsufficientFieldError(
        "no good mu in the scan; a degree-2 extension provides one",
        extension_degree=2)


def _zz_divmod_exact(a, b):
    """Exact quotient of integer polynomials, ascending coefficients."""
    r, db = list(a), len(b) - 1
    q = [0] * (len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        if r[i] % b[-1]:
            raise ValueError("integer polynomial division is not exact")
        q[i - db] = factor = r[i] // b[-1]
        for j in range(db + 1):
            r[i - db + j] -= factor * b[j]
    if any(r):
        raise ValueError("integer polynomial division leaves a remainder")
    return q


def _psi_factors(n):
    """{d: Psi_d(x) = x^phi(d) Phi_d(1 + 1/x)} over the divisors d > 1 of n, as
    integer lists: (x+1)^d - x^d is the product of the Psi_e, 1 < e | d."""
    psi = {}
    for d in divisors(n)[1:]:
        q = [math.comb(d, k) for k in range(d)]   # (x+1)^d - x^d
        for e, psi_e in psi.items():
            if d % e == 0:
                q = _zz_divmod_exact(q, psi_e)
        psi[d] = q
    return psi


def rational_four_torsion(g):
    """A genus-g curve over Q with four rational points of order 2g+1.

    Requires n = 2g+1 to be a hyperelliptic number; u1, u2, the products of
    the Psi_d over the two sets of the totient certificate, multiply to
    (x+1)^n - x^n: a marked-pair certificate at abscissas 0 and -1."""
    n = 2 * g + 1
    partition = hyperelliptic_cert(n)
    if partition is None:
        raise ValueError(f"2g+1 = {n} is not a hyperelliptic number")
    F = Rationals()
    psi = _psi_factors(n)
    u1, u2 = (math.prod((Poly.from_ints(F, psi[d]) for d in S),
                        start=Poly.const(F, F.one))
              for S in (partition.S1, partition.S2))
    # the mu scan over Q is unbounded, so a wrong degree must stop here
    if u1.degree != g or u2.degree != g:
        raise ValueError(f"partition factors have degrees {u1.degree}, "
                         f"{u2.degree}; expected g = {g}")
    mu, cert, enh = find_good_mu(g, (u1, u2))
    P, Q = enh.P, enh.Q
    return enh.C, [P, involution(P, F), Q, involution(Q, F)], cert, mu
