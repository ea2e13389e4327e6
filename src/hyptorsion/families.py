"""Parameterized families of enhanced curves with marked abscissas 0 and -1.

Normalized curves with two marked points of order n = 2g+1 come from
factorizations u1*u2 = (x+1)^n - x^n.  When the characteristic is prime to n
the factors are scaled products of (x - eta(eps)) over a g-element subset of
the nontrivial n-th roots of unity; when n = p^k(2l+1) in characteristic p
the multiplicities follow an admissible exponent function on M(2l+1).  The
free scalar mu is pinned down by a squarefreeness scan, and the rational
genus-52 construction follows the cyclotomic subset-sum route.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .fields import FieldError, InsufficientFieldError, Rationals, nth_roots_of_unity
from .jacobian import CurveError, involution
from .numth import TotientPartition, hyperelliptic_cert
from .polyring import Poly, cyclotomic, reverse_scale
from .torsion import CertError, EnhancedCurve, PairCert, make_pair


@dataclass(frozen=True)
class RootLabel:
    """A nontrivial root of unity eps with its abscissa label eta = 1/(eps-1)."""

    eps: object
    eta: object


def eta_roots(F, n):
    """RootLabels for all eps in M(n), in canonical zeta-power order.

    Verifies the product identity n * prod(x - eta(eps)) = (x+1)^n - x^n
    before returning.
    """
    labels = []
    for eps in nth_roots_of_unity(F, n):
        eta = F.inv(F.sub(eps, F.one))
        labels.append(RootLabel(eps, eta))
    prod = Poly.const(F, F.coerce(n))
    for lab in labels:
        prod = prod * Poly(F, [F.neg(lab.eta), F.one])
    x1 = Poly(F, [F.one, F.one])
    x = Poly.x(F)
    if prod != x1 ** n - x ** n:
        raise FieldError("eta product identity failed; roots are inconsistent")
    return labels


def _linear_product(F, labels, indices, multiplicity=None):
    prod = Poly.const(F, F.one)
    for i in indices:
        factor = Poly(F, [F.neg(labels[i].eta), F.one])
        e = multiplicity[i] if multiplicity is not None else 1
        prod = prod * factor ** e
    return prod


@dataclass(frozen=True)
class CoprimeTemplate:
    """u1 = mu * H_I, u2 = ((2g+1)/mu) * H_complement(I), |I| = g."""

    g: int
    labels: tuple
    I: tuple

    @property
    def complement(self):
        in_I = set(self.I)
        return tuple(i for i in range(len(self.labels)) if i not in in_I)

    def class_key(self):
        """Symmetry-class representative: {I, complement} as an unordered pair."""
        return frozenset((self.I, self.complement))

    def u_pair(self, F, mu):
        n = 2 * self.g + 1
        u1 = _linear_product(F, self.labels, self.I).scale(mu)
        u2 = _linear_product(F, self.labels, self.complement).scale(
            F.div(F.coerce(n), mu))
        return u1, u2

    def to_json(self, mu=None, F=None):
        out = {"regime": "coprime", "I": list(self.I)}
        if mu is not None:
            out["mu"] = F.elem_to_json(mu)
        return out


def nice_pairs_coprime(F, g):
    """All C(2g, g) coprime-regime templates over F, in subset order."""
    n = 2 * g + 1
    if F.char and n % F.char == 0:
        raise FieldError(f"characteristic {F.char} divides 2g+1 = {n}")
    labels = tuple(eta_roots(F, n))
    for I in itertools.combinations(range(2 * g), g):
        yield CoprimeTemplate(g, labels, I)


def symmetry_classes(templates):
    """Group templates into curve families: (u1,u2) swaps and sign flips
    identify I with its complement, so each class is {I, complement(I)}."""
    classes = {}
    for t in templates:
        classes.setdefault(t.class_key(), []).append(t)
    return list(classes.values())


@dataclass(frozen=True)
class AdmissibleFn:
    """Exponent function on M(2l+1) for n = p^k(2l+1) in characteristic p."""

    p: int
    k: int
    l: int
    values: tuple

    def __post_init__(self):
        _check_k(self.k)
        q = self.p ** self.k
        g = (q * (2 * self.l + 1) - 1) // 2
        if len(self.values) != 2 * self.l:
            raise ValueError(f"need {2 * self.l} values, got {len(self.values)}")
        if any(v < 0 or v > q for v in self.values):
            raise ValueError(f"values must lie in [0, {q}]")
        if all(v % self.p == 0 for v in self.values):
            raise ValueError("some value must be nonzero mod p")
        if sum(self.values) > g:
            raise ValueError("deg upsilon exceeds g")
        if sum(q - v for v in self.values) > g:
            raise ValueError("deg of the complementary function exceeds g")

    @property
    def bar(self):
        q = self.p ** self.k
        return AdmissibleFn(self.p, self.k, self.l, tuple(q - v for v in self.values))


def admissible_enum(F, p, k, l):
    """All admissible exponent functions for n = p^k(2l+1) over F."""
    _check_char_regime(F, p, k, l)
    q = p ** k
    for values in itertools.product(range(q + 1), repeat=2 * l):
        try:
            yield AdmissibleFn(p, k, l, values)
        except ValueError:
            continue


def upsilon_ij_enum(F, p, k, l):
    """The C(2l, l) functions taking (p^k+1)/2 on a set I and (p^k-1)/2 on
    its complement J; all are admissible."""
    _check_char_regime(F, p, k, l)
    q = p ** k
    hi, lo = (q + 1) // 2, (q - 1) // 2
    for I in itertools.combinations(range(2 * l), l):
        values = tuple(hi if i in I else lo for i in range(2 * l))
        yield AdmissibleFn(p, k, l, values)


def _check_k(k):
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")


def _check_char_regime(F, p, k, l):
    _check_k(k)
    if F.char != p:
        raise FieldError(f"field characteristic {F.char} != p = {p}")
    if (2 * l + 1) % p == 0:
        raise FieldError(f"p = {p} must not divide 2l+1 = {2 * l + 1}")


@dataclass(frozen=True)
class CharTemplate:
    """u1 = mu * Upsilon_upsilon, u2 = ((2l+1)/mu) * Upsilon_bar, with
    Upsilon the multiplicity product over the eta labels of M(2l+1)."""

    ups: AdmissibleFn
    labels: tuple

    @property
    def g(self):
        q = self.ups.p ** self.ups.k
        return (q * (2 * self.ups.l + 1) - 1) // 2

    def u_pair(self, F, mu):
        all_idx = range(len(self.labels))
        u1 = _linear_product(F, self.labels, all_idx, self.ups.values).scale(mu)
        bar = self.ups.bar
        u2 = _linear_product(F, self.labels, all_idx, bar.values).scale(
            F.div(F.coerce(2 * self.ups.l + 1), mu))
        return u1, u2

    def to_json(self, mu=None, F=None):
        out = {"regime": "char", "upsilon": list(self.ups.values)}
        if mu is not None:
            out["mu"] = F.elem_to_json(mu)
        return out


def char_templates(F, p, k, l, ij_only=True):
    labels = tuple(eta_roots(F, 2 * l + 1))
    source = upsilon_ij_enum(F, p, k, l) if ij_only else admissible_enum(F, p, k, l)
    for ups in source:
        yield CharTemplate(ups, labels)


def mu_candidates(F):
    """Deterministic mu scan order: field enumeration order for GF,
    1, -1, 2, -2, ... for Q."""
    if F.is_finite:
        for i in range(1, F.order):
            yield F.from_index(i)
    else:
        n = 1
        while True:
            yield Fraction(n)
            yield Fraction(-n)
            n += 1


def find_good_mu(F, g, template):
    """First mu (in scan order) making f squarefree; returns the scalar and
    the enhanced curve.  A finite field can run out: only finitely many mu
    are bad, so a degree-2 extension is recommended on exhaustion, as it is
    for a template that PairCert or make_pair refuses at every mu."""
    zero, minus1 = F.zero, F.neg(F.one)
    for mu in mu_candidates(F):
        if mu == zero:
            continue
        try:
            u1, u2 = template.u_pair(F, mu)
            cert = PairCert(g, zero, minus1, u1, u2)
            enh = make_pair(F, g, cert)
        except (CertError, CurveError):
            continue
        return mu, cert, enh
    raise InsufficientFieldError(
        "no good mu in the scan; a degree-2 extension provides one",
        extension_degree=2)


def rational_four_torsion(g, partition: TotientPartition | None = None):
    """A genus-g curve over Q with four rational points of order 2g+1.

    Requires 2g+1 to be a hyperelliptic number; the totient certificate
    splits the cyclotomic product (x^n - 1)/(x - 1) into two degree-g
    factors, which after x -> x+1 and coefficient reversal give the u1, u2
    of a marked-pair certificate at abscissas 0 and -1.
    """
    n = 2 * g + 1
    if partition is None:
        partition = hyperelliptic_cert(n)
        if partition is None:
            raise ValueError(f"2g+1 = {n} is not a hyperelliptic number")
    elif partition.n != n:
        raise ValueError("partition does not match 2g+1")
    F = Rationals()
    w1 = Poly.const(F, F.one)
    for d in partition.S1:
        w1 = w1 * cyclotomic(d, F)
    w2 = Poly.const(F, F.one)
    for d in partition.S2:
        w2 = w2 * cyclotomic(d, F)
    if w1.degree != g or w2.degree != g:
        raise ValueError(f"partition factors have degrees {w1.degree}, "
                         f"{w2.degree}; expected g = {g}")
    u1 = reverse_scale(w1.shift(F.one), F.one)
    u2 = reverse_scale(w2.shift(F.one), F.one)
    mu, cert, enh = find_good_mu(F, g, _FixedPair(u1, u2))
    P, Q = enh.P, enh.Q
    points = [P, involution(P, F), Q, involution(Q, F)]
    return enh.C, points, cert, mu


@dataclass(frozen=True)
class _FixedPair:
    """Template wrapper around an explicit (u1, u2) factorization."""

    u1: Poly
    u2: Poly

    def u_pair(self, F, mu):
        return self.u1.scale(mu), self.u2.scale(F.inv(mu))
