"""Hyperelliptic numbers: totient subset-sum certificates and fast filters.

An odd n = 2g+1 is *hyperelliptic* when the divisors of n greater than 1
split into two sets whose totients each sum to g.  The certificate search is
exhaustive in increasing subset size over descending divisors (so the
smallest, most readable certificate is reported); a bitset subset-sum pass
decides existence first when the divisor count is large.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .fields import factorize


def totient(n):
    phi = n
    for p in factorize(n):
        phi -= phi // p
    return phi


def divisors(n):
    """All positive divisors of n, ascending."""
    out = [1]
    for p, e in factorize(n).items():
        out = [d * p ** k for d in out for k in range(e + 1)]
    return sorted(out)


@dataclass(frozen=True)
class TotientPartition:
    """A split of the nontrivial divisors of n with equal totient sums."""

    n: int
    S1: tuple
    S2: tuple

    def __post_init__(self):
        g = (self.n - 1) // 2
        all_divs = set(divisors(self.n)) - {1}
        if set(self.S1) | set(self.S2) != all_divs or set(self.S1) & set(self.S2):
            raise ValueError("S1, S2 must partition the divisors of n above 1")
        if sum(totient(d) for d in self.S1) != g:
            raise ValueError("S1 totients do not sum to (n-1)/2")
        if sum(totient(d) for d in self.S2) != g:
            raise ValueError("S2 totients do not sum to (n-1)/2")

    def to_json(self):
        return {"n": self.n, "S1": list(self.S1), "S2": list(self.S2)}

    @classmethod
    def from_json(cls, obj):
        return cls(obj["n"], tuple(obj["S1"]), tuple(obj["S2"]))


_EXHAUSTIVE_LIMIT = 20

# The most subsets a certificate search may try.  At about 0.3 us a subset
# (2-core host) the largest search allowed takes about 0.6 s.  45045 needs
# 1,729,647 (all subsets of size <= 5); the scan to 5001 tries at most
# 524,287 (4455); 99645, whose smallest certificate has 9 of its 31
# divisors above 1, would try more than 11 million (sizes <= 8 alone).
MAX_CERT_SUBSETS = 2_000_000


class SearchTooLongError(ValueError):
    """The certificate search would try more than MAX_CERT_SUBSETS subsets."""


def _subset_sum_exists(weights, target):
    """Bitset subset-sum: is some subset of weights summing to target?"""
    mask = (1 << (target + 1)) - 1
    bits = 1
    for w in weights:
        if w <= target:
            bits = (bits | (bits << w)) & mask
    return bool(bits >> target & 1)


def hyperelliptic_cert(n):
    """A TotientPartition for odd n >= 3, or None if none exists.  Raises
    SearchTooLongError before a subset size that would take the subsets
    tried past MAX_CERT_SUBSETS."""
    if n < 3 or n % 2 == 0:
        raise ValueError(f"n must be odd and >= 3, got {n}")
    g = (n - 1) // 2
    divs = [d for d in divisors(n) if d > 1]
    divs.sort(reverse=True)
    phis = {d: totient(d) for d in divs}
    usable = [d for d in divs if phis[d] <= g]
    weights = [phis[d] for d in usable]
    if len(divs) > _EXHAUSTIVE_LIMIT and not _subset_sum_exists(weights, g):
        return None
    tried = 0
    for size in range(1, len(usable) + 1):
        tried += math.comb(len(usable), size)
        if tried > MAX_CERT_SUBSETS:
            raise SearchTooLongError(
                f"the certificate search for n = {n} would try more than "
                f"{MAX_CERT_SUBSETS} subsets of its divisors")
        # the totient tuples run in step with the divisor tuples
        for ws, combo in zip(itertools.combinations(weights, size),
                             itertools.combinations(usable, size)):
            if sum(ws) == g:
                s1 = set(combo)
                s2 = tuple(d for d in divs if d not in s1)
                return TotientPartition(n, combo, s2)
    return None


@dataclass(frozen=True)
class FilterResult:
    """Outcome of the structural non-existence filter."""

    hyperelliptic_possible: bool
    case: str | None = None  # "i" | "ii" | "iii" when ruled out

    def to_json(self):
        if self.hyperelliptic_possible:
            return {"verdict": "unknown"}
        return {"verdict": "not-hyperelliptic", "case": self.case}


def overq_filter(n):
    """Structural filter: three shapes of n force phi(n) > (n-1)/2, which
    rules out any totient partition.  'Unknown' is silence, not existence.
    """
    if n < 3 or n % 2 == 0:
        raise ValueError(f"n must be odd and >= 3, got {n}")
    primes = sorted(factorize(n))
    g = (n - 1) // 2
    if len(primes) == 1:
        case = "i"
    elif len(primes) == 2:
        case = "ii"
    elif len(primes) == 3 and 3 not in primes:
        case = "iii"
    else:
        return FilterResult(True)
    if totient(n) <= g:
        raise ValueError(f"filter case {case} without its totient bound "
                         f"for n={n}")
    return FilterResult(False, case)


def hyperelliptic_scan(max_n):
    """All hyperelliptic numbers in [3, max_n], with filter cross-validation."""
    if max_n < 3:
        raise ValueError(f"max must be >= 3, got {max_n}")
    found = []
    for n in range(3, max_n + 1, 2):
        cert = hyperelliptic_cert(n)
        if not overq_filter(n).hyperelliptic_possible and cert is not None:
            raise AssertionError(f"filter rejected n={n} but a certificate exists")
        if cert is not None:
            found.append(n)
    return found
