"""Hyperelliptic numbers: totient subset-sum certificates and fast filters.

An odd n = 2g+1 is *hyperelliptic* when the divisors of n greater than 1
split into two sets whose totients each sum to g.  A bitset subset-sum pass
decides whether a split exists; a table of the sums reachable with exactly k
of the divisors (Kellerer, Pferschy and Pisinger, *Knapsack Problems*, ch. 4)
then gives the least k and the first such k-set of the descending divisors in
lexicographic order: the smallest, most readable certificate.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fields import factorize, totient


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


# The most bits the certificate table may hold, summed over the bit lengths
# of its entries as they are added; an entry holds at most (n-1)/2 + 1 bits.
# Near n = 10^8 a search refused at this bound stops within 1.2 s at 325 MB
# peak RSS (99883665), and 99999405 answers in 0.9 s at 246 MB (1.56e9 bits).
MAX_TABLE_BITS = 2 ** 31


class SearchTooLongError(ValueError):
    """The certificate table would hold more than MAX_TABLE_BITS bits."""


def hyperelliptic_cert(n):
    """A TotientPartition for odd n >= 3, or None if none exists.  Raises
    SearchTooLongError before the table holds more than MAX_TABLE_BITS."""
    if n < 3 or n % 2 == 0:
        raise ValueError(f"n must be odd and >= 3, got {n}")
    g = (n - 1) // 2
    divs = sorted((d for d in divisors(n) if d > 1), reverse=True)
    usable = [d for d in divs if totient(d) <= g]
    weights = [totient(d) for d in usable]
    mask, m, reach = (1 << (g + 1)) - 1, len(usable), 1
    for w in weights:       # bitset subset sum: does any split exist?
        reach = (reach | reach << w) & mask
    if not reach >> g & 1:
        return None
    # layers[k][i]: bit s set when some k of weights[i:] sum to s
    layers, held = [[1] * (m + 1)], m + 1
    while not layers[-1][0] >> g & 1:
        prev, layer = layers[-1], [0] * (m + 1)
        for i in range(m - 1, -1, -1):
            layer[i] = (layer[i + 1] | prev[i + 1] << weights[i]) & mask
            held += layer[i].bit_length()
            if held > MAX_TABLE_BITS:
                raise SearchTooLongError(f"the certificate table for n = {n} "
                                         f"would hold more than {MAX_TABLE_BITS} bits")
        layers.append(layer)
    # take the lowest index whose remainder still reaches: the first
    # combination of the least size in itertools.combinations order
    combo, i, rest = [], 0, g
    for k in range(len(layers) - 1, 0, -1):
        while weights[i] > rest or not layers[k - 1][i + 1] >> (rest - weights[i]) & 1:
            i += 1
        combo.append(usable[i])
        rest -= weights[i]
        i += 1
    return TotientPartition(n, tuple(combo), tuple(d for d in divs if d not in combo))


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
