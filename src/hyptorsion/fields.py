"""Exact field arithmetic: Q, GF(p) and GF(p^m) for odd primes p.

Field contexts are immutable and shareable, and compare by value (`Field`);
elements are plain canonical values, so equality of elements is equality of
representations.  An element of Q is a Fraction; the elements of a finite
field of order q are the ints 0 .. q-1 (`FiniteFieldMixin` states the
contract).  Up to _TABLE_MAX elements, GF(p^m) arithmetic is
exp/log/Zech-logarithm table lookup; above it, each operation reduces modulo
the defining polynomial.

Each field also owns the arithmetic of polynomials over it, on coefficient
sequences (`poly_add`, ..., `poly_invmod`): GF(p) and GF(p^m) run the
generic loops of `Field` over their element operations, and Q takes gcds by
modular images and then a primitive PRS over the integers.  Untabled GF(p^m)
elements and the modulus search run on the polynomials of one GF(p).

A GF(p^m) built from a seed takes the first irreducible of a seeded stream
of random monic candidates, tested by Ben-Or's distinct-degree test, which
drops most reducible candidates after a few Frobenius powers.  A process
finds each field's facts once: the modulus of each (p, m, seed), and per
field value (p and modulus) its tables, roots of unity and quadratic
non-residue.  Each memo (`memo`) keeps the 16 keys used most recently, and
the memoized functions hand out their cached ints and tuples as they are.
`order_from_multiple` finds the order of an element of any group from a
known multiple of it, for unit groups here and for Jacobians in `jacobian`.
"""

from __future__ import annotations

import functools
import math
import random
from fractions import Fraction


class FieldError(Exception):
    pass


class InsufficientFieldError(FieldError):
    """The field lacks a required root; carries the minimal extension degree."""

    def __init__(self, message, extension_degree):
        super().__init__(message)
        self.extension_degree = extension_degree


# Miller-Rabin to these bases, the first 13 primes, is exact below
# _MR_EXACT_BELOW, the least strong pseudoprime to all of them (Sorenson and
# Webster, Math. Comp. 86, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3317044064679887385961981


def is_prime(n):
    """Whether n is prime.  Exact below 3317044064679887385961981 (about
    3.3e24), by Miller-Rabin to the 13 prime bases 2 .. 41; from there on
    Baillie-PSW, those bases and a strong Lucas test, which no known
    composite passes."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return n < _MR_EXACT_BELOW or _is_strong_lucas_prp(n)


def _jacobi(a, n):
    """The Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _is_strong_lucas_prp(n):
    """Strong Lucas probable-prime test of an odd n > 41 with no factor
    below 43, with Selfridge's parameters: D the first of 5, -7, 9, -11, ...
    with (D/n) = -1, P = 1 and Q = (1 - D)/4 (Baillie and Wagstaff, Math.
    Comp. 35, 1980)."""
    if math.isqrt(n) ** 2 == n:
        return False            # no D has (D/n) = -1
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0:
            return False        # gcd(|D|, n) > 1 and |D| < n
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1

    def half(x):
        return (x if x % 2 == 0 else x + n) // 2

    # U_k, V_k and Q^k mod n, from k = 0 along the bits of d.
    U, V, Qk = 0, 2, 1
    for bit in bin(d)[2:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V, Qk = half((U + V) % n), half((D * U + V) % n), Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


def factorize(n):
    """Prime factorization as a dict prime -> exponent, primes ascending
    (trial division)."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def order_from_multiple(n, is_one):
    """The order of a group element whose order divides n, where is_one(m)
    says whether its m-th power is the identity: divides each prime out of n
    as far as is_one allows."""
    order = n
    for r in factorize(n):
        while order % r == 0 and is_one(order // r):
            order //= r
    return order


def totient(n):
    phi = n
    for p in factorize(n):
        phi -= phi // p
    return phi


class Field:
    """A field context, shared and immutable.  Q, GF(p) and GF(p^m) each
    define the pure element operations `coerce` (of an int), `add`, `sub`,
    `mul`, `neg`, `inv`, `pow_el`, `canonical_min` (the canonically smaller
    of a and -a, which fixes signs reproducibly) and `sqrt` (a square root
    with canonical sign, or None); the JSON maps `elem_to_json`,
    `elem_from_json` and `to_json`; and `char`, `is_finite`, `zero` and
    `one`.  A field is its value `_key`, "Q", ("GF", p) or ("GF", p,
    modulus): fields compare and hash by it, however they were built."""

    char: int
    is_finite: bool
    _key: object

    def __eq__(self, other):
        return isinstance(other, Field) and other._key == self._key

    def __hash__(self):
        return hash(self._key)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    # -- polynomials ---------------------------------------------------------
    # A polynomial is a sequence of coefficients, lowest degree first.  The
    # results carry no trailing zeros when the operands carry none; a divisor
    # and the operands of poly_gcd, poly_xgcd and the modulus of the *mod
    # methods must carry none.  These bodies are the generic loops over the
    # element operations; a field with its own polynomial arithmetic
    # overrides them.

    def poly_add(self, a, b):
        n = max(len(a), len(b))
        return _trim(list(map(self.add, _pad(a, n, self.zero), _pad(b, n, self.zero))),
                     self.zero)

    def poly_sub(self, a, b):
        n = max(len(a), len(b))
        return _trim(list(map(self.sub, _pad(a, n, self.zero), _pad(b, n, self.zero))),
                     self.zero)

    def poly_mul(self, a, b):
        if not a or not b:
            return []
        zero, add, mul = self.zero, self.add, self.mul
        out = [zero] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x == zero:
                continue
            for j, y in enumerate(b):
                out[i + j] = add(out[i + j], mul(x, y))
        return out

    def poly_divmod(self, a, b):
        if not b:
            raise ZeroDivisionError("polynomial division by zero")
        zero, sub, mul = self.zero, self.sub, self.mul
        r = list(a)
        db = len(b) - 1
        if len(r) <= db:
            return [], r
        inv_lead = self.inv(b[-1])
        q = [zero] * (len(r) - db)
        for i in range(len(r) - 1, db - 1, -1):
            c = r[i]
            if c == zero:
                continue
            factor = mul(c, inv_lead)
            q[i - db] = factor
            for j in range(db + 1):
                r[i - db + j] = sub(r[i - db + j], mul(factor, b[j]))
        return _trim(q, zero), _trim(r[:db], zero)

    def poly_gcd(self, a, b):
        """The monic gcd, or the zero polynomial when both are zero."""
        while b:
            a, b = b, self.poly_divmod(a, b)[1]
        return self._poly_monic(a)

    def poly_xgcd(self, a, b):
        """(g, s, t) with s*a + t*b = g, g monic (or zero)."""
        r0, r1 = list(a), list(b)
        s0, s1 = [self.one], []
        t0, t1 = [], [self.one]
        while r1:
            q, r = self.poly_divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, self.poly_sub(s0, self.poly_mul(q, s1))
            t0, t1 = t1, self.poly_sub(t0, self.poly_mul(q, t1))
        if not r0:
            return r0, s0, t0
        inv = self.inv(r0[-1])
        return tuple([self.mul(inv, c) for c in p] for p in (r0, s0, t0))

    def poly_eval(self, a, x):
        add, mul = self.add, self.mul
        acc = self.zero
        for c in reversed(a):
            acc = add(mul(acc, x), c)
        return acc

    def poly_mulmod(self, a, b, mod):
        return self.poly_divmod(self.poly_mul(a, b), mod)[1]

    def poly_powmod(self, a, e, mod):
        """a^e modulo mod, for e >= 0, by right-to-left binary powering."""
        result, base = [self.one], self.poly_divmod(a, mod)[1]
        while e:
            if e & 1:
                result = self.poly_mulmod(result, base, mod)
            base = self.poly_mulmod(base, base, mod)
            e >>= 1
        return result

    def poly_invmod(self, a, mod):
        """The inverse of a modulo mod, reduced; raises ZeroDivisionError
        when they are not coprime."""
        g, s, _ = self.poly_xgcd(a, mod)
        if g != [self.one]:
            raise ZeroDivisionError("element not invertible")
        return self.poly_divmod(s, mod)[1]

    def _poly_monic(self, a):
        if not a:
            return []
        inv = self.inv(a[-1])
        return [self.mul(inv, c) for c in a]


def _pad(a, n, zero):
    return list(a) + [zero] * (n - len(a))


def _trim(a, zero):
    """Drop the trailing zeros of the list a, in place."""
    while a and a[-1] == zero:
        a.pop()
    return a


def _is_json_int(obj):
    return isinstance(obj, int) and not isinstance(obj, bool)


class Rationals(Field):
    char = 0
    is_finite = False
    _key = "Q"

    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, n):
        return Fraction(n)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return 1 / a

    def pow_el(self, a, e):
        return a ** e

    def canonical_min(self, a):
        return abs(a)

    def sqrt(self, a):
        if a < 0:
            return None
        num, den = a.numerator, a.denominator
        rn, rd = math.isqrt(num), math.isqrt(den)
        if rn * rn != num or rd * rd != den:
            return None
        return Fraction(rn, rd)

    def elem_to_json(self, a):
        return f"{a.numerator}/{a.denominator}"

    def elem_from_json(self, obj):
        if isinstance(obj, str) or _is_json_int(obj):
            try:
                return Fraction(obj)
            except ZeroDivisionError:
                raise ValueError(f"zero denominator in {obj!r}") from None
            except ValueError:
                pass
        raise ValueError(f"cannot parse rational from {obj!r}")

    def to_json(self):
        return {"kind": "Q"}

    def poly_mul(self, a, b):
        """Over Z: take out each operand's common denominator, convolve the
        integer numerators and divide once per coefficient."""
        if not a or not b:
            return []
        (da, ia), (db, ib) = _clear_denominators(a), _clear_denominators(b)
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(ia):
            if x:
                for j, y in enumerate(ib):
                    out[i + j] += x * y
        den = da * db
        return [Fraction(c, den) for c in out]

    def poly_gcd(self, a, b):
        """Primitive PRS on integer polynomials, which keeps coefficient
        growth in check at large degree.  Coprime images modulo a prime that
        divides neither leading coefficient settle a gcd of 1 first: a common
        factor over Q divides both in Z[x], and keeps its degree mod p."""
        fa, fb = _to_zz(a), _to_zz(b)
        if not fa:
            return self._poly_monic(b)
        if not fb:
            return self._poly_monic(a)
        for F in _GCD_FIELDS:
            p = F.p
            if fa[-1] % p and fb[-1] % p and F.poly_gcd(
                    [c % p for c in fa], [c % p for c in fb]) == [1]:
                return [self.one]
        if len(fa) < len(fb):
            fa, fb = fb, fa
        while fb:
            fa, fb = fb, _zz_primitive(_zz_prem(fa, fb))
        return self._poly_monic([Fraction(c) for c in fa])

    def __repr__(self):
        return "Q"


def _clear_denominators(a):
    """(d, the integers c * d) for the least common denominator d of the
    rational coefficients c of a."""
    den = math.lcm(*(c.denominator for c in a))
    return den, [c.numerator * (den // c.denominator) for c in a]


def _to_zz(a):
    """Primitive integer coefficient list of a rational polynomial."""
    return _zz_primitive(_clear_denominators(a)[1]) if a else []


def _zz_primitive(a):
    content = 0
    for c in a:
        content = math.gcd(content, c)
    if content in (0, 1):
        return list(a)
    return [c // content for c in a]


def _zz_prem(a, b):
    """Pseudo-remainder of integer polynomials, lc(b)^(da-db+1) * a mod b."""
    da, db = len(a) - 1, len(b) - 1
    lead = b[-1]
    r = list(a)
    for i in range(da, db - 1, -1):
        if len(r) - 1 < i:
            r = [c * lead for c in r]
            continue
        c = r[i]
        r = [v * lead for v in r]
        for j in range(db + 1):
            r[i - db + j] -= c * b[j]
        while r and r[-1] == 0:
            r.pop()
    return r


class FiniteFieldMixin:
    """The element contract of GF(p) and GF(p^m): the elements of a field of
    order q are the ints 0 .. q-1, and int order is canonical order.  A GF(p)
    element is its least nonnegative residue; a GF(p^m) element is the index
    sum(c_j p^j) of its residue polynomial sum(c_j x^j) modulo the defining
    polynomial.  So zero is 0, one is 1, the integer n coerces to n mod p,
    and elements() is range(q); the square roots and canonical signs below
    rest on this."""

    is_finite = True

    def coerce(self, n):
        return n % self.p

    def elements(self):
        """All field elements in canonical order."""
        return range(self.order)

    def canonical_min(self, a):
        return min(a, self.neg(a))

    def is_square(self, a):
        if a == self.zero:
            return True
        return self.pow_el(a, (self.order - 1) // 2) == self.one

    def sqrt(self, a):
        if a == self.zero:
            return a
        q = self.order
        if not self.is_square(a):
            return None
        if q % 4 == 3:
            s = self.pow_el(a, (q + 1) // 4)
        else:
            # Tonelli-Shanks over the multiplicative group of order q - 1.
            d, e = q - 1, 0
            while d % 2 == 0:
                d //= 2
                e += 1
            z = _nonresidue(self)
            m, c = e, self.pow_el(z, d)
            t, r = self.pow_el(a, d), self.pow_el(a, (d + 1) // 2)
            while t != self.one:
                i, t2 = 0, t
                while t2 != self.one:
                    t2 = self.mul(t2, t2)
                    i += 1
                b = self.pow_el(c, 1 << (m - i - 1))
                m, c = i, self.mul(b, b)
                t, r = self.mul(t, c), self.mul(r, b)
            s = r
        return self.canonical_min(s)


class PrimeField(FiniteFieldMixin, Field):
    """GF(p), p an odd prime."""

    def __init__(self, p):
        if p == 2:
            raise FieldError("characteristic 2 is not supported")
        if not is_prime(p):
            raise FieldError(f"{p} is not an odd prime")
        self.p = p
        self.char = p
        self.order = p
        self._key = ("GF", p)
        self.zero = 0
        self.one = 1

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def neg(self, a):
        return -a % self.p

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(a, self.p - 2, self.p)

    def pow_el(self, a, e):
        if e < 0:
            return pow(self.inv(a), -e, self.p)
        return pow(a, e, self.p)

    def elem_to_json(self, a):
        return a

    def elem_from_json(self, obj):
        if not _is_json_int(obj):
            raise ValueError(f"a GF({self.p}) element must be a JSON integer, "
                             f"got {obj!r}")
        return obj % self.p

    def to_json(self):
        return {"kind": "GF", "p": self.p}

    def __repr__(self):
        return f"GF({self.p})"


# The prime fields whose images Rationals.poly_gcd tries before the PRS.
_GCD_FIELDS = tuple(map(PrimeField, (10007, 10009, 10037, 10039, 10061)))


# The memo of each per-field fact: it keeps the values of the 16 keys used
# most recently.  A field as a key stands for its value: fields compare by p
# and modulus.  The values are ints and tuples, which no caller can change,
# so each memoized function hands out its cached value itself.
memo = functools.lru_cache(maxsize=16)


@memo
def _nonresidue(F):
    """The least quadratic non-residue of the finite field F."""
    for z in F.elements():
        if z != F.zero and not F.is_square(z):
            return z
    raise FieldError("no quadratic non-residue found")  # unreachable, q odd


def _is_irreducible(modulus, p):
    """Ben-Or's test of a monic modulus f of degree m over GF(p).  A
    reducible f has an irreducible factor of some degree i <= m/2, and that
    factor divides x^(p^i) - x; so the test raises x to the p-th power mod f
    once per i and stops at the first i with gcd(x^(p^i) - x, f) != 1
    (M. Ben-Or, FOCS 1981; S. Gao and D. Panario, FoCM 1997)."""
    m = len(modulus) - 1
    if m <= 0:
        return False
    F = PrimeField(p)
    x = xp = [0, 1]
    for _ in range(m // 2):
        xp = F.poly_powmod(xp, p, modulus)
        if F.poly_gcd(F.poly_sub(xp, x), modulus) != [1]:
            return False
    return True


@memo
def find_irreducible(p, m, seed=0):
    """Seeded-deterministic monic irreducible of degree m over GF(p), as a
    tuple: x for m = 1, else the first irreducible candidate of a random
    stream seeded by (seed, p, m), searched once per process for each."""
    if m == 1:
        return (0, 1)
    rng = random.Random(repr((seed, p, m)))
    while True:
        coeffs = [rng.randrange(p) for _ in range(m)] + [1]
        if _is_irreducible(coeffs, p):
            return tuple(coeffs)


# Fields of at most this many elements do their arithmetic by table lookup.
_TABLE_MAX = 2 ** 13


def _digits(i, p):
    """Ascending base-p digits of an index: the coefficients of its element."""
    out = []
    while i:
        i, c = divmod(i, p)
        out.append(c)
    return out


def _index(coeffs, p):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * p + c
    return acc


@memo
def _build_tables(p, modulus):
    """(exp, log, zech, neg) for GF(p)[x]/(modulus), the modulus a tuple.

    With g the least-index generator of the unit group and n = q - 1:
    exp[i] = g^i for 0 <= i < 2n, log[a] = i with g^i = a for a != 0,
    zech[i] = log(1 + g^i) (None where 1 + g^i = 0), neg[a] = -a.
    """
    F = PrimeField(p)
    q = p ** (len(modulus) - 1)
    n = q - 1
    for gen in range(2, q):
        g = _digits(gen, p)
        if order_from_multiple(n, lambda m: F.poly_powmod(g, m, modulus) == [1]) == n:
            break
    exp, acc = [1], [1]
    for _ in range(n - 1):
        acc = F.poly_mulmod(acc, g, modulus)
        exp.append(_index(acc, p))
    log = [None] * q
    for i, a in enumerate(exp):
        log[a] = i
    # 1 + a adds 1 to the constant coefficient of a, its lowest digit.
    zech = tuple(log[a + 1 if a % p != p - 1 else a + 1 - p] for a in exp)
    exp += exp
    half = n // 2       # g^half = -1
    neg = (0,) + tuple(exp[i + half] for i in log[1:])
    return tuple(exp), tuple(log), zech, neg


class ExtField(FiniteFieldMixin, Field):
    """GF(p^m), p an odd prime and m >= 1."""

    def __init__(self, p, m, modulus=None, seed=0):
        self._base = PrimeField(p)      # refuses p = 2 and a composite p
        if m < 1:
            raise FieldError(f"extension degree must be positive, got {m}")
        self.p = p
        self.m = m
        self.char = p
        self.order = p ** m
        if modulus is None:
            modulus = find_irreducible(p, m, seed)
        else:
            modulus = [c % p for c in modulus]
            if len(modulus) != m + 1 or modulus[-1] != 1:
                raise FieldError(f"modulus must be monic of degree {m}")
            if not _is_irreducible(modulus, p):
                raise FieldError("modulus is reducible over GF(p)")
        self.modulus = tuple(modulus)
        self._key = ("GF", p, self.modulus)
        self.zero = 0
        self.one = 1
        # Without tables (log is None) every operation goes index -> digit
        # list -> polynomial over GF(p) -> index.
        self._exp = self._log = self._zech = self._neg = None
        if self.order <= _TABLE_MAX:
            self._exp, self._log, self._zech, self._neg = _build_tables(p, self.modulus)

    def add(self, a, b):
        if not a:
            return b
        if not b:
            return a
        log = self._log
        if log is None:
            p = self.p
            return _index(self._base.poly_add(_digits(a, p), _digits(b, p)), p)
        # g^i + g^j = g^(i + zech[j - i]); a negative index into zech wraps
        # modulo q - 1 as the exponent does.
        i = log[a]
        z = self._zech[log[b] - i]
        return 0 if z is None else self._exp[i + z]

    def sub(self, a, b):
        if self._log is None:
            p = self.p
            return _index(self._base.poly_sub(_digits(a, p), _digits(b, p)), p)
        return self.add(a, self._neg[b])

    def mul(self, a, b):
        if not a or not b:
            return 0
        log = self._log
        if log is None:
            p = self.p
            return _index(self._base.poly_mulmod(_digits(a, p), _digits(b, p),
                                                 self.modulus), p)
        return self._exp[log[a] + log[b]]

    def neg(self, a):
        if self._neg is None:
            return self.sub(0, a)
        return self._neg[a]

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of 0")
        log = self._log
        if log is None:
            p = self.p
            return _index(self._base.poly_invmod(_digits(a, p), self.modulus), p)
        return self._exp[self.order - 1 - log[a]]

    def pow_el(self, a, e):
        if e < 0:
            a, e = self.inv(a), -e
        log = self._log
        if log is None:
            p = self.p
            return _index(self._base.poly_powmod(_digits(a, p), e, self.modulus), p)
        if not a:
            return 0 if e else 1
        return self._exp[log[a] * e % (self.order - 1)]

    def elem_to_json(self, a):
        coeffs = _digits(a, self.p)
        return coeffs + [0] * (self.m - len(coeffs))

    def elem_from_json(self, obj):
        if not (isinstance(obj, list) and len(obj) <= self.m
                and all(map(_is_json_int, obj))):
            raise ValueError(f"a GF({self.p}^{self.m}) element must be a JSON "
                             f"list of at most {self.m} integers, got {obj!r}")
        return _index([c % self.p for c in obj], self.p)

    def to_json(self):
        return {"kind": "GF", "p": self.p, "m": self.m, "modulus": list(self.modulus)}

    def __repr__(self):
        return f"GF({self.p}^{self.m})"


def field_make(spec, seed=0):
    """Build a field context from a JSON-style description.

    Accepts {"kind":"Q"} or {"kind":"GF","p":...[,"m":...,"modulus":[...]]},
    where p, m and the modulus coefficients are JSON integers: booleans,
    floats and strings are refused.
    """
    kind = spec.get("kind")
    if kind == "Q":
        return Rationals()
    if kind == "GF":
        p = spec["p"]
        m = spec.get("m", 1)
        modulus = spec.get("modulus")
        for name, value in (("p", p), ("m", m)):
            if not _is_json_int(value):
                raise FieldError(f"field {name} must be a JSON integer, got {value!r}")
        if "modulus" in spec and not (isinstance(modulus, list)
                                      and all(map(_is_json_int, modulus))):
            raise FieldError("field modulus must be a JSON list of integers, "
                             f"got {modulus!r}")
        if m == 1 and "modulus" not in spec:
            return PrimeField(p)
        return ExtField(p, m, modulus=modulus, seed=seed)
    raise FieldError(f"unknown field kind {kind!r}")


@memo
def nth_roots_of_unity(F, n):
    """M(n): all n-th roots of unity except 1, ordered as powers of the
    least primitive one, as a tuple found once per field and n.  Raises
    InsufficientFieldError naming the minimal extension degree when the
    field lacks them.
    """
    if n < 3 or n % 2 == 0:
        raise ValueError(f"n must be odd and >= 3, got {n}")
    if not F.is_finite:
        phi = totient(n)
        raise InsufficientFieldError(
            f"Q contains no nontrivial {n}-th roots of unity; "
            f"they live in a degree-{phi} extension", extension_degree=phi)
    if F.char and n % F.char == 0:
        raise FieldError(f"n = {n} is divisible by the characteristic {F.char}")
    q = F.order
    if (q - 1) % n != 0:
        # Minimal d with n | q^d - 1 is the order of q mod n.
        d, acc = 1, q % n
        while acc != 1:
            acc = acc * q % n
            d += 1
        raise InsufficientFieldError(
            f"{F!r} lacks {n}-th roots of unity; need extension of degree {d}",
            extension_degree=d)
    # z^((q-1)/n) is a primitive n-th root for z = 1, 2, ... soon enough;
    # the least one is then the least of its powers prime to n.
    for i in range(1, q):
        zeta = F.pow_el(i, (q - 1) // n)
        if order_from_multiple(n, lambda m: F.pow_el(zeta, m) == F.one) == n:
            break
    zeta = min(F.pow_el(zeta, k) for k in range(1, n) if math.gcd(k, n) == 1)
    roots, acc = [], F.one
    for _ in range(n - 1):
        acc = F.mul(acc, zeta)
        roots.append(acc)
    return tuple(roots)
