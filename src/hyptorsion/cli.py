"""Batch command-line front end: every operation, JSON in and out.

Polynomials are accepted either as JSON coefficient arrays (ascending) or in
a restricted human syntax like "x^5+(x+1)^2"; fields as "Q", "GF:p" or
"GF:p,m".  Every command prints a CommandResult object
{"status": ..., "payload": ..., "provenance": ..., "backend": ...} and exits 0
on success; "backend" names the GF(p) kernels that ran, always "pure".

Importing this module loads only the core (fields, polyring, jacobian,
torsion and the kernels); a command that needs families, pairing, numth or the
acceptance suite imports it when it runs.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from fractions import Fraction

from .fields import (FieldError, InsufficientFieldError, Rationals, field_make)
from .jacobian import AffinePoint, Curve, CurveError, embed, exact_order
from .kernels import BACKEND
from .polyring import Poly
from .torsion import (CertError, PairCert, make_pair, make_single,
                      torsion_census, verify_single)


class CliError(Exception):
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


# -- input parsing ---------------------------------------------------------

def parse_field(spec: str, seed=0):
    if spec == "Q":
        return Rationals()
    m = re.fullmatch(r"GF:(\d+)(?:,(\d+))?", spec)
    if not m:
        raise CliError("bad-field", f"cannot parse field {spec!r}; use Q or GF:p[,m]")
    p, ext = int(m.group(1)), int(m.group(2) or 1)
    return make_field({"kind": "GF", "p": p, "m": ext}, seed)


# The largest extension degree m accepted for GF(p^m): GF(3^32) takes about
# half a second to build, GF(3^40) about two.
MAX_EXT_DEGREE = 32

# GF(p^m) may have at most 2^MAX_FIELD_BITS elements.  The search for a
# modulus also grows with p: GF(13^32) (118 bits) takes about a second to
# build, GF(257^32) (256 bits) about three and GF(2147483659^24) (744 bits)
# about six.
MAX_FIELD_BITS = 128

# The largest field a census may enumerate.  Over GF(3^8) (6,561 elements) a
# genus-4 census takes about 2 s; above 2^13 elements GF(p^m) has no Zech
# tables, and a genus-1 census over GF(3^9) takes 8 s.
MAX_CENSUS_ORDER = 2 ** 13

# The largest --max a hyperelliptic scan may take.  The scan's cost grows
# about as max^1.8: --max 5000 takes about 2 s, 10,000 about 8 s, and
# 200,000 did not end within two minutes.
MAX_HYPERELLIPTIC_SCAN = 5000

# The largest --n a hyperelliptic certificate search may take.  Above 20
# divisors the search first runs a subset-sum pass over a bitset of (n-1)/2
# bits: near 10^8 (99998745, 32 divisors) it takes 0.3 s and 50 MB, and its
# memory grows with n.  The factoring is trial division: 2^61 - 1 did not end
# within 20 s.
MAX_HYPERELLIPTIC_N = 10 ** 8

# The most divisors --n may have.  The search tries subsets of the divisors
# in increasing size until their totients sum to (n-1)/2, so its cost grows
# with the count: 45045 (48 divisors) takes 0.2 s, 143325 (54) 2 s, 208845
# (64) 4.8 s, and 405405 (80) and 765765 (96) did not end within 15 s.  It
# grows with the size of the smallest certificate too, which this bound does
# not limit: 99645 (32 divisors, certificate of 9) did not end within 10 s.
MAX_HYPERELLIPTIC_DIVISORS = 48


def make_field(spec, seed):
    """field_make for a parsed spec, refusing m > MAX_EXT_DEGREE or more
    than 2^MAX_FIELD_BITS elements before the search for an irreducible
    modulus starts."""
    p, m = spec.get("p"), spec.get("m", 1)
    if isinstance(m, (int, float)) and m > MAX_EXT_DEGREE:
        raise CliError("bad-field", f"extension degree {m} exceeds {MAX_EXT_DEGREE}")
    if (isinstance(p, int) and isinstance(m, int) and m > 0
            and p ** m > 2 ** MAX_FIELD_BITS):
        raise CliError("bad-field", f"GF({p}^{m}) has more than "
                       f"2^{MAX_FIELD_BITS} elements")
    return field_make(spec, seed=seed)


_TOKEN = re.compile(r"\s*(\d+|[x^+\-*()]|.)")

# A power in polynomial text may reach this degree (a constant's exponent
# counts as degree 1), so x^99999999999 is refused before it is expanded.
MAX_POLY_DEGREE = 1000

# The most exponent tuples, (p^k + 1)^(2l), that --all-admissible may walk.
MAX_ADMISSIBLE_TUPLES = 10 ** 6


def _tokenize(s):
    tokens = []
    pos = 0
    while pos < len(s):
        m = _TOKEN.match(s, pos)
        tok = m.group(1)
        if tok not in "x^+-*()" and not tok.isdigit():
            raise CliError("bad-poly", f"unexpected token {tok!r} at position {m.start(1)}")
        tokens.append(tok)
        pos = m.end()
    return tokens


def parse_poly(ctx, text: str) -> Poly:
    """Coefficient-array JSON, or the restricted syntax over +, -, *, ^, x,
    integers and parentheses."""
    text = text.strip()
    if text.startswith("["):
        return Poly.from_json(ctx, json.loads(text))
    tokens = _tokenize(text)
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take(expected=None):
        nonlocal pos
        tok = peek()
        if tok is None or (expected and tok != expected):
            raise CliError("bad-poly",
                           f"expected {expected or 'a token'}, got {tok!r}")
        pos += 1
        return tok

    def atom():
        tok = peek()
        if tok == "(":
            take("(")
            e = expr()
            take(")")
            return e
        if tok == "x":
            take()
            return Poly.x(ctx)
        if tok is not None and tok.isdigit():
            take()
            return Poly.const(ctx, ctx.coerce(int(tok)))
        raise CliError("bad-poly", f"unexpected token {tok!r}")

    def factor():
        base = atom()
        if peek() == "^":
            take("^")
            tok = take()
            if not tok.isdigit():
                raise CliError("bad-poly", f"exponent must be an integer, got {tok!r}")
            e = int(tok)
            if max(base.degree or 0, 1) * e > MAX_POLY_DEGREE:
                raise CliError("bad-poly",
                               f"power ^{e} would exceed degree {MAX_POLY_DEGREE}")
            base = base ** e
        return base

    def term():
        acc = factor()
        while peek() == "*":
            take("*")
            acc = acc * factor()
        return acc

    def expr():
        sign = 1
        if peek() in ("+", "-"):
            sign = -1 if take() == "-" else 1
        acc = term() if sign == 1 else -term()
        while peek() in ("+", "-"):
            op = take()
            nxt = term()
            acc = acc + nxt if op == "+" else acc - nxt
        return acc

    result = expr()
    if pos != len(tokens):
        raise CliError("bad-poly", f"trailing token {tokens[pos]!r}")
    return result


def parse_elem(ctx, text: str):
    text = text.strip()
    if text.startswith("["):
        return ctx.elem_from_json(json.loads(text))
    if isinstance(ctx, Rationals):
        try:
            return Fraction(text)
        except ZeroDivisionError:
            raise CliError("bad-elem", f"zero denominator in {text!r}") from None
    return ctx.coerce(int(text))


def parse_point(ctx, text: str):
    m = re.fullmatch(r"\s*\(\s*(.+?)\s*,\s*(.+?)\s*\)\s*", text)
    if not m:
        raise CliError("bad-point", f"cannot parse point {text!r}; use (x,y)")
    return AffinePoint(parse_elem(ctx, m.group(1)), parse_elem(ctx, m.group(2)))


def load_curve(args, F):
    text = args.curve
    if text.endswith(".json"):
        try:
            with open(text) as fh:
                obj = json.load(fh)
            spec, g, coeffs = obj["field"], obj["g"], obj["f"]
            if not isinstance(spec, dict):
                raise CliError("bad-curve", f"cannot read curve {text!r}: "
                               f"field must be a JSON object, got {spec!r}")
            if not isinstance(g, int) or isinstance(g, bool):
                raise CliError("bad-curve", f"cannot read curve {text!r}: "
                               f"g must be a JSON integer, got {g!r}")
            F = make_field(spec, args.seed)
            f = Poly.from_json(F, coeffs)
        except (OSError, KeyError, TypeError) as exc:
            raise CliError("bad-curve", f"cannot read curve {text!r}: {exc!r}") from None
        return F, Curve(F, g, f)
    if args.g is None:
        raise CliError("bad-args", "--g is required with an inline curve polynomial")
    return F, Curve(F, args.g, parse_poly(F, text))


def point_json(F, P):
    return {"x": F.elem_to_json(P.x), "y": F.elem_to_json(P.y)}


# -- subcommands -----------------------------------------------------------

def cmd_construct_single(args):
    F = parse_field(args.field, args.seed)
    v = parse_poly(F, args.v)
    a = parse_elem(F, args.a)
    C, P, cert = make_single(F, args.g, a, v)
    return {"curve": C.to_json(), "point": point_json(F, P),
            "cert": cert.to_json(F)}, "single-point-certificate"


def cmd_verify(args):
    F = parse_field(args.field, args.seed)
    F, C = load_curve(args, F)
    P = parse_point(F, args.point)
    if not C.contains(P.x, P.y):
        raise CliError("bad-point", "point is not on the curve")
    cert = verify_single(C, P)
    payload = {"order_2g_plus_1": cert is not None}
    if cert is not None:
        payload["cert"] = cert.to_json(F)
    if args.oracle:
        n = 2 * C.g + 1
        payload["oracle_order"] = exact_order(C, embed(C, P), n)
    return payload, "certificate-verification"


def cmd_construct_pair(args):
    F = parse_field(args.field, args.seed)
    cert = PairCert(args.g, parse_elem(F, args.a1), parse_elem(F, args.a2),
                    parse_poly(F, args.u1), parse_poly(F, args.u2))
    enh = make_pair(F, args.g, cert)
    return {"curve": enh.C.to_json(), "P": point_json(F, enh.P),
            "Q": point_json(F, enh.Q)}, "pair-certificate-construction"


def _templates(F, args):
    from .families import char_templates, nice_pairs_coprime
    if args.regime == "coprime":
        return list(nice_pairs_coprime(F, args.g))
    if args.p is None or args.k is None or args.l is None:
        raise CliError("bad-args", "--p, --k, --l are required for the char regime")
    _check_char_curve(args.g, args.p, args.k, args.l)
    if args.all_admissible and _walk_too_long(args.p, args.k, args.l):
        raise CliError("bad-args", "--all-admissible would walk (p^k + 1)^(2l) > "
                       f"{MAX_ADMISSIBLE_TUPLES} exponent tuples")
    return list(char_templates(F, args.p, args.k, args.l, ij_only=not args.all_admissible))


def _check_char_curve(g, p, k, l):
    """Refuse a char template whose curve degree n = p^k(2l+1) exceeds
    MAX_POLY_DEGREE, decided without forming p^k for a large k, or whose
    genus (n - 1)/2 is not g.  Values the family code rejects pass."""
    if p < 2 or k < 0 or l < 0:
        return
    # p^k >= 2^k > MAX_POLY_DEGREE once k reaches its bit length
    n = p ** k * (2 * l + 1) if k < MAX_POLY_DEGREE.bit_length() else None
    if n is None or n > MAX_POLY_DEGREE:
        raise CliError("bad-args", "the curve degree p^k(2l+1) would exceed "
                       f"{MAX_POLY_DEGREE}")
    if g != (n - 1) // 2:
        raise CliError("bad-args", f"--g {g} is not the genus (p^k(2l+1) - 1)/2 = "
                       f"{(n - 1) // 2} of the char templates")


def _walk_too_long(p, k, l):
    """(p^k + 1)^(2l) > MAX_ADMISSIBLE_TUPLES, decided without forming p^k
    for a large k.  Values the family code rejects, or that give at most
    one tuple, pass."""
    bound = MAX_ADMISSIBLE_TUPLES
    if p < 2 or k < 0 or l < 1:
        return False
    if 2 * l > math.log2(bound) or 2 * l * k > math.log(bound, p):
        return True
    return (p ** k + 1) ** (2 * l) > bound


def cmd_enumerate_families(args):
    from .families import symmetry_classes
    F = parse_field(args.field, args.seed)
    templates = _templates(F, args)
    payload = {"count": len(templates),
               "families": [t.to_json() for t in templates]}
    if args.regime == "coprime":
        payload["symmetry_classes"] = len(symmetry_classes(templates))
    return payload, "family-enumeration"


def cmd_find_mu(args):
    from .families import find_good_mu
    F = parse_field(args.field, args.seed)
    templates = _templates(F, args)
    if not 0 <= args.index < len(templates):
        raise CliError("bad-args", f"--index out of range (have {len(templates)})")
    t = templates[args.index]
    mu, cert, enh = find_good_mu(F, args.g, t)
    return {"family": t.to_json(mu=mu, F=F), "curve": enh.C.to_json(),
            "P": point_json(F, enh.P), "Q": point_json(F, enh.Q)}, "good-mu-scan"


def cmd_rational_g52(args):
    from .families import rational_four_torsion
    C, pts, cert, mu = rational_four_torsion(args.g)
    F = C.ctx
    return {"curve": C.to_json(), "mu": F.elem_to_json(mu),
            "order": 2 * args.g + 1,
            "points": [point_json(F, P) for P in pts]}, "rational-four-torsion"


def cmd_hyperelliptic(args):
    from .numth import (divisors, hyperelliptic_cert, hyperelliptic_scan,
                        overq_filter)
    if args.max is not None:
        if args.max > MAX_HYPERELLIPTIC_SCAN:
            raise CliError("bad-args", f"--max exceeds {MAX_HYPERELLIPTIC_SCAN}")
        return ({"hyperelliptic": hyperelliptic_scan(args.max)},
                "totient-partition-scan")
    if args.n is None:
        raise CliError("bad-args", "one of --n or --max is required")
    if args.n > MAX_HYPERELLIPTIC_N:
        raise CliError("bad-args", f"--n exceeds {MAX_HYPERELLIPTIC_N}")
    verdict = overq_filter(args.n)      # refuses an even n or one below 3
    if len(divisors(args.n)) > MAX_HYPERELLIPTIC_DIVISORS:
        raise CliError("bad-args", f"--n has more than {MAX_HYPERELLIPTIC_DIVISORS} "
                       "divisors")
    cert = hyperelliptic_cert(args.n)
    return {"n": args.n, "filter": verdict.to_json(),
            "cert": cert.to_json() if cert else None}, "totient-partition-search"


def cmd_census(args):
    F = parse_field(f"GF:{args.p},{args.m}" if args.m > 1 else f"GF:{args.p}",
                    args.seed)
    F, C = load_curve(args, F)
    if F.is_finite and F.order > MAX_CENSUS_ORDER:
        raise CliError("bad-args", f"a census enumerates the field; {F.order} "
                       f"elements exceed {MAX_CENSUS_ORDER}")
    found = torsion_census(C, args.n)
    return {"n": args.n, "count": len(found),
            "points": [point_json(F, P) for P, _ in found]}, "torsion-census"


def cmd_weil(args):
    from .families import find_good_mu, nice_pairs_coprime
    from .pairing import weil_closed, weil_explicit, weil_result_json
    F = parse_field(args.field, args.seed)
    I = tuple(int(i) for i in args.I.split(",")) if args.I else ()
    templates = [t for t in nice_pairs_coprime(F, args.g) if t.I == I]
    if not templates:
        raise CliError("bad-args", f"no coprime template with I = {I}")
    t = templates[0]
    if args.mu is not None:
        mu = parse_elem(F, args.mu)
        if mu == F.zero:
            raise CliError("bad-args", "--mu must be nonzero")
        u1, u2 = t.u_pair(F, mu)
        cert = PairCert(args.g, F.zero, F.neg(F.one), u1, u2)
    else:
        mu, cert, _ = find_good_mu(F, args.g, t)
    explicit = weil_explicit(F, args.g, cert)
    closed = weil_closed(F, args.g, I)
    payload = weil_result_json(F, args.g, I, explicit, closed)
    payload["mu"] = F.elem_to_json(mu)
    return payload, "weil-pairing-two-routes"


def cmd_selftest(args):
    from . import acceptance
    results = acceptance.run_all()
    payload = {"criteria": [
        {"name": name, "status": "pass" if ok else "fail", "detail": detail,
         "seconds": round(secs, 2)}
        for name, ok, detail, secs in results]}
    ok = all(r[1] or r[0] in acceptance.EXPECTED_FAIL for r in results)
    return payload, "acceptance-selftest", 0 if ok else 1


# -- dispatch --------------------------------------------------------------

class _ArgumentParser(argparse.ArgumentParser):
    """A usage error raises CliError("bad-args"), so it ends in the error
    envelope with exit code 1; --help still prints and exits 0.  Subcommand
    parsers are made from the same class."""

    def error(self, message):
        raise CliError("bad-args", f"{self.prog}: {message}")


def build_parser():
    ap = _ArgumentParser(prog="hyptorsion", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, field=True, g=False):
        if field:
            p.add_argument("--field", default="Q", help="Q, GF:p or GF:p,m")
            p.add_argument("--seed", type=int, default=0)
        if g:
            p.add_argument("--g", type=int, required=True)
        p.add_argument("--json-out", dest="json_out", default=None)

    p = sub.add_parser("construct-single", help="curve from a single-point certificate")
    common(p, g=True)
    p.add_argument("--a", required=True)
    p.add_argument("--v", required=True)
    p.set_defaults(func=cmd_construct_single)

    p = sub.add_parser("verify", help="certify a point has order 2g+1")
    common(p)
    p.add_argument("--g", type=int, default=None)
    p.add_argument("--curve", required=True, help="poly text or curve .json file")
    p.add_argument("--point", required=True, help="(x,y)")
    p.add_argument("--oracle", action="store_true", help="also run the Cantor oracle")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("construct-pair", help="curve from a pair certificate")
    common(p, g=True)
    for flag in ("--a1", "--a2", "--u1", "--u2"):
        p.add_argument(flag, required=True)
    p.set_defaults(func=cmd_construct_pair)

    p = sub.add_parser("enumerate-families", help="all family templates")
    common(p, g=True)
    p.add_argument("--regime", choices=("coprime", "char"), default="coprime")
    p.add_argument("--p", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--l", type=int, default=None)
    p.add_argument("--all-admissible", action="store_true")
    p.set_defaults(func=cmd_enumerate_families)

    p = sub.add_parser("find-mu", help="first good scalar for a template")
    common(p, g=True)
    p.add_argument("--regime", choices=("coprime", "char"), default="coprime")
    p.add_argument("--p", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--l", type=int, default=None)
    p.add_argument("--all-admissible", action="store_true")
    p.add_argument("--index", type=int, default=0)
    p.set_defaults(func=cmd_find_mu)

    p = sub.add_parser("rational-g52", help="rational curve with four torsion points")
    common(p, field=False)
    p.add_argument("--g", type=int, default=52)
    p.set_defaults(func=cmd_rational_g52)

    p = sub.add_parser("hyperelliptic", help="totient certificates and scans")
    common(p, field=False)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--max", type=int, default=None)
    p.set_defaults(func=cmd_hyperelliptic)

    p = sub.add_parser("census", help="all points of exact order n")
    common(p, field=False)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--g", type=int, default=None)
    p.add_argument("--curve", required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("weil", help="Weil pairing, explicit and closed form")
    common(p, g=True)
    p.add_argument("--I", required=True, help="comma-separated indices into M(2g+1)")
    p.add_argument("--mu", default=None)
    p.set_defaults(func=cmd_weil)

    p = sub.add_parser("selftest", help="run the acceptance suite")
    common(p, field=False)
    p.set_defaults(func=cmd_selftest)
    return ap


def main(argv=None):
    args = None
    try:
        args = build_parser().parse_args(argv)
        out = args.func(args)
        code = 0
        if len(out) == 3:
            payload, provenance, code = out
        else:
            payload, provenance = out
        result = {"status": "ok", "payload": payload, "provenance": provenance}
    except CliError as exc:
        result = {"status": "error", "code": exc.code, "message": str(exc)}
        code = 1
    except (FieldError, CurveError, CertError, InsufficientFieldError,
            ValueError) as exc:
        extra = {}
        if isinstance(exc, InsufficientFieldError):
            extra = {"extension_degree": exc.extension_degree}
        result = {"status": "error", "code": type(exc).__name__,
                  "message": str(exc), **extra}
        code = 1
    result["backend"] = BACKEND
    text = json.dumps(result, indent=2)
    if getattr(args, "json_out", None):
        try:
            with open(args.json_out, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            result = {"status": "error", "code": "bad-json-out",
                      "message": f"cannot write {args.json_out!r}: {exc}",
                      "backend": BACKEND}
            text, code = json.dumps(result, indent=2), 1
    print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
