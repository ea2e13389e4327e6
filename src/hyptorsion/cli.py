"""Batch command-line front end: every operation, JSON in and out.

Polynomials are accepted either as JSON coefficient arrays (ascending) or in
a restricted human syntax like "x^5+(x+1)^2"; fields as "Q", "GF:p" or
"GF:p,m".  Every command prints a CommandResult object
{"status": ..., "payload": ..., "provenance": ..., "backend": ...} and exits 0
on success; "backend" names the field arithmetic that ran, always "pure"
(the pure-Python loops of `fields`).

Importing this module loads only the core (fields, polyring, jacobian,
torsion and kernels, which names the backend); a command that needs families,
pairing, numth or the acceptance suite imports it when it runs.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import re
import sys
from fractions import Fraction

from .fields import (FieldError, InsufficientFieldError, Rationals, field_make)
from .jacobian import AffinePoint, Curve, embed, exact_order
from .kernels import BACKEND
from .polyring import Poly
from .torsion import (PairCert, make_pair, make_single, torsion_census,
                      verify_single)


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


# GF(p^m) may have at most 2^MAX_FIELD_BITS elements.  At seeds 0-2 the
# largest fields it admits build in at most 0.9 s: GF(3^80), GF(5^55),
# GF(7^45) and GF(13^34) (in-process, 2-core host).
MAX_FIELD_BITS = 128

# The largest field a census may enumerate.  Over GF(3^8) (6,561 elements) a
# genus-4 census takes 1.2-1.4 s as a fresh process on a 2-core host; above
# 2^13 elements GF(p^m) has no Zech tables, and a genus-1 census over GF(3^9)
# takes 8 s.
MAX_CENSUS_ORDER = 2 ** 13

# The largest --max a hyperelliptic scan may take.  The scan's cost grows
# about as max^1.4: --max 20,000 takes about 0.3 s, 50,000 about 0.9 s and
# 100,000 about 2.4 s (in-process, 2-core host).
MAX_HYPERELLIPTIC_SCAN = 50_000

# The largest --n a hyperelliptic certificate search may take.  It factors n
# by trial division (2^61 - 1 did not end within 40 s) and runs a subset-sum
# pass over (n-1)/2 bits: 0.24 s and 49 MB for 99998745.  numth.MAX_TABLE_BITS
# bounds the table built after that pass.
MAX_HYPERELLIPTIC_N = 10 ** 8

# The largest --g rational-g52 may take.  Building the curve, mostly the mu
# scan's squarefreeness test, grows about as g^2: g = 52 takes 0.013 s, 262
# 0.25 s, 292 0.45 s and 412 0.6-1.1 s (in-process, 2-core host).
MAX_RATIONAL_G = 300


def make_field(spec, seed):
    """field_make for a parsed spec, refusing more than 2^MAX_FIELD_BITS
    elements before the search for an irreducible modulus starts.  As
    p >= 3, an m above MAX_FIELD_BITS is refused before p^m is formed."""
    p, m = spec.get("p"), spec.get("m", 1)
    if isinstance(m, (int, float)) and m > MAX_FIELD_BITS:
        raise CliError("bad-field", f"extension degree {m} exceeds {MAX_FIELD_BITS}")
    if (isinstance(p, int) and isinstance(m, int) and m > 0
            and p ** m > 2 ** MAX_FIELD_BITS):
        raise CliError("bad-field", f"GF({p}^{m}) has more than "
                       f"2^{MAX_FIELD_BITS} elements")
    return field_make(spec, seed=seed)


_TOKEN = re.compile(r"\s*(\d+|[x^+\-*()]|.)")

# A power in polynomial text may reach this degree (a constant's exponent
# counts as degree 1), so x^99999999999 is refused before it is expanded.
MAX_POLY_DEGREE = 1000

# The most templates a family walk may visit: the C(2g, g) coprime or C(2l, l)
# char templates of enumerate-families and find-mu, or the (p^k + 1)^(2l)
# exponent tuples of --all-admissible.  As CLI processes on a 2-core host,
# enumerate-families takes 4.6 s and prints 38 MB for the C(20, 10) = 184,756
# templates of GF(43) at g = 10, and 18 s and 154 MB at g = 11;
# --all-admissible takes 1.5 s for 20^4 tuples over GF(19^2) and 12 s for
# 10^6 over GF(3^6).
MAX_TEMPLATE_WALK = 2 * 10 ** 5


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


def _shallow(code, what, parse, *args):
    """parse(*args), refusing as `code` malformed JSON and input nested too
    deeply to parse."""
    try:
        return parse(*args)
    except json.JSONDecodeError as exc:
        raise CliError(code, f"{what} is not valid JSON: {exc}") from None
    except RecursionError:
        raise CliError(code, f"{what} nests too deeply") from None


def _decode(decode, *args):
    """decode(*args), refusing as bad-elem an element that the field's
    elem_from_json refuses."""
    try:
        return decode(*args)
    except ValueError as exc:
        raise CliError("bad-elem", str(exc)) from None


def parse_poly(ctx, text: str) -> Poly:
    """Coefficient-array JSON, or the restricted syntax over +, -, *, ^, x,
    integers and parentheses."""
    text = text.strip()
    if text.startswith("["):
        coeffs = _shallow("bad-poly", "the polynomial", json.loads, text)
        return _decode(Poly.from_json, ctx, coeffs)
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

    result = _shallow("bad-poly", "the polynomial", expr)
    if pos != len(tokens):
        raise CliError("bad-poly", f"trailing token {tokens[pos]!r}")
    return result


def parse_elem(ctx, text: str):
    text = text.strip()
    if text.startswith("["):
        return _decode(ctx.elem_from_json,
                       _shallow("bad-elem", "the element", json.loads, text))
    try:
        return Fraction(text) if isinstance(ctx, Rationals) else ctx.coerce(int(text))
    except ZeroDivisionError:
        raise CliError("bad-elem", f"zero denominator in {text!r}") from None
    except ValueError:
        raise CliError("bad-elem", f"cannot parse element {text!r}") from None


def parse_point(ctx, text: str):
    """(x,y), split at the first comma outside the brackets of a GF(p^m) x."""
    m = re.fullmatch(r"\s*\(\s*(\[[^]]*\]|[^,]+?)\s*,\s*(.+?)\s*\)\s*", text)
    if not m:
        raise CliError("bad-point", f"cannot parse point {text!r}; use (x,y)")
    return AffinePoint(parse_elem(ctx, m.group(1)), parse_elem(ctx, m.group(2)))


def load_curve(args, F):
    text = args.curve
    if text.endswith(".json"):
        try:
            with open(text) as fh:
                obj = _shallow("bad-curve", f"curve {text!r}", json.load, fh)
            spec, g, coeffs = obj["field"], obj["g"], obj["f"]
            if not isinstance(spec, dict):
                raise CliError("bad-curve", f"cannot read curve {text!r}: "
                               f"field must be a JSON object, got {spec!r}")
            if not isinstance(g, int) or isinstance(g, bool):
                raise CliError("bad-curve", f"cannot read curve {text!r}: "
                               f"g must be a JSON integer, got {g!r}")
            F = make_field(spec, args.seed)
            f = _decode(Poly.from_json, F, coeffs)
        except (OSError, KeyError, TypeError) as exc:
            raise CliError("bad-curve", f"cannot read curve {text!r}: {exc!r}") from None
        return F, Curve(F, g, f)
    if args.g is None:
        raise CliError("bad-args", "--g is required with an inline curve polynomial")
    return F, Curve(F, args.g, parse_poly(F, text))


# -- subcommands -----------------------------------------------------------

def _check_genus(g):
    """Refuse a --g whose curve degree 2g+1 exceeds MAX_POLY_DEGREE, the
    bound _check_char_walk puts on the char regime's p^k(2l+1)."""
    if 2 * g + 1 > MAX_POLY_DEGREE:
        raise CliError("bad-args", f"the curve degree 2g+1 = {2 * g + 1} would "
                       f"exceed {MAX_POLY_DEGREE}")


def cmd_construct_single(args):
    F = parse_field(args.field, args.seed)
    _check_genus(args.g)
    v = parse_poly(F, args.v)
    a = parse_elem(F, args.a)
    C, P, cert = make_single(args.g, a, v)
    return {"curve": C.to_json(), "point": P.to_json(F),
            "cert": cert.to_json()}, "single-point-certificate"


def cmd_verify(args):
    F = parse_field(args.field, args.seed)
    F, C = load_curve(args, F)
    P = parse_point(F, args.point)
    if not C.contains(P.x, P.y):
        raise CliError("bad-point", "point is not on the curve")
    cert = verify_single(C, P)
    payload = {"order_2g_plus_1": cert is not None}
    if cert is not None:
        payload["cert"] = cert.to_json()
    if args.oracle:
        n = 2 * C.g + 1
        payload["oracle_order"] = exact_order(C, embed(C, P), n)
    return payload, "certificate-verification"


def cmd_construct_pair(args):
    F = parse_field(args.field, args.seed)
    _check_genus(args.g)
    cert = PairCert(args.g, parse_elem(F, args.a1), parse_elem(F, args.a2),
                    parse_poly(F, args.u1), parse_poly(F, args.u2))
    enh = make_pair(cert)
    return {"curve": enh.C.to_json(), "P": enh.P.to_json(F),
            "Q": enh.Q.to_json(F)}, "pair-certificate-construction"


def _templates(F, args):
    """The templates of the walk --regime names, built as they are taken."""
    from .families import char_templates, nice_pairs_coprime
    if args.regime == "coprime":
        _check_genus(args.g)
        if args.g > 0 and math.comb(2 * args.g, args.g) > MAX_TEMPLATE_WALK:
            raise CliError("bad-args", f"the coprime regime would walk C(2g, g) > "
                           f"{MAX_TEMPLATE_WALK} templates")
        return nice_pairs_coprime(F, args.g)
    if args.p is None or args.k is None or args.l is None:
        raise CliError("bad-args", "--p, --k, --l are required for the char regime")
    _check_char_walk(args)
    return char_templates(F, args.p, args.k, args.l, ij_only=not args.all_admissible)


def _check_char_walk(args):
    """Refuse a char walk whose curve degree n = p^k(2l+1) exceeds
    MAX_POLY_DEGREE, decided without forming p^k for a large k, whose genus
    (n - 1)/2 is not --g, or that visits more than MAX_TEMPLATE_WALK
    templates.  Values the family code rejects pass."""
    g, p, k, l = args.g, args.p, args.k, args.l
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
    if args.all_admissible and (p ** k + 1) ** (2 * l) > MAX_TEMPLATE_WALK:
        raise CliError("bad-args", "--all-admissible would walk (p^k + 1)^(2l) > "
                       f"{MAX_TEMPLATE_WALK} exponent tuples")
    if math.comb(2 * l, l) > MAX_TEMPLATE_WALK:
        raise CliError("bad-args", "the char regime would walk C(2l, l) > "
                       f"{MAX_TEMPLATE_WALK} templates")


def _family_json(args, t):
    """A template's JSON in the terms of the walk that --regime names."""
    if args.regime == "coprime":
        return {"regime": "coprime", "I": list(t.I)}
    return {"regime": "char", "upsilon": list(t.values)}


def cmd_enumerate_families(args):
    from .families import symmetry_classes
    F = parse_field(args.field, args.seed)
    templates = list(_templates(F, args))
    payload = {"count": len(templates),
               "families": [_family_json(args, t) for t in templates]}
    if args.regime == "coprime":
        payload["symmetry_classes"] = len(symmetry_classes(templates))
    return payload, "family-enumeration"


def cmd_find_mu(args):
    from .families import find_good_mu
    F = parse_field(args.field, args.seed)
    templates = _templates(F, args)
    # build the templates up to --index (islice takes a stop in 0 ..
    # sys.maxsize); the rest are walked only to count them for the refusal
    head = list(itertools.islice(templates, min(max(args.index + 1, 0), sys.maxsize)))
    if not 0 <= args.index < len(head):
        have = len(head) + sum(1 for _ in templates)
        raise CliError("bad-args", f"--index out of range (have {have})")
    t = head[-1]
    mu, cert, enh = find_good_mu(args.g, t.factors(F))
    return {"family": {**_family_json(args, t), "mu": F.elem_to_json(mu)},
            "curve": enh.C.to_json(),
            "P": enh.P.to_json(F), "Q": enh.Q.to_json(F)}, "good-mu-scan"


def cmd_rational_g52(args):
    from .families import rational_four_torsion
    if args.g > MAX_RATIONAL_G:
        raise CliError("bad-args", f"--g exceeds {MAX_RATIONAL_G}")
    C, pts, cert, mu = rational_four_torsion(args.g)
    F = C.ctx
    return {"curve": C.to_json(), "mu": F.elem_to_json(mu),
            "order": 2 * args.g + 1,
            "points": [P.to_json(F) for P in pts]}, "rational-four-torsion"


def cmd_hyperelliptic(args):
    from .numth import (SearchTooLongError, hyperelliptic_cert,
                        hyperelliptic_scan, overq_filter)
    if args.max is not None:
        if args.max > MAX_HYPERELLIPTIC_SCAN:
            raise CliError("bad-args", f"--max exceeds {MAX_HYPERELLIPTIC_SCAN}")
        return ({"hyperelliptic": hyperelliptic_scan(args.max)},
                "totient-partition-scan")
    if args.n > MAX_HYPERELLIPTIC_N:
        raise CliError("bad-args", f"--n exceeds {MAX_HYPERELLIPTIC_N}")
    verdict = overq_filter(args.n)      # refuses an even n or one below 3
    try:
        cert = hyperelliptic_cert(args.n)
    except SearchTooLongError as exc:
        raise CliError("bad-args", str(exc)) from None
    return {"n": args.n, "filter": verdict.to_json(),
            "cert": cert.to_json() if cert else None}, "totient-partition-search"


def cmd_census(args):
    F = parse_field(f"GF:{args.p},{args.m}", args.seed)
    F, C = load_curve(args, F)
    if F.is_finite and F.order > MAX_CENSUS_ORDER:
        raise CliError("bad-args", f"a census enumerates the field; {F.order} "
                       f"elements exceed {MAX_CENSUS_ORDER}")
    found = torsion_census(C, args.n)
    return {"n": args.n, "count": len(found),
            "points": [P.to_json(F) for P in found]}, "torsion-census"


def cmd_weil(args):
    from .families import Template, family_pair, find_good_mu, nice_pairs_coprime
    from .pairing import weil_closed, weil_explicit
    F = parse_field(args.field, args.seed)
    _check_genus(args.g)
    try:
        I = tuple(int(i) for i in args.I.split(",")) if args.I else ()
    except ValueError:
        raise CliError("bad-args", f"no coprime template with I = {args.I!r}") from None
    # the first template carries the labels, past nice_pairs_coprime's checks
    labels = next(nice_pairs_coprime(F, args.g)).labels
    if len(I) != args.g or list(I) != sorted(set(I) & set(range(2 * args.g))):
        raise CliError("bad-args", f"no coprime template with I = {I}")
    values = tuple(int(i in I) for i in range(2 * args.g))
    factors = Template(labels, values).factors(F)
    if args.mu is not None:
        mu = parse_elem(F, args.mu)
        if mu == F.zero:
            raise CliError("bad-args", "--mu must be nonzero")
        cert, _ = family_pair(args.g, factors, mu)
    else:
        mu, cert, _ = find_good_mu(args.g, factors)
    explicit = weil_explicit(cert)
    closed = weil_closed(F, args.g, I)
    return {"I": list(I), "explicit": F.elem_to_json(explicit),
            "closed": F.elem_to_json(closed), "match": explicit == closed,
            "mu": F.elem_to_json(mu)}, "weil-pairing-two-routes"


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


COMMANDS = ("construct-single", "verify", "construct-pair", "enumerate-families",
            "find-mu", "rational-g52", "hyperelliptic", "census", "weil", "selftest")


def build_parser(command=None):
    """The parser.  Only the subcommand `command` names gets its options and
    -h, or every one when it names none; each keeps its help and func, so
    top-level help and usage errors read the same."""
    ap = _ArgumentParser(prog="hyptorsion", description=(
        "Hyperelliptic curves with torsion points of order 2g+1: certificates, "
        "censuses and the Weil pairing.  Every command prints one JSON object "
        "and exits 0 on success, 1 on error."))
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, help_text, func):
        named = command == name or command not in COMMANDS
        p = sub.add_parser(name, help=help_text, add_help=named)
        p.set_defaults(func=func)
        return p if named else None

    def common(p, field=True, g=False):
        if field:
            p.add_argument("--field", default="Q", help="Q, GF:p or GF:p,m")
            p.add_argument("--seed", type=int, default=0)
        if g:
            p.add_argument("--g", type=int, required=True)
        p.add_argument("--json-out", dest="json_out", default=None)

    if p := add("construct-single", "curve from a single-point certificate",
                cmd_construct_single):
        common(p, g=True)
        p.add_argument("--a", required=True)
        p.add_argument("--v", required=True)

    if p := add("verify", "certify a point has order 2g+1", cmd_verify):
        common(p)
        p.add_argument("--g", type=int, default=None)
        p.add_argument("--curve", required=True, help="poly text or curve .json file")
        p.add_argument("--point", required=True, help="(x,y)")
        p.add_argument("--oracle", action="store_true", help="also run the Cantor oracle")

    if p := add("construct-pair", "curve from a pair certificate", cmd_construct_pair):
        common(p, g=True)
        for flag in ("--a1", "--a2", "--u1", "--u2"):
            p.add_argument(flag, required=True)

    for name, help_text, func in (
            ("enumerate-families", "all family templates", cmd_enumerate_families),
            ("find-mu", "first good scalar for a template", cmd_find_mu)):
        if p := add(name, help_text, func):
            common(p, g=True)
            p.add_argument("--regime", choices=("coprime", "char"), default="coprime")
            for flag in ("--p", "--k", "--l"):
                p.add_argument(flag, type=int, default=None)
            p.add_argument("--all-admissible", action="store_true")
            if name == "find-mu":
                p.add_argument("--index", type=int, default=0)

    if p := add("rational-g52", "rational curve with four torsion points",
                cmd_rational_g52):
        common(p, field=False)
        p.add_argument("--g", type=int, default=52)

    if p := add("hyperelliptic", "totient certificates and scans", cmd_hyperelliptic):
        common(p, field=False)
        one = p.add_mutually_exclusive_group(required=True)
        one.add_argument("--n", type=int)
        one.add_argument("--max", type=int)

    if p := add("census", "all points of exact order n", cmd_census):
        common(p, field=False)
        p.add_argument("--p", type=int, required=True)
        p.add_argument("--m", type=int, default=1)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--g", type=int, default=None)
        p.add_argument("--curve", required=True)
        p.add_argument("--n", type=int, required=True)

    if p := add("weil", "Weil pairing, explicit and closed form", cmd_weil):
        common(p, g=True)
        p.add_argument("--I", required=True, help="comma-separated indices into M(2g+1)")
        p.add_argument("--mu", default=None)

    if p := add("selftest", "run the acceptance suite", cmd_selftest):
        common(p, field=False)
    return ap


def main(argv=None):
    args = None
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = build_parser(argv[0] if argv else None).parse_args(argv)
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
    except (FieldError, ValueError) as exc:     # CurveError, CertError included
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
