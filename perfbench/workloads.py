"""The workloads: inputs made from the seed, the client that turns them
into CLI calls, and the checks on the outputs.

A workload is a closed loop with one client: `client(inputs)` is a generator
that yields one `Op` at a time and receives its `Record` back, so an
operation whose argv depends on an earlier output (the census of a printed
curve, the verification of a printed point) is built from that output.
Every round of a run yields the same operations.  Checks run once, after the
timed phase, on the records of the first round; the later rounds must print
exactly the same text.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from functools import cached_property

import arith


@dataclass
class Op:
    label: str
    argv: list
    expect: str = "ok"          # "ok", or "error" for malformed input
    meta: dict = field(default_factory=dict)


@dataclass
class Record:
    op: Op
    seconds: float
    code: object                # exit code returned by cli.main, or None
    out: str                    # captured stdout
    exc: str | None             # class name of an exception that escaped

    @cached_property
    def result(self):
        try:
            return json.loads(self.out)
        except ValueError:
            return None

    @property
    def failed(self):
        res = self.result
        if self.exc is not None or res is None:
            return True
        want_code = 0 if self.op.expect == "ok" else 1
        return res.get("status") != self.op.expect or self.code != want_code

    @property
    def payload(self):
        return self.result["payload"]


def _elem(c, m):
    """A GF(p) residue as a GF(p^m) element in the CLI's JSON format."""
    return c if m == 1 else [c] + [0] * (m - 1)


def _field_spec(p, m):
    return f"GF:{p}" if m == 1 else f"GF:{p},{m}"


# -- census ----------------------------------------------------------------

# (p, m, g, curves per round) with 2g+1 = p^k: criterion 2's triples
# (3,1,1), (5,1,2), (3,2,4) over GF(p^m), m <= 4, plus larger genera.  The
# census of a curve costs about a fixed amount per field element plus one
# exact_order per point, so curves of genus 2 and up are drawn among those
# whose affine point count lies within sqrt(q)/2 of q (the genus-1 curves of
# this family take only two counts), and the costliest fields get two
# curves.  Without that, the seed moved a round's time by 40%.
CENSUS_SLOTS = (
    (3, 1, 1, 1), (3, 2, 1, 1), (3, 3, 1, 1), (3, 4, 1, 2),
    (5, 1, 2, 1), (5, 2, 2, 1), (5, 3, 2, 2),
    (3, 1, 4, 1), (3, 2, 4, 1), (3, 3, 4, 1), (3, 4, 4, 2),
    (7, 1, 3, 1), (7, 2, 3, 2),
    (3, 1, 13, 1), (11, 1, 5, 1), (5, 1, 12, 1),
)

# Malformed inputs whose correct result is the error envelope with exit
# code 1.  They are the same in every round and for every seed.
MISSING_CURVE = "perfbench/no-such-curve.json"
MALFORMED = (
    ("verify-zero-denominator",
     ["verify", "--field", "Q", "--g", "2", "--curve", "x^5+1", "--point", "(1/0,1)"]),
    ("weil-mu-zero", ["weil", "--field", "GF:11", "--g", "2", "--I", "0,1", "--mu", "0"]),
    ("verify-missing-file", ["verify", "--curve", MISSING_CURVE, "--point", "(0,1)"]),
    ("find-mu-negative-index", ["find-mu", "--field", "GF:11", "--g", "2", "--index", "-1"]),
)


@dataclass(frozen=True)
class CensusCurve:
    p: int
    m: int
    g: int
    a: int
    v: tuple
    f: tuple


def _census_curve(rng, counter, g):
    """A curve y^2 = (x-a)^{2g+1} + v^2 with a and v over the prime field, so
    that its squarefreeness, decided here over GF(p), does not depend on the
    modulus the program picks for GF(p^m)."""
    p, m, q = counter.p, counter.m, counter.q
    n = 2 * g + 1
    for _ in range(100000):
        a = rng.randrange(p)
        v = arith.trim([rng.randrange(p) for _ in range(g + 1)])
        if not v or arith.zp_eval(v, a, p) == 0:
            continue
        f = arith.zp_add(arith.zp_linear_power(a, n, p), arith.zp_mul(v, v, p), p)
        if arith.zp_is_squarefree(f, p) and (
                g == 1 or abs(counter.count(f) - q) <= max(1, q ** 0.5 / 2)):
            return CensusCurve(p, m, g, a, tuple(v), tuple(f))
    raise RuntimeError(f"no squarefree census curve for p={p}, g={g}")


def census_inputs(seed):
    rng = random.Random(f"census-{seed}")
    counters = {}
    jobs = []
    for p, m, g, copies in CENSUS_SLOTS:
        counter = counters.setdefault((p, m), arith.PointCounter(p, m))
        jobs += [_census_curve(rng, counter, g) for _ in range(copies)]
    jobs += list(MALFORMED)
    rng.shuffle(jobs)
    return {"seed": seed, "jobs": jobs}


def census_client(inputs):
    cli_seed = str(inputs["seed"])
    for job in inputs["jobs"]:
        if not isinstance(job, CensusCurve):
            name, argv = job
            yield Op(f"malformed:{name}", list(argv), expect="error")
            continue
        p, m, g = job.p, job.m, job.g
        rec = yield Op("construct-single", [
            "construct-single", "--field", _field_spec(p, m), "--g", str(g),
            "--a", json.dumps(_elem(job.a, m)),
            "--v", json.dumps([_elem(c, m) for c in job.v]), "--seed", cli_seed],
            meta={"curve": job})
        if rec.failed:
            continue
        yield Op("census", [
            "census", "--p", str(p), "--m", str(m), "--g", str(g),
            "--curve", json.dumps(rec.payload["curve"]["f"]),
            "--n", str(2 * g + 1), "--seed", cli_seed], meta={"curve": job})


def census_check(inputs, records, lib, call):
    problems = []
    for rec in records:
        job = rec.op.meta.get("curve")
        if job is None or rec.failed:
            continue
        p, m, g = job.p, job.m, job.g
        y = arith.zp_eval(list(job.v), job.a, p)
        mine = {(json.dumps(_elem(job.a, m)), json.dumps(_elem(y, m))),
                (json.dumps(_elem(job.a, m)), json.dumps(_elem(-y % p, m)))}
        pl = rec.payload
        where = f"{rec.op.label} p={p} m={m} g={g} a={job.a} v={list(job.v)}"
        if rec.op.label == "construct-single":
            if pl["curve"]["f"] != [_elem(c, m) for c in job.f]:
                problems.append(f"{where}: f != (x-a)^(2g+1) + v^2")
            if pl["curve"]["g"] != g or pl["curve"]["field"]["p"] != p:
                problems.append(f"{where}: wrong curve header")
            if pl["point"] != {"x": _elem(job.a, m), "y": _elem(y, m)}:
                problems.append(f"{where}: printed point is not (a, v(a))")
        else:
            found = {(json.dumps(P["x"]), json.dumps(P["y"])) for P in pl["points"]}
            if pl["n"] != 2 * g + 1 or pl["count"] != 2 or found != mine:
                problems.append(f"{where}: census {sorted(found)} != {sorted(mine)}")
    return problems


# -- pairing ---------------------------------------------------------------

# Criterion 7's fields, as (spec, p, m, g).  The weil calls use the CLI's
# default field representation: how f factors, and so what root_field has to
# build, depends on the modulus, and varying it moves a round's time by
# about 8% between seeds.
PAIRING_FIELDS = (("GF:11", 11, 1, 2), ("GF:29,2", 29, 2, 2),
                  ("GF:29", 29, 1, 3), ("GF:11,3", 11, 3, 3))
CHAR_TEMPLATES = 6      # upsilon_{I,J} templates for p=3, k=1, l=2 over GF(3^4)
FAMILIES = 52
TRIVIAL_PAIRINGS = 8    # families whose complement exponents sum to 0 mod 2g+1


def pairing_inputs(seed):
    rng = random.Random(f"pairing-{seed}")
    ops = []
    for spec, p, m, g in PAIRING_FIELDS:
        for I in itertools.combinations(range(2 * g), g):
            ops.append(Op("weil", ["weil", "--field", spec, "--g", str(g),
                                   "--I", ",".join(map(str, I))],
                          meta={"field": (spec, p, m), "g": g, "I": I}))
    for index in range(CHAR_TEMPLATES):
        ops.append(Op("find-mu", [
            "find-mu", "--field", "GF:3,4", "--g", "7", "--regime", "char",
            "--p", "3", "--k", "1", "--l", "2", "--index", str(index),
            "--seed", str(seed)], meta={"index": index}))
    rng.shuffle(ops)
    return {"seed": seed, "ops": ops}


def pairing_client(inputs):
    for op in inputs["ops"]:
        yield op


def _probe_modulus(call, spec, m):
    """The modulus the CLI uses for a field spec with its default seed, read
    from a construct-single of y^2 = x^5 + 1."""
    if m == 1:
        return [0, 1]
    argv = ["construct-single", "--field", spec, "--g", "2",
            "--a", json.dumps([0] * m), "--v", json.dumps([[1] + [0] * (m - 1)])]
    rec = call(argv)
    rec.op = Op("probe", argv)
    return None if rec.failed else rec.payload["curve"]["field"]["modulus"]


def pairing_check(inputs, records, lib, call):
    problems = []
    fields = {}
    trivial = 0
    for rec in records:
        if rec.failed:
            continue
        pl = rec.payload
        if rec.op.label == "weil":
            spec, p, m = rec.op.meta["field"]
            g, I = rec.op.meta["g"], rec.op.meta["I"]
            n = 2 * g + 1
            if spec not in fields:
                modulus = _probe_modulus(call, spec, m)
                if modulus is None:
                    problems.append(f"cannot read the modulus of {spec}")
                    fields[spec] = None
                else:
                    F = arith.Fq(p, modulus)
                    fields[spec] = (F, F.primitive_root_of_unity(n))
            if fields[spec] is None:
                continue
            F, zeta = fields[spec]
            exps = sum(i + 1 for i in range(2 * g) if i not in I) % n
            e = F.from_json(pl["explicit"])
            where = f"weil {spec} g={g} I={I}"
            if pl["explicit"] != pl["closed"] or pl["match"] is not True:
                problems.append(f"{where}: explicit != closed")
            if F.pow(e, n) != F.one:
                problems.append(f"{where}: e^(2g+1) != 1")
            if e != F.pow(zeta, exps):
                problems.append(f"{where}: e != product of the complement roots")
            if (e == F.one) != (exps == 0):
                problems.append(f"{where}: e = 1 does not match the exponent sum")
            trivial += e == F.one
        else:
            problems += _check_marked_points(pl, 15, lib, f"find-mu {rec.op.meta}")
    checked = sum(1 for r in records if r.op.label == "weil" and not r.failed)
    if checked == FAMILIES and trivial != TRIVIAL_PAIRINGS:
        problems.append(f"{trivial} trivial pairings, expected {TRIVIAL_PAIRINGS}")
    return problems


def _check_marked_points(pl, n, lib, where):
    curve = pl["curve"]
    fld = curve["field"]
    F = arith.Fq(fld["p"], fld.get("modulus", [0, 1]))
    f = [F.from_json(c) for c in curve["f"]]
    problems = []
    if F.from_json(pl["P"]["x"]) != F.zero or F.from_json(pl["Q"]["x"]) != F.neg(F.one):
        problems.append(f"{where}: marked abscissas are not 0 and -1")
    K = lib.field_make(fld)
    C = lib.Curve(K, curve["g"], lib.Poly.from_json(K, curve["f"]))
    for name in ("P", "Q"):
        x, y = F.from_json(pl[name]["x"]), F.from_json(pl[name]["y"])
        if F.mul(y, y) != F.poly_eval(f, x):
            problems.append(f"{where}: {name} is not on the curve")
            continue
        D = lib.embed(C, lib.AffinePoint.from_json(C.ctx, pl[name]))
        if lib.exact_order(C, D, n) != n:
            problems.append(f"{where}: Cantor order of {name} is not {n}")
    return problems


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: object
    client: object
    check: object
    round_ops: dict     # operations per round, by label


CENSUS_CURVES = sum(slot[3] for slot in CENSUS_SLOTS)

WORKLOADS = {
    "census": Workload("census", census_inputs, census_client, census_check,
                       {"construct-single": CENSUS_CURVES, "census": CENSUS_CURVES,
                        **{f"malformed:{name}": 1 for name, _ in MALFORMED}}),
    "pairing": Workload("pairing", pairing_inputs, pairing_client, pairing_check,
                        {"weil": FAMILIES, "find-mu": CHAR_TEMPLATES}),
}
