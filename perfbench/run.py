#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the hyptorsion CLI.

    python3 perfbench/run.py --workload census --seed 1 --seconds 55 --trace 0

Builds the package from `src/` with the repository's `setup.py` into
`.bench_build/` (reused while the sources are unchanged), imports it, makes
the workload's inputs from the seed, then runs whole rounds of operations,
each one in-process call of `hyptorsion.cli.main(argv)` with its stdout
captured, ending at the round end nearest to `--seconds`.  With
`--trace 1` the first round runs untraced and the rest run with every
library layer wrapped, and the per-layer metrics are reported instead of the
end-to-end ones.  Outputs are checked after the timed phase.  The last line
of stdout is one JSON object; `--out FILE` also appends the full run record
to FILE for `perfbench/compare.py`.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import types
from pathlib import Path
from time import perf_counter

import tracing
from workloads import WORKLOADS, Record

ROOT = Path(__file__).resolve().parent.parent
BUILD_DIR = ROOT / ".bench_build"
SETUP_REPEATS = 10     # set-ups before the timed phase, and again after it
P90_MIN_OPS = 100


class BuildError(Exception):
    pass


# -- build -----------------------------------------------------------------

def _source_files():
    files = [ROOT / "setup.py", ROOT / "pyproject.toml"]
    if (ROOT / "README.md").is_file():
        files.append(ROOT / "README.md")
    src = ROOT / "src"
    files += sorted(p for p in src.rglob("*") if p.is_file()
                    and "__pycache__" not in p.parts
                    and not any(part.endswith(".egg-info") for part in p.parts))
    return files


def build():
    """Build with `setup.py build` from a staged copy of the sources, so the
    tree itself is never written; returns (lib dir, source digest)."""
    if not (ROOT / "setup.py").is_file() or not (ROOT / "src" / "hyptorsion").is_dir():
        raise BuildError(f"no hyptorsion sources under {ROOT}")
    digest = hashlib.sha256()
    files = _source_files()
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    key = digest.hexdigest()[:16]
    lib = BUILD_DIR / f"hyptorsion-{key}" / "lib"
    if (lib / "hyptorsion" / "__init__.py").is_file():
        return lib, key
    stage = BUILD_DIR / f"stage-{key}-{os.getpid()}"
    shutil.rmtree(stage, ignore_errors=True)
    try:
        for path in files:
            dest = stage / path.relative_to(ROOT)
            dest.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(path, dest)
        proc = subprocess.run(
            [sys.executable, "setup.py", "-q", "build", "--build-base", "build"],
            cwd=stage, capture_output=True, text=True, timeout=800)
        if proc.returncode != 0:
            raise BuildError(f"setup.py build failed:\n{proc.stdout}\n{proc.stderr}")
        built = stage / "build" / next((stage / "build").glob("lib*")).name
        lib.parent.mkdir(parents=True, exist_ok=True)
        try:
            os.replace(built, lib)
        except OSError:
            if not (lib / "hyptorsion" / "__init__.py").is_file():
                raise
            # another run finished the same build first
    finally:
        shutil.rmtree(stage, ignore_errors=True)
    return lib, key


def git_revision():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


# -- running ---------------------------------------------------------------

def setup(workload, seed):
    """Import hyptorsion afresh and make the inputs; returns the CLI module,
    the package, the inputs and the time taken."""
    for name in [n for n in sys.modules if n == "hyptorsion" or n.startswith("hyptorsion.")]:
        if name != "hyptorsion._kernel":   # an extension cannot be loaded twice
            del sys.modules[name]
    start = perf_counter()
    cli = importlib.import_module("hyptorsion.cli")
    inputs = workload.inputs(seed)
    return cli, sys.modules["hyptorsion"], inputs, perf_counter() - start


def make_call(cli, tracer=None):
    def call(argv):
        buf = io.StringIO()
        exc = code = None
        start = perf_counter()
        with contextlib.redirect_stdout(buf):
            try:
                code = (tracer.root("cli", cli.main, argv) if tracer
                        else cli.main(argv))
            except (Exception, SystemExit) as err:  # an escaped fault is a failed op
                exc = type(err).__name__
        return Record(None, perf_counter() - start, code, buf.getvalue(), exc)
    return call


def run_round(workload, inputs, call):
    records = []
    client = workload.client(inputs)
    try:
        op = next(client)
        while True:
            rec = call(op.argv)
            rec.op = op
            records.append(rec)
            op = client.send(rec)
    except StopIteration:
        pass
    return records


def run_rounds(workload, inputs, call, deadline, started):
    """Whole rounds, at least one, ending at the round end nearest to
    `deadline` seconds after `started`: another round starts only while the
    time left is more than half a mean round.  A pairing round takes about
    20 s, so stopping at the first round end past the deadline would make a
    run last up to a round longer than asked."""
    rounds, times = [], []
    while True:
        t0 = perf_counter()
        rounds.append(run_round(workload, inputs, call))
        times.append(perf_counter() - t0)
        if perf_counter() + statistics.fmean(times) / 2 >= started + deadline:
            return rounds, times


def round_problems(workload, rounds):
    """Every round runs the workload's operations, every operation on
    well-formed input succeeds, and later rounds print what the first did."""
    problems = []
    for i, rnd in enumerate(rounds, start=1):
        labels = collections.Counter(r.op.label for r in rnd)
        if labels != collections.Counter(workload.round_ops):
            problems.append(f"round {i} ran {dict(labels)}, not {workload.round_ops}")
        for r in rnd:
            if r.failed and r.op.expect == "ok":
                problems.append(f"round {i}: {r.op.label} {r.op.argv} failed "
                                f"(exit {r.code}, exception {r.exc}): {r.out[:200]}")
    first = [(r.op.label, r.out, r.exc) for r in rounds[0]]
    for i, rnd in enumerate(rounds[1:], start=2):
        if [(r.op.label, r.out, r.exc) for r in rnd] != first:
            problems.append(f"round {i} printed different output from round 1")
            break
    return problems


def library_view():
    """The library entry points the checks use as an oracle."""
    from hyptorsion import fields, jacobian, polyring
    return types.SimpleNamespace(
        field_make=fields.field_make, Curve=jacobian.Curve, embed=jacobian.embed,
        exact_order=jacobian.exact_order, AffinePoint=jacobian.AffinePoint,
        Poly=polyring.Poly)


def twin_check(tracer):
    """Replay sampled compiled-kernel calls through the pure twin."""
    from hyptorsion import _kernel_py, kernels
    if kernels.BACKEND != "compiled":
        return "skipped (pure backend)", 0, []
    compiled = sys.modules["hyptorsion._kernel"]
    problems = []
    for name, args in tracer.twin_samples:
        want = getattr(compiled, name)(*args)
        got = getattr(_kernel_py, name)(*args)
        if json.dumps(want) != json.dumps(got):
            problems.append(f"kernel twin mismatch in {name}{args!r}")
    if not tracer.twin_samples:
        return "not run (no compiled kernel call was sampled)", 0, []
    status = "failed" if problems else f"passed ({len(tracer.twin_samples)} calls)"
    return status, len(tracer.twin_samples), problems


# -- metrics ---------------------------------------------------------------

def layer_metrics(tracer, rounds, output_bytes, overhead, twin_checked):
    """Per-round per-layer figures from the traced rounds."""
    k = rounds
    calls = tracer.calls
    m = {}
    for layer, _ in tracing.LAYERS:
        m[f"{layer}.self_s"] = (tracer.self_s[layer] / k, "s")
        m[f"{layer}.calls"] = (tracer.entries[layer] / k, "count")
    for op in ("pmul", "pdivmod", "pxgcd", "pmulmod", "ppowmod", "pinvmod"):
        m[f"kernels.{op}.calls"] = (calls[f"kernels.{op}"] / k, "count")
    m["kernels.coeff_mults"] = (tracer.counters["kernels.coeff_mults"] / k, "mults.computed")
    m["kernels.twin_checked"] = (twin_checked, "count")
    m["fields.ext_mul.calls"] = (calls["fields.ExtField.mul"] / k, "count")
    m["fields.ext_inv.calls"] = (calls["fields.ExtField.inv"] / k, "count")
    m["fields.sqrt.calls"] = ((calls["fields.FiniteFieldMixin.sqrt"]
                               + calls["fields.Rationals.sqrt"]) / k, "count")
    m["fields.make_s"] = (tracer.incl["fields.make"] / k, "s")
    for name, key in (("mul", "Poly.__mul__"), ("divmod", "Poly.__divmod__"),
                      ("xgcd", "Poly.xgcd"), ("is_squarefree", "is_squarefree")):
        m[f"polyring.{name}.calls"] = (calls[f"polyring.{key}"] / k, "count")
    m["polyring.is_squarefree.s"] = (tracer.incl["polyring.is_squarefree"] / k, "s")
    for name in ("cantor_add", "exact_order", "points_with_x"):
        m[f"jacobian.{name}.calls"] = (calls[f"jacobian.{name}"] / k, "count")
    for name in ("make_single", "make_pair"):
        m[f"torsion.{name}.calls"] = (calls[f"torsion.{name}"] / k, "count")
    m["torsion.make_pair.rejected"] = (tracer.raised["torsion.make_pair"] / k, "count")
    tried = tracer.counters["families.mu_tried"]
    found = calls["families.find_good_mu"] - tracer.raised["families.find_good_mu"]
    m["families.find_good_mu.calls"] = (calls["families.find_good_mu"] / k, "count")
    m["families.mu_tried"] = (tried / k, "count")
    m["families.mu_yield"] = (found / tried if tried else 0.0, "ratio")
    m["pairing.weil_explicit.calls"] = (calls["pairing.weil_explicit"] / k, "count")
    m["pairing.root_field.calls"] = (calls["pairing.root_field"] / k, "count")
    m["pairing.root_field.s"] = (tracer.incl["pairing.root_field"] / k, "s")
    m["pairing.weil_closed.s"] = (tracer.incl["pairing.weil_closed"] / k, "s")
    m["cli.output_bytes"] = (output_bytes / k, "bytes")
    m["trace.overhead"] = (overhead, "x")
    return m


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=None, help="append the run record to this file")
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]

    try:
        lib_dir, source_key = build()
    except (BuildError, OSError, subprocess.SubprocessError, StopIteration) as err:
        print(f"build failed: {err}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(lib_dir))

    setup_times = []
    for _ in range(SETUP_REPEATS):
        cli, pkg, inputs, secs = setup(workload, args.seed)
        setup_times.append(secs)
    gc.collect()   # the earlier copies' garbage is not the operations' to pay
    if Path(pkg.__file__).resolve().parent.parent != lib_dir.resolve():
        print(f"imported hyptorsion from {pkg.__file__}, not the build", file=sys.stderr)
        return 2
    print(f"workload {args.workload}  seed {args.seed}  backend {pkg.BACKEND}  "
          f"python {platform.python_version()}  nproc {os.cpu_count()}  "
          f"rev {git_revision()}  sources {source_key}")

    started = perf_counter()
    tracer = None
    if args.trace:
        base_rounds, base_times = run_rounds(workload, inputs, make_call(cli), 0, started)
        tracer = tracing.Tracer(pkg)
        tracer.install()
        try:
            rounds, times = run_rounds(workload, inputs, make_call(cli, tracer),
                                       args.seconds, started)
        finally:
            tracer.uninstall()
        all_rounds = base_rounds + rounds
    else:
        rounds, times = run_rounds(workload, inputs, make_call(cli), args.seconds, started)
        all_rounds = rounds
    timed = perf_counter() - started
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    for _ in range(SETUP_REPEATS):
        cli, pkg, _, secs = setup(workload, args.seed)
        setup_times.append(secs)

    records = [r for rnd in all_rounds for r in rnd]
    attempted = len(records)
    failed = sum(r.failed for r in records)
    problems = round_problems(workload, all_rounds)
    problems += workload.check(inputs, all_rounds[0], library_view(), make_call(cli))
    twin_status = "not run (untraced)"

    # only operations that succeeded count as completed
    latencies = [r.seconds for rnd in rounds for r in rnd if not r.failed]
    ops = len(latencies)
    # Each round runs the same operations in the same order, so position i
    # is one operation.  op_p50_ms is the median over operations of each
    # one's mean latency over the rounds.  A shared host's speed can switch
    # between levels about 1.5 times apart within a second, and a median
    # pooled over all latencies jumps between them when many operations
    # take about the same time.
    per_op = collections.defaultdict(list)
    for rnd in rounds:
        for i, r in enumerate(rnd):
            if not r.failed:
                per_op[i].append(r.seconds)
    op_means = [statistics.fmean(v) for v in per_op.values()]
    if not ops:
        problems.append("no operation succeeded")
        latencies = op_means = [0.0]
    if tracer is None:
        metrics = {
            "ops_per_s": (ops / sum(times), "ops/s"),
            "op_p50_ms": (statistics.median(op_means) * 1e3, "ms"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        extra = {"op_p90_ms": statistics.quantiles(latencies, n=10)[-1] * 1e3
                 if ops >= P90_MIN_OPS else None, "round_s": times}
    else:
        twin_status, twin_checked, twin_problems = twin_check(tracer)
        problems += twin_problems
        overhead = statistics.fmean(times) / statistics.fmean(base_times)
        output_bytes = sum(len(r.out) for rnd in rounds for r in rnd)
        metrics = layer_metrics(tracer, len(rounds), output_bytes, overhead, twin_checked)
        extra = {"base_round_s": base_times, "traced_round_s": times}

    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    if tracer is None:
        p90 = extra["op_p90_ms"]
        print(f"op_p90_ms: {p90:.6g} ms" if p90 is not None else
              f"op_p90_ms: not reported ({ops} ops, fewer than {P90_MIN_OPS})")
    else:
        print(f"kernel twin check: {twin_status}")
    print(f"rounds {len(rounds)}  ops {ops}  attempted {attempted}  failed {failed}  "
          f"timed {timed:.2f} s")
    failures = sorted({r.op.label for r in records if r.failed})
    if failures:
        print(f"failed operations: {', '.join(failures)}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")

    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    if args.out:
        record = dict(result, workload=args.workload, seed=args.seed,
                      seconds=args.seconds, trace=args.trace, rounds=len(rounds),
                      ops=ops, backend=pkg.BACKEND, python=platform.python_version(),
                      git_revision=git_revision(), sources=source_key,
                      nproc=os.cpu_count(), twin_check=twin_status,
                      setup_samples_s=setup_times, problems=problems,
                      failed_ops=failures, **extra)
        with open(args.out, "a") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
