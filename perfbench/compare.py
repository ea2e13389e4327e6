#!/usr/bin/env python3
"""Compare the benchmark results of two commits.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the run records that `perfbench/run.py --out FILE` appends.
For every workload and end-to-end metric it prints each side's median and
quartiles, how many seed-paired runs the change won, and a verdict:

- improved: at least ten pairs, the change wins at least nine tenths of
  them (ties count for neither side), its median is better by more than the
  parent's own quartile spread, no more operations fail than at the
  parent, and every run of the change passed its checks;
- unresolved: the parent's quartile spread is wider than the metric's
  bound, unless every run of the change reads better than every run of the
  parent;
- worse: the change's median is worse than the parent's by more than the
  bound in BENCHMARK.json;
- no worse: otherwise.

Per-layer medians from traced runs are listed after, without a verdict.
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(path):
    runs = defaultdict(list)
    with open(path) as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                runs[(rec["workload"], rec["trace"])].append(rec)
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def better(a, b, direction):
    return a > b if direction == "higher" else a < b


def verdict(parent, change, pairs, direction, bound, more_failures):
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    all_better = all(better(c, p, direction) for c in change for p in parent)
    if (p3 - p1) > bound * pm and not all_better:
        return "unresolved"
    worse_by = (cm - pm) / pm if direction == "lower" else (pm - cm) / pm
    if worse_by > bound:
        return "worse"
    wins = sum(better(c, p, direction) for p, c in pairs)
    if (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
            and better(cm, pm, direction) and abs(cm - pm) > p3 - p1
            and not more_failures):
        return "improved"
    return "no worse"


def fail_share(records):
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    return attempted, failed, failed / attempted if attempted else 0.0


def compare(parent_runs, change_runs, spec):
    e2e = spec["end_to_end"]
    for w in [w["name"] for w in spec["workloads"]]:
        parent, change = parent_runs.get((w, 0), []), change_runs.get((w, 0), [])
        if not parent or not change:
            print(f"\n{w}: no untraced runs on {'both sides' if not parent and not change else 'one side'}")
            continue
        pa, pf, pshare = fail_share(parent)
        ca, cf, cshare = fail_share(change)
        incorrect = sum(not r["correct"] for r in change)
        more_failures = cshare > pshare or incorrect > 0
        print(f"\n{w}: parent {len(parent)} runs, {pa} ops attempted, {pf} failed; "
              f"change {len(change)} runs, {ca} ops attempted, {cf} failed"
              + ("  (MORE FAILURES)" if cshare > pshare else "")
              + (f"  ({incorrect} CHANGE RUNS FAILED THEIR CHECKS)" if incorrect else ""))
        by_seed = {r["seed"]: r for r in parent}
        matched = [(by_seed[r["seed"]], r) for r in change if r["seed"] in by_seed]
        print(f"  {'metric':<14}{'parent q1/median/q3':>32}{'change q1/median/q3':>32}"
              f"{'wins':>8}  verdict")
        for m in e2e:
            name = m["name"]
            pv = [r["metrics"][name]["value"] for r in parent]
            cv = [r["metrics"][name]["value"] for r in change]
            pairs = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                     for p, c in matched]
            wins = sum(better(c, p, m["better"]) for p, c in pairs)
            v = verdict(pv, cv, pairs, m["better"], m["bound"], more_failures)
            fmt = "{:.4g}/{:.4g}/{:.4g}"
            print(f"  {name:<14}{fmt.format(*quartiles(pv)):>32}{fmt.format(*quartiles(cv)):>32}"
                  f"{f'{wins}/{len(pairs)}':>8}  {v}  ({m['unit']}, {m['better']} is better, "
                  f"bound {m['bound']:.0%})")
    for w in [w["name"] for w in spec["workloads"]]:
        parent, change = parent_runs.get((w, 1), []), change_runs.get((w, 1), [])
        if not parent or not change:
            continue
        print(f"\n{w} per layer (traced, medians per round): parent {len(parent)} runs, "
              f"change {len(change)} runs")
        for m in spec["per_layer"]:
            name = m["name"]
            pm = statistics.median(r["metrics"][name]["value"] for r in parent)
            cm = statistics.median(r["metrics"][name]["value"] for r in change)
            print(f"  {name:<34}{pm:>14.6g}{cm:>14.6g}  {m['unit']}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="run records of the parent commit")
    ap.add_argument("change", help="run records of the change")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    compare(load(args.parent), load(args.change), spec)


if __name__ == "__main__":
    main()
