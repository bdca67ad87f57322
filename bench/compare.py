"""Summarize one set of runs, or compare two (parent and change).

    python3 bench/compare.py runs.jsonl
    python3 bench/compare.py parent.jsonl change.jsonl

Input files come from collect.py. For one set, each workload and metric gets
its median, quartiles and spread (interquartile range over the median),
against the metric's bound from BENCHMARK.json. For two sets, runs are
paired by seed, and each metric gets both sides' medians and quartiles, the
share of pairs the change won (ties count for neither) and a verdict:

- improved: the change won at least 9 of 10 pairs and the medians differ by
  more than the parent's interquartile range;
- worse: the change's median is worse than the parent's by more than the
  metric's bound;
- unresolved: neither, and the spread of either side is wider than the
  bound, unless every change run beats every parent run;
- unchanged: otherwise.

Per-layer metrics have no bound, so they are only ever improved, worse (by
the improved rule in the other direction) or unchanged.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: str) -> dict:
    """{(workload, trace): {seed: result}}"""
    runs = defaultdict(dict)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                r = json.loads(line)
                runs[(r["workload"], r["trace"])][r["seed"]] = r["result"]
    return runs


def quartiles(values: list):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def verdict(a: list, b: list, better: str, bound) -> tuple:
    """(share of pairs won by b, verdict) for paired runs a (parent), b (change)."""
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (y - x) > 0 for x, y in zip(a, b)) / len(a)
    losses = sum(sign * (y - x) < 0 for x, y in zip(a, b)) / len(a)
    (qa1, ma, qa3), (qb1, mb, qb3) = quartiles(a), quartiles(b)
    if wins >= 0.9 and abs(mb - ma) > qa3 - qa1 and sign * (mb - ma) > 0:
        return wins, "improved"
    if bound is None:
        if losses >= 0.9 and abs(mb - ma) > qa3 - qa1:
            return wins, "worse"
        return wins, "unchanged"
    if sign * (mb - ma) < -bound * abs(ma):
        return wins, "worse"
    every_better = min(b) > max(a) if sign > 0 else max(b) < min(a)
    if max(spread(a), spread(b)) > bound and not every_better:
        return wins, "unresolved"
    return wins, "unchanged"


def metric_specs() -> dict:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    specs = {m["name"]: m for m in declared["end_to_end"]}
    specs.update({m["name"]: dict(m, bound=None) for m in declared["per_layer"]})
    return specs


def summarize(runs: dict, specs: dict):
    for (workload, trace), by_seed in sorted(runs.items()):
        results = list(by_seed.values())
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        print(f"\n{workload} (trace {trace}): {len(results)} runs, "
              f"{failed}/{attempted} operations failed")
        print(f"  {'metric':48s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>7s} {'bound':>6s}")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            q1, q2, q3 = quartiles(values)
            bound = specs[name]["bound"]
            flag = "" if bound is None else ("" if spread(values) <= bound / 3 else
                                             " > bound/3" if spread(values) <= bound else " > BOUND")
            print(f"  {name:48s} {q2:12.6g} {q1:12.6g} {q3:12.6g} {spread(values):7.3f} "
                  f"{'' if bound is None else bound:>6}{flag}")


def compare(base: dict, change: dict, specs: dict):
    for key in sorted(base):
        if key not in change:
            continue
        seeds = sorted(set(base[key]) & set(change[key]))
        a_runs = [base[key][s] for s in seeds]
        b_runs = [change[key][s] for s in seeds]
        fa = sum(r["failed"] for r in a_runs)
        fb = sum(r["failed"] for r in b_runs)
        print(f"\n{key[0]} (trace {key[1]}): {len(seeds)} pairs; failed operations "
              f"parent {fa}, change {fb}{'  <- MORE FAILURES' if fb > fa else ''}")
        print(f"  {'metric':48s} {'parent median [q1, q3]':>36s} {'change median [q1, q3]':>36s} "
              f"{'won':>5s}  verdict")
        for name in a_runs[0]["metrics"]:
            a = [r["metrics"][name]["value"] for r in a_runs]
            b = [r["metrics"][name]["value"] for r in b_runs]
            spec = specs[name]
            wins, v = verdict(a, b, spec["better"], spec["bound"])
            qa, qb = quartiles(a), quartiles(b)
            print(f"  {name:48s} {qa[1]:12.6g} [{qa[0]:.4g}, {qa[2]:.4g}]".ljust(87)
                  + f"{qb[1]:12.6g} [{qb[0]:.4g}, {qb[2]:.4g}]".ljust(37)
                  + f"{wins:5.2f}  {v}")


def main(argv):
    specs = metric_specs()
    if len(argv) == 1:
        summarize(load(argv[0]), specs)
    elif len(argv) == 2:
        compare(load(argv[0]), load(argv[1]), specs)
    else:
        sys.exit(__doc__)


if __name__ == "__main__":
    main(sys.argv[1:])
