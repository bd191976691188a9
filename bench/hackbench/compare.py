#!/usr/bin/env python3
"""Compare two sets of hackbench runs, metric by metric.

    python3 bench/hackbench/compare.py --base BASE_OUT... --head HEAD_OUT...

Each file is the standard output of one or more hackbench runs (run.sh).
For every workload and metric it prints each set's median and quartiles
next to the metric's bound from BENCHMARK.json, and a verdict:

  ok          the head median is not worse than the base median by more
              than the bound
  worse       the head median is worse by more than the bound
  unresolved  a set's spread (quartile distance over median) is wider than
              the bound, so the data cannot tell; this is reported as
              unresolved even when the medians agree, unless every head run
              beats every base run
  n/a         the metric has no bound (per-layer metrics)

Exits 1 when any verdict is "worse" or any run failed a check. Standard
library only.
"""
import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(HERE, "..", "..", "BENCHMARK.json")


def load_runs(paths):
    """Returns ({(workload, metric): [values]}, {metric: unit}, [failures])."""
    values, units, failures = {}, {}, []
    for path in paths:
        workload = None
        with open(path) as f:
            for line in f:
                line = line.strip()
                if not line.startswith("{"):
                    continue
                obj = json.loads(line)
                if "provenance" in obj:
                    workload = obj["provenance"]["workload"]
                elif "metric" in obj:
                    key = (obj["workload"], obj["metric"])
                    values.setdefault(key, []).append(obj["value"])
                    units[obj["metric"]] = obj["unit"]
                elif "correct" in obj and not obj["correct"]:
                    failures.append(f"{path}: {workload}: "
                                    f"{obj['failed']}/{obj['attempted']} failed")
    return values, units, failures


def quartiles(v):
    if len(v) < 2:
        return v[0], v[0], v[0]
    q1, q2, q3 = statistics.quantiles(v, n=4)
    return q1, statistics.median(v), q3


def spread(v):
    q1, med, q3 = quartiles(v)
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(base, head, bound, better):
    if bound is None:
        return "n/a"
    sign = 1.0 if better == "lower" else -1.0
    b_med, h_med = statistics.median(base), statistics.median(head)
    change = sign * (h_med - b_med) / abs(b_med) if b_med else 0.0
    if max(spread(base), spread(head)) > bound:
        all_better = all(sign * (h - b) < 0 for h in head for b in base)
        return "ok" if all_better else "unresolved"
    return "worse" if change > bound else "ok"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--head", nargs="+", required=True)
    args = ap.parse_args()

    with open(SPEC) as f:
        spec = json.load(f)
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    order = [m["name"] for m in spec["end_to_end"]] + \
            [m["name"] for m in spec["per_layer"]]

    base, units, base_fail = load_runs(args.base)
    head, _, head_fail = load_runs(args.head)
    workloads = sorted({w for w, _ in base} & {w for w, _ in head})

    print(f"{'workload':18} {'metric':36} {'base median [q1, q3]':>34} "
          f"{'head median [q1, q3]':>34} {'change':>8} {'bound':>6} verdict")
    worse = False
    for w in workloads:
        for metric in order:
            b, h = base.get((w, metric)), head.get((w, metric))
            if not b or not h:
                continue
            bound, better = bounds.get(metric, (None, None))
            v = verdict(b, h, bound, better)
            worse |= v == "worse"
            bq, hq = quartiles(b), quartiles(h)
            change = (hq[1] - bq[1]) / abs(bq[1]) if bq[1] else 0.0
            fmt = "{1:.4g} [{0:.4g}, {2:.4g}]"
            print(f"{w:18} {metric:36} {fmt.format(*bq):>34} "
                  f"{fmt.format(*hq):>34} {change:+8.1%} "
                  f"{'' if bound is None else f'{bound:.0%}':>6} {v}"
                  f"  ({units.get(metric, '')}, n={len(b)}/{len(h)})")
    for failure in base_fail + head_fail:
        print(f"failed run: {failure}")
    return 1 if worse or base_fail or head_fail else 0


if __name__ == "__main__":
    sys.exit(main())
