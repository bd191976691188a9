#!/usr/bin/env python3
"""Diff committed bench baselines against a fresh run's BENCH_*.json artifacts.

Every bench in this repo emits one JSON object per line (the CI workflow
greps them out of the tool's stdout with `grep '^{'`). This script compares
the throughput-style metrics of two such directories:

    python3 scripts/bench_trend.py \
        --baseline bench/baselines --current bench-json [--threshold 0.10]

Matching is structural, not positional: a line is keyed by its "bench" name
plus any discriminator fields it carries (mode, kv_bits, context, worker,
policy, ...), so reordering lines or adding new legs never misattributes a
number. For each matched pair, every higher-is-better metric present in
*both* lines must satisfy

    current >= baseline * (1 - threshold)

and every exact counter present in both lines (the fault ledger of a seeded
chaos leg, the measured wire bytes in total and per section) must equal its
baseline, or the script exits non-zero listing each regression and mismatch.

Missing *files* are hard errors with a per-leg message: a committed baseline
whose BENCH_*.json artifact never materialised means the CI leg silently
failed or was renamed, and a missing/empty baseline directory means the
checkout is broken — both exit non-zero naming the leg, never a stack trace.
Finer-grained gaps — a current artifact with no committed baseline yet, or
lines/metrics present on only one side — warn only: baselines are generated
on whatever machine cut them, and CI runners grow new legs faster than
baselines are refreshed.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

# Fields that identify *which* measurement a line is, as opposed to the
# measurement itself. Any of these present in a JSON line joins the match key.
DISCRIMINATORS = (
    "bench", "mode", "name", "label", "fig", "table", "section", "layout",
    "kv_bits", "q_bits", "bits", "pi", "context", "threads", "requests",
    "engine", "policy", "kills", "prefill_workers", "decode_workers",
    "worker", "role", "arrival", "dataset", "model", "gpus",
)

# Higher-is-better metrics to trend. Latency-style fields are deliberately
# absent: tail latencies on shared CI runners are too noisy to gate on.
THROUGHPUT_KEYS = (
    "tokens_per_s", "decode_tokens_per_s", "prefill_tokens_per_s",
    "batched_tokens_per_s", "goodput_rps", "items_per_second",
    "tokens_per_second", "speedup",
)

# Counters that are a pure function of a leg's flags and seeds — never of the
# runner's speed or lane count — so any difference from the baseline is a
# behaviour change, not noise: the serialized KV wire bytes (in total and per
# section: packed codes, FP16 metadata, SE sums, V tail) and the recovery
# ledger of a seeded fault schedule.
EXACT_KEYS = (
    "wire_bytes_total", "wire_codes_bytes", "wire_metadata_bytes",
    "wire_sums_bytes", "wire_tail_bytes", "retries", "chunks_dropped",
    "chunks_corrupted", "crc_failures", "retransmitted_bytes",
    "prefill_crashes", "decode_crashes", "fallbacks",
)


def load_lines(path: pathlib.Path):
    """Parse a BENCH_*.json file of JSON lines into {match_key: line_dict}."""
    out = {}
    for raw in path.read_text().splitlines():
        raw = raw.strip()
        if not raw.startswith("{"):
            continue
        try:
            obj = json.loads(raw)
        except json.JSONDecodeError:
            print(f"warning: {path.name}: unparseable line skipped", file=sys.stderr)
            continue
        key = tuple((k, obj[k]) for k in DISCRIMINATORS if k in obj)
        if key in out:
            print(f"warning: {path.name}: duplicate key {key}; keeping first",
                  file=sys.stderr)
            continue
        out[key] = obj
    return out


def fmt_key(key) -> str:
    return ",".join(f"{k}={v}" for k, v in key) or "<unkeyed>"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--baseline", required=True, type=pathlib.Path,
                    help="directory of committed BENCH_*.json baselines")
    ap.add_argument("--current", required=True, type=pathlib.Path,
                    help="directory of freshly generated BENCH_*.json files")
    ap.add_argument("--threshold", type=float, default=0.10,
                    help="max allowed fractional throughput drop (default 0.10)")
    args = ap.parse_args()

    # Directory-level problems are configuration bugs, not trend data: name
    # the path and exit instead of limping on (or raising) further down.
    if not args.baseline.is_dir():
        print(f"error: baseline directory {args.baseline} does not exist",
              file=sys.stderr)
        return 2
    if not args.current.is_dir():
        print(f"error: current-run directory {args.current} does not exist "
              "(did every bench leg fail before writing artifacts?)",
              file=sys.stderr)
        return 2
    baseline_files = sorted(args.baseline.glob("BENCH_*.json"))
    if not baseline_files:
        print(f"error: no BENCH_*.json baselines under {args.baseline}; "
              "the committed baselines are missing from this checkout",
              file=sys.stderr)
        return 2

    # New legs may run before their baseline is cut — warn per leg so the
    # gap is visible in the log, but never fail for it.
    for cpath in sorted(args.current.glob("BENCH_*.json")):
        if not (args.baseline / cpath.name).exists():
            print(f"warning: {cpath.name}: no committed baseline under "
                  f"{args.baseline}; leg not trended", file=sys.stderr)

    missing = []
    regressions = []
    mismatches = []
    compared = 0
    exact_compared = 0
    for bpath in baseline_files:
        cpath = args.current / bpath.name
        if not cpath.exists():
            # The committed baseline promises this leg exists; a missing
            # artifact means the leg silently failed, was renamed, or its
            # output redirect broke. That must fail the build loudly.
            print(f"error: {bpath.name}: committed baseline has no "
                  f"current-run artifact under {args.current} — did the "
                  "bench leg fail or get renamed?", file=sys.stderr)
            missing.append(bpath.name)
            continue
        base = load_lines(bpath)
        cur = load_lines(cpath)
        for key, bline in base.items():
            cline = cur.get(key)
            if cline is None:
                print(f"warning: {bpath.name}: baseline line [{fmt_key(key)}] "
                      "missing from current run", file=sys.stderr)
                continue
            for metric in THROUGHPUT_KEYS:
                if metric not in bline or metric not in cline:
                    continue
                bval, cval = bline[metric], cline[metric]
                if not isinstance(bval, (int, float)) or bval <= 0:
                    continue
                compared += 1
                floor = bval * (1.0 - args.threshold)
                status = "REGRESSION" if cval < floor else "ok"
                print(f"{status:10s} {bpath.name} [{fmt_key(key)}] {metric}: "
                      f"baseline {bval:.4g} -> current {cval:.4g} "
                      f"({(cval / bval - 1.0) * 100.0:+.1f}%)")
                if cval < floor:
                    regressions.append((bpath.name, key, metric, bval, cval))
            for metric in EXACT_KEYS:
                if metric not in bline or metric not in cline:
                    continue
                bval, cval = bline[metric], cline[metric]
                exact_compared += 1
                status = "MISMATCH" if cval != bval else "ok"
                print(f"{status:10s} {bpath.name} [{fmt_key(key)}] {metric}: "
                      f"baseline {bval} -> current {cval} (exact)")
                if cval != bval:
                    mismatches.append((bpath.name, key, metric, bval, cval))

    print(f"\n{compared} metric(s) compared, {len(regressions)} regression(s) "
          f"beyond {args.threshold * 100.0:.0f}%; {exact_compared} exact "
          f"counter(s) compared, {len(mismatches)} mismatch(es); "
          f"{len(missing)} missing artifact(s)")
    for fname, key, metric, bval, cval in regressions:
        print(f"FAIL: {fname} [{fmt_key(key)}] {metric} fell "
              f"{(1.0 - cval / bval) * 100.0:.1f}% "
              f"({bval:.4g} -> {cval:.4g})", file=sys.stderr)
    for fname, key, metric, bval, cval in mismatches:
        print(f"FAIL: {fname} [{fmt_key(key)}] {metric} changed "
              f"({bval} -> {cval}); exact counters must match the baseline",
              file=sys.stderr)
    for fname in missing:
        print(f"FAIL: {fname}: baseline exists but the run produced no "
              "artifact", file=sys.stderr)
    return 1 if regressions or mismatches or missing else 0


if __name__ == "__main__":
    sys.exit(main())
