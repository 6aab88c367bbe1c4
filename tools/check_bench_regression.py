#!/usr/bin/env python3
"""Compare BENCH_<name>.json files against committed baselines.

Usage:
    tools/check_bench_regression.py --current <dir> [--baseline bench/baseline]
                                    [--threshold 2.0]

Every BENCH_*.json in the baseline directory must have a counterpart in the
current directory (extra current files are reported but not fatal — a new
bench has no baseline yet). Only *machine-independent* metrics are compared:
those whose unit is one of BYTES / ROWS / COUNT / BATCHES / GROUPS. Timing
("ms", "ns") and throughput ("rate") metrics vary with the host and are
skipped — they are still recorded in the JSON for humans and for trend
dashboards, just not gated.

A metric fails when current/baseline falls outside [1/threshold, threshold]
(default threshold 2.0). Zero baselines compare exactly: 0 -> 0 passes,
0 -> nonzero fails (something that used to be fully skipped or empty now
isn't — worth a human look). An invariant metric present in the current run
but absent from its baseline also fails (the bench emits a counter the
baseline predates — refresh the baseline so the new counter is gated too).

Refreshing baselines after an intentional behavior change (reruns every
bench that has a baseline, so none is left stale):

    cmake --build build -j
    for f in bench/baseline/BENCH_*.json; do
      name=$(basename "$f" .json)
      MINIHIVE_BENCH_SMOKE=1 MINIHIVE_BENCH_OUT_DIR=bench/baseline \
          "./build/bench/bench_${name#BENCH_}"
    done
    git add bench/baseline  # and explain the shift in the commit message

Exit status: 0 when all compared metrics pass, 1 on any failure or on a
missing/corrupt file.
"""

import argparse
import glob
import json
import os
import sys

# Units that do not depend on the machine the bench ran on.
INVARIANT_UNITS = {"bytes", "rows", "count", "batches", "groups"}


def load(path):
    with open(path, "r", encoding="utf-8") as f:
        data = json.load(f)
    if data.get("schema_version") != 1:
        raise ValueError(f"{path}: unsupported schema_version "
                         f"{data.get('schema_version')!r}")
    return data


def compare(name, baseline, current, threshold):
    """Returns a list of failure strings for one bench."""
    failures = []
    base_metrics = baseline.get("metrics", {})
    cur_metrics = current.get("metrics", {})
    if baseline.get("smoke") != current.get("smoke"):
        failures.append(
            f"{name}: smoke flag differs (baseline={baseline.get('smoke')}, "
            f"current={current.get('smoke')}) — comparing different shapes")
        return failures
    for metric, base in sorted(base_metrics.items()):
        unit = base.get("unit", "")
        if unit not in INVARIANT_UNITS:
            continue
        cur = cur_metrics.get(metric)
        if cur is None:
            failures.append(f"{name}: metric '{metric}' missing from current run")
            continue
        if "value" not in base or "value" not in cur:
            which = "baseline" if "value" not in base else "current"
            failures.append(
                f"{name}: metric '{metric}' has no value in the {which} file "
                f"— corrupt or hand-edited JSON")
            continue
        base_value = float(base["value"])
        cur_value = float(cur["value"])
        if base_value == 0.0:
            if cur_value != 0.0:
                failures.append(
                    f"{name}: '{metric}' was 0 in baseline, now {cur_value:g}")
            continue
        ratio = cur_value / base_value
        if ratio < 1.0 / threshold or ratio > threshold:
            failures.append(
                f"{name}: '{metric}' {base_value:g} -> {cur_value:g} "
                f"({ratio:.2f}x, allowed [{1.0 / threshold:.2f}, "
                f"{threshold:.2f}])")
    # The reverse direction: the bench now emits an invariant counter the
    # committed baseline has no entry for (typically a new JobCounters
    # field). Fail with a clear pointer instead of silently skipping it —
    # an ungated counter is a regression gate with a hole in it.
    for metric, cur in sorted(cur_metrics.items()):
        unit = cur.get("unit", "") if isinstance(cur, dict) else ""
        if unit not in INVARIANT_UNITS or metric in base_metrics:
            continue
        failures.append(
            f"{name}: metric '{metric}' ({unit}) has no baseline entry — the "
            f"bench emits a counter its baseline predates; refresh "
            f"bench/baseline/ (see the docstring of this script)")
    return failures


def main():
    parser = argparse.ArgumentParser(
        description="Gate machine-independent bench metrics vs baselines.")
    parser.add_argument("--current", required=True,
                        help="directory holding freshly produced BENCH_*.json")
    parser.add_argument("--baseline", default="bench/baseline",
                        help="directory holding committed baseline JSON")
    parser.add_argument("--threshold", type=float, default=2.0,
                        help="max allowed current/baseline ratio (default 2.0)")
    args = parser.parse_args()

    baseline_files = sorted(glob.glob(os.path.join(args.baseline,
                                                   "BENCH_*.json")))
    if not baseline_files:
        print(f"error: no BENCH_*.json under {args.baseline}", file=sys.stderr)
        return 1

    failures = []
    compared = 0
    for base_path in baseline_files:
        fname = os.path.basename(base_path)
        cur_path = os.path.join(args.current, fname)
        if not os.path.exists(cur_path):
            failures.append(f"{fname}: no current result in {args.current}")
            continue
        try:
            baseline = load(base_path)
            current = load(cur_path)
        except (ValueError, json.JSONDecodeError) as err:
            failures.append(f"{fname}: {err}")
            continue
        bench_failures = compare(fname, baseline, current, args.threshold)
        failures.extend(bench_failures)
        n = sum(1 for m in baseline.get("metrics", {}).values()
                if m.get("unit") in INVARIANT_UNITS)
        compared += n
        status = "FAIL" if bench_failures else "ok"
        print(f"  {fname}: {n} invariant metrics compared ... {status}")

    extra = sorted(set(os.path.basename(p) for p in
                       glob.glob(os.path.join(args.current, "BENCH_*.json"))) -
                   set(os.path.basename(p) for p in baseline_files))
    for fname in extra:
        print(f"  {fname}: no baseline (new bench?) — skipped")

    if failures:
        print(f"\n{len(failures)} regression(s) across {compared} compared "
              "metrics:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        print("\nIf the change is intentional, refresh bench/baseline/ — see "
              "the docstring of this script.", file=sys.stderr)
        return 1
    print(f"\nall {compared} invariant metrics within "
          f"[{1.0 / args.threshold:.2f}, {args.threshold:.2f}]x of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
