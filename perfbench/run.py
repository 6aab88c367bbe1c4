#!/usr/bin/env python3
"""Builds and runs the MiniHive repository benchmark.

    python3 perfbench/run.py --workload <tpch_scan|tpcds_join|ingest_serve>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Every run configures perfbench/ (and with it
the library in src/) into .bench_build/perfbench, so new or deleted source
files are picked up, then builds what changed. Build output goes to stderr.
The benchmark's stdout is passed through; its last line, the JSON result,
is checked against BENCHMARK.json first: the metric names must be the ones
it declares for this mode, and per-layer metrics a workload leaves idle are
added as 0 with their declared unit.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = os.path.join(ROOT, "BENCHMARK.json")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("tpch_scan", "tpcds_join", "ingest_serve")
RUN_TIMEOUT_S = 170


def build():
    """Configures and builds the benchmark; False on failure."""
    configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=Release"]
    # The generator can only be chosen when the build directory is new.
    if (not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt"))
            and shutil.which("ninja")):
        configure += ["-G", "Ninja"]
    if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    step = ["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs]
    return subprocess.run(step, stdout=sys.stderr).returncode == 0


def checked_result(line, trace):
    """The result line with its metrics checked against BENCHMARK.json."""
    with open(SPEC) as f:
        spec = json.load(f)
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    result = json.loads(line)
    metrics = result["metrics"]
    undeclared = sorted(set(metrics) - set(declared))
    if undeclared:
        raise ValueError("undeclared metrics: " + ", ".join(undeclared))
    for name, unit in declared.items():
        if name in metrics:
            if metrics[name]["unit"] != unit:
                raise ValueError("%s: unit %s, declared %s"
                                 % (name, metrics[name]["unit"], unit))
        elif trace:
            metrics[name] = {"value": 0, "unit": unit}
        else:
            raise ValueError("missing end-to-end metric " + name)
    result["metrics"] = {name: metrics[name] for name in declared}
    return json.dumps(result)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace]
    try:
        run = subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                             stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        sys.stdout.write(run.stdout)
        print("perfbench: exited with %d" % run.returncode, file=sys.stderr)
        return run.returncode or 1
    try:
        result = checked_result(lines[-1], args.trace == "1")
    except (ValueError, KeyError) as error:
        print("perfbench: bad result: %s" % error, file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    print(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
