#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the simulated TreadMarks cluster.

    python3 perfbench/run.py --workload jacobi|sor|tsp|fft --seed N \
        --seconds S --trace 0|1

Run from the repository root. Builds tmkgm_perfbench (perfbench/perfbench.cpp
plus the simulator libraries from src/, Release) into .bench_build/perfbench,
runs it, checks the shape of its result and prints that result as the last
line of standard output:

    {"correct": true, "attempted": 12, "failed": 0, "metrics": {...}}

Build output goes to standard error. Exits non-zero without printing a
result when the build or the run fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("jacobi", "sor", "tsp", "fft")
# One benchmark run must finish well inside the 180 s a run is allowed.
RUN_TIMEOUT_S = 170


def build(root):
    build_dir = os.path.join(root, ".bench_build", "perfbench")
    cmd = ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
           "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        cmd += ["-G", "Ninja"]
    subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target",
                    "tmkgm_perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "tmkgm_perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    try:
        binary = build(root)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"build failed: {e}", file=sys.stderr)
        return 1

    proc = subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"tmkgm_perfbench exited with {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    if (set(result) != {"correct", "attempted", "failed", "metrics"}
            or result["attempted"] < 1 or not result["metrics"]):
        print(f"malformed result: {lines[-1]}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
