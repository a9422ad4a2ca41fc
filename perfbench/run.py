#!/usr/bin/env python3
"""Builds the simulator benchmark from source and runs one workload.

    python3 perfbench/run.py --workload bulk_write --seed 42 --seconds 40 --trace 0

Run it from the repository root. The first run configures and compiles
perfbench/ (and the simulator sources under src/) into .bench_build/; later
runs rebuild only what changed. The benchmark's own outputs (host span dumps
of --trace 1 runs) go to .bench_out/.

Workloads: bulk_write, tenants_knee, wide_mixed (see perfbench/README.md).
Default workload seed 42; seed 20261 is held out for confirming later
performance claims on inputs the change was not tuned on.

The last line of standard output is the JSON result. The exit code is 0 only
when the build succeeded, every correctness check passed and the result line
is well formed.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("bulk_write", "tenants_knee", "wide_mixed")
# A run must end well inside the 180 s limit even on a slow machine.
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the perfbench binary; returns its path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout is reserved for the result.
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            raise RuntimeError("build step failed: " + " ".join(cmd))
    return os.path.join(BUILD_DIR, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be a whole number")

    try:
        binary = build()
    except (OSError, RuntimeError) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace == 1:
        os.makedirs(OUT_DIR, exist_ok=True)
        cmd += ["--spans-out", os.path.join(
            OUT_DIR, f"spans-{args.workload}-{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        ok = (set(result) == {"correct", "attempted", "failed", "metrics"}
              and result["attempted"] >= 1)
    except (ValueError, TypeError, IndexError):
        ok = False
    if not ok:
        sys.stderr.write(proc.stdout)
        print("perfbench: the run printed no well-formed result",
              file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
