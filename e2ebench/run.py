#!/usr/bin/env python3
"""Builds the end-to-end benchmark from this source tree and runs one workload.

    python3 e2ebench/run.py --workload learn_narrow --seed 1 --seconds 20 --trace 0

Run it from the repository root. The first call configures and compiles
the library and the benchmark (Release) under .bench_build/e2ebench; later
calls only rebuild what changed. Build output goes to standard error, so
the last line of standard output is the benchmark's JSON result. Traces,
the packed store and other run files go to .bench_out/. Exits non-zero,
without a result, when the build or the run fails.
"""

import argparse
import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
OUT = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD, "e2e_bench")
RUN_TIMEOUT_S = 170


def build():
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time per tree
        steps = []
        if not os.path.exists(os.path.join(BUILD, "Makefile")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1)])
        for step in steps:
            if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
                sys.exit("run.py: build step failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    build()
    os.makedirs(OUT, exist_ok=True)
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--out-dir", OUT]
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("run.py: the benchmark did not finish within %d s" % RUN_TIMEOUT_S)
    lines = result.stdout.rstrip("\n").splitlines()
    if result.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(result.stdout if result.returncode == 0 else "")
        sys.exit("run.py: the benchmark failed (exit code %d)" % result.returncode)
    sys.stdout.write(result.stdout)


if __name__ == "__main__":
    main()
