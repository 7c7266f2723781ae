#!/usr/bin/env python3
"""perfbench: one workload of the tcpz benchmark, end to end.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds the tcpz library from the
checkout's src/ together with the benchmark (CMake, Release) under
.bench_build/perfbench, runs the workload, validates its result line
against BENCHMARK.json and prints it as the last line of standard output.
Exits non-zero, printing no result, when the build, the run or the
validation fails.
"""
import argparse
import json
import os
import subprocess
import sys

import benchlib

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures once, then builds incrementally; output goes to stderr."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", "4"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              check=False)
        if done.returncode != 0:
            fail("build failed: " + " ".join(cmd))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    bench_file = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(bench_file) as f:
            benchmark = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (bench_file, e))
    if args.workload not in {w["name"] for w in benchmark["workloads"]}:
        fail("unknown workload %r" % args.workload)

    build()
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail("%s did not finish in %d s" % (args.workload, RUN_TIMEOUT_S))
    if done.returncode != 0:
        fail("%s exited with %d" % (args.workload, done.returncode))
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail("%s printed no result" % args.workload)
    try:
        result = benchlib.parse_result_line(
            lines[-1], benchlib.expected_metrics(benchmark, args.trace))
    except ValueError as e:
        fail("bad result line: %s" % e)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
