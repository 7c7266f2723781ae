#!/usr/bin/env python3
"""Repeats perfbench runs over seeds and reports each end-to-end metric's
median, quartiles and spread against the bound BENCHMARK.json fixes.

    python3 perfbench/spread.py --runs 10 [--workloads a,b] [--first-seed 1]
                                [--trace] [--out perfbench/out/set1.json]

Run from the root of a checkout. One run per seed, one seed per run, as the
benchmark's acceptance rule asks; exits non-zero if a run fails, reports
correct=false, or a spread (setup_s excepted) exceeds its bound.
"""
import argparse
import json
import os
import subprocess
import sys

import benchlib

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, check=False)
    if done.returncode != 0:
        raise RuntimeError("%s seed %d exited with %d" %
                           (workload, seed, done.returncode))
    return json.loads(done.stdout.strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", default="")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        benchmark = json.load(f)
    names = [w["name"] for w in benchmark["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    metrics = benchmark["per_layer" if args.trace else "end_to_end"]

    raw = {}
    ok = True
    for workload in names:
        runs = []
        for i in range(args.runs):
            r = run_once(workload, args.first_seed + i,
                         benchmark["run_seconds"], args.trace)
            if not r["correct"]:
                ok = False
                print("%s seed %d: correct=false" %
                      (workload, args.first_seed + i))
            runs.append(r)
        raw[workload] = runs
        shares = {r["failed"] / r["attempted"] for r in runs}
        print("%s: failed share %s over %d runs" %
              (workload, sorted(shares), len(runs)))
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            med = benchlib.median(values)
            if med == 0 or len(values) < 2:
                print("  %-34s median %-12.6g" % (m["name"], med))
                continue
            q1, q3 = benchlib.quartiles(values)
            s = benchlib.spread(values)
            bound = m.get("bound")
            verdict = ""
            if bound is not None:
                verdict = "ok" if s <= bound / 3 else (
                    "within bound" if s <= bound else "TOO WIDE")
                if s > bound and m["name"] != "setup_s":
                    ok = False
            print("  %-34s median %-12.6g q1 %-12.6g q3 %-12.6g spread %.4f %s"
                  % (m["name"], med, q1, q3, s, verdict))
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w") as f:
            json.dump(raw, f, indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
