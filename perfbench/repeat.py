#!/usr/bin/env python3
"""Runs benchmark workloads repeatedly and prints median and quartiles.

    python3 perfbench/repeat.py [--runs 10] [--trace 0] [workload ...]

Run i uses seed i (1..runs) and measures for run_seconds of BENCHMARK.json.
For every metric it prints the median, the first and third quartiles
(statistics.quantiles, n=4) and the spread, the distance between the
quartiles as a share of the median; then the failed share of operations,
which must be the same in every run.
"""

import argparse
import fractions
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper-oracle", "wide-sim", "paxos-chaos")


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    if done.returncode != 0:
        sys.exit("run failed: " + " ".join(cmd))
    return json.loads(done.stdout.strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("workloads", nargs="*", default=list(WORKLOADS))
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        seconds = json.load(f)["run_seconds"]

    for workload in args.workloads:
        results = [run_once(workload, seed, seconds, args.trace)
                   for seed in range(1, args.runs + 1)]
        shares = sorted({str(fractions.Fraction(r["failed"], r["attempted"]))
                         for r in results})
        correct = all(r["correct"] for r in results)
        print("%s: %d runs, correct=%s, failed/attempted: %s" %
              (workload, len(results), correct, ", ".join(shares)))
        print("  %-28s %14s %14s %14s %8s  unit" % ("metric", "median", "q1", "q3", "spread"))
        for name, first in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
            spread = (q3 - q1) / median if median else 0.0
            print("  %-28s %14.6g %14.6g %14.6g %7.1f%%  %s" %
                  (name, median, q1, q3, 100 * spread, first["unit"]))


if __name__ == "__main__":
    main()
