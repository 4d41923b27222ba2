#!/usr/bin/env python3
"""Runs one workload with several seeds and prints each metric's spread.

    python3 perfbench/repeat.py --workload sim_browse --runs 10 [--seconds 10]
        [--trace 0] [--first-seed 1]

For every metric it prints the median, the first and third quartiles (as
statistics.quantiles(values, n=4) gives them) and the spread, the distance
between the quartiles as a share of the median. The bounds in BENCHMARK.json
are set from this output. It also prints the share of failed operations and
fails if any run failed its correctness checks.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    seconds = args.seconds
    if seconds is None:
        with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
            seconds = json.load(f)["run_seconds"]

    values, units = {}, {}
    attempted = failed = 0
    all_correct = True
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", args.trace]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}, no result", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        all_correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", file=sys.stderr)

    print(f"{args.workload}: {args.runs} runs of {seconds} s, failed share "
          f"{failed}/{attempted}, all correct: {all_correct}")
    print(f"{'metric':34} {'unit':8} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name:34} {units[name]:8} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f}")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
