#!/usr/bin/env python3
"""Measures the run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/steadiness.py --workload cold_reads --seeds 1-10
    python3 perfbench/steadiness.py --seeds 1-10 --sets 2 --out spread.json

Runs perfbench/run.py once per seed (trace off, BENCHMARK.json's
run_seconds) for each workload and prints, per metric, the median and the
spread: the distance between the first and third quartile of the values
(statistics.quantiles(values, n=4)) as a share of the median, next to the
metric's bound. With --sets 2 the seed list is run twice and the second
median's change against the first is printed as well.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: incorrect: {lines[-1]}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median if median else float("inf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--out")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    seeds = parse_seeds(args.seeds)
    report = {}
    for workload in workloads:
        sets = []
        for s in range(args.sets):
            runs = [run_once(workload, seed, bench["run_seconds"])
                    for seed in seeds]
            sets.append({m: [r[m] for r in runs] for m in bounds})
        report[workload] = sets
        print(f"\n{workload} ({len(seeds)} seeds x {args.sets} sets)")
        print(f"  {'metric':16} {'bound':>6} " +
              " ".join(f"{'median':>12} {'spread':>7}"
                       for _ in range(args.sets)) +
              ("  change" if args.sets > 1 else ""))
        for metric, bound in bounds.items():
            cols = [spread(s[metric]) for s in sets]
            text = " ".join(f"{m:12.5g} {sp:7.3f}" for m, sp in cols)
            flag = ""
            if metric != "setup_s" and any(sp > bound for _, sp in cols):
                flag = "  SPREAD>BOUND"
            elif metric != "setup_s" and any(sp > bound / 3 for _, sp in cols):
                flag = "  spread>bound/3"
            change = ""
            if args.sets > 1:
                change = f"  {cols[1][0] / cols[0][0] - 1:+.3f}"
            print(f"  {metric:16} {bound:6.2f} {text}{change}{flag}")
        sys.stdout.flush()
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
