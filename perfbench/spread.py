#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py [--workloads startup,rma_churn]
        [--seeds 10] [--first-seed 1] [--seconds S]

Runs perfbench/run.py once per (workload, seed), then prints for every
end-to-end metric of BENCHMARK.json its median and its spread: the distance
between the first and third quartile (statistics.quantiles, n=4) as a share
of the median. A spread should stay below a third of the metric's bound.
Raw results go to .bench_out/spread.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: incorrect result")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args()

    raw = {}
    worst = 0.0
    for workload in args.workloads.split(","):
        runs = [run_once(workload, seed, args.seconds)
                for seed in range(args.first_seed,
                                  args.first_seed + args.seeds)]
        raw[workload] = runs
        print(f"{workload}: {len(runs)} seeds")
        for metric in bench["end_to_end"]:
            name = metric["name"]
            values = [r[name] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            share = spread / metric["bound"]
            worst = max(worst, share)
            print(f"  {name:20s} median {med:14.4f}  spread {spread:7.4f}"
                  f"  bound {metric['bound']:.2f}  ({share:.2f} of bound)")
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    with open(os.path.join(ROOT, ".bench_out", "spread.json"), "w") as f:
        json.dump(raw, f, indent=1)
    print(f"largest spread: {worst:.2f} of its bound")


if __name__ == "__main__":
    main()
