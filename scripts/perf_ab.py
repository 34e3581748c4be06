#!/usr/bin/env python3
"""Alternated A/B runs of the repository benchmark.

    python3 scripts/perf_ab.py BASE CHANGE --workload collectives \
        --seeds 1 --pairs 10 --seconds 25 [--claim ops_per_s]

BASE and CHANGE are each a perfbench binary or a checkout of this
repository. A checkout's perfbench is built (into its `.bench_build/`, as
`perfbench/run.py` does) before the first pair. Every pair runs both sides
once with the same workload, seed and run length; the side that goes first
alternates from pair to pair. For each end-to-end metric the script prints
each side's median and quartiles and the number of pairs the change won
(ties count for neither side).

With `--claim METRIC` it also prints whether the change clears the gain rule:
it wins at least nine tenths of the pairs, and the medians differ by more
than the distance between the quartiles of the base's own runs.

Exits 1 if a run fails or reports `correct: false`, or if any virtual
metric differs between any two runs of one seed: the simulated result must
not depend on which side produced it.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

# Host-clock metrics vary from run to run; every other metric is virtual
# time or a count and must repeat exactly.
HOST_METRICS = {"ops_per_s", "setup_s", "peak_rss_mb"}
HIGHER_IS_BETTER = {"ops_per_s"}


def perfbench_binary(path):
    """The perfbench binary for a binary path or a checkout (built here)."""
    if os.path.isfile(path):
        return os.path.abspath(path)
    root = os.path.abspath(path)
    run_py = os.path.join(root, "perfbench", "run.py")
    if not os.path.isfile(run_py):
        sys.exit(f"perf_ab: {path} is neither a binary nor a checkout")
    build = os.path.join(root, ".bench_build")
    if not os.path.exists(os.path.join(build, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", os.path.join(root, "perfbench"), "-B",
                        build, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build, "--target", "perfbench", "-j",
                    str(min(4, os.cpu_count() or 1))],
                   check=True, stdout=sys.stderr)
    return os.path.join(build, "perfbench")


def run_once(binary, workload, seed, seconds, out_dir):
    proc = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed), "--seconds",
         str(seconds), "--trace", "0", "--out", out_dir],
        stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"perf_ab: {binary} exited {proc.returncode}")
    result = json.loads(lines[-1])
    if not result.get("correct"):
        sys.exit(f"perf_ab: {binary} reported an incorrect run")
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument("--pairs", type=int, default=10,
                        help="pairs per seed")
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--claim", help="end-to-end metric claimed to gain")
    args = parser.parse_args()

    sides = {"base": perfbench_binary(args.base),
             "change": perfbench_binary(args.change)}
    runs = {"base": [], "change": []}
    virtual_mismatch = False
    with tempfile.TemporaryDirectory(prefix="perf_ab_") as out_dir:
        index = 0
        for seed in args.seeds:
            reference = None
            for _ in range(args.pairs):
                order = ["base", "change"] if index % 2 == 0 else \
                    ["change", "base"]
                pair = {}
                for side in order:
                    pair[side] = run_once(sides[side], args.workload, seed,
                                          args.seconds, out_dir)
                    runs[side].append(pair[side])
                    virtual = {k: v for k, v in pair[side].items()
                               if k not in HOST_METRICS}
                    if reference is None:
                        reference = virtual
                    elif virtual != reference:
                        virtual_mismatch = True
                        print(f"seed {seed}: {side} virtual metrics differ: "
                              f"{virtual} != {reference}", file=sys.stderr)
                index += 1
                cells = "  ".join(
                    f"{side}={pair[side].get(args.claim or 'ops_per_s'):.6g}"
                    for side in ("base", "change"))
                print(f"pair {index} seed {seed} first={order[0]}  {cells}",
                      flush=True)

    pairs = len(runs["base"])
    print(f"\n{args.workload}: {pairs} pairs, seeds {args.seeds}, "
          f"{args.seconds:g} s runs")
    print(f"{'metric':<20} {'base median [q1, q3]':<36} "
          f"{'change median [q1, q3]':<36} change wins")
    verdict = None
    for name in runs["base"][0]:
        base = [r[name] for r in runs["base"]]
        change = [r[name] for r in runs["change"]]
        higher = name in HIGHER_IS_BETTER
        wins = sum(1 for b, c in zip(base, change)
                   if (c > b if higher else c < b))
        bq, cq = quartiles(base), quartiles(change)
        print(f"{name:<20} {bq[1]:<12.6g} [{bq[0]:.6g}, {bq[2]:.6g}]"
              f"{'':<4} {cq[1]:<12.6g} [{cq[0]:.6g}, {cq[2]:.6g}]"
              f"{'':<4} {wins}/{pairs}")
        if name == args.claim:
            gain = cq[1] - bq[1] if higher else bq[1] - cq[1]
            spread = bq[2] - bq[0]
            verdict = wins * 10 >= pairs * 9 and gain > spread
            print(f"  claim {name}: wins {wins}/{pairs}, median gain "
                  f"{gain:.6g} vs base IQR {spread:.6g} -> "
                  f"{'met' if verdict else 'not met'}")
    if virtual_mismatch:
        print("perf_ab: virtual metrics differ between runs", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
