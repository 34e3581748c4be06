#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/test_perfbench.py        (about two minutes)

- one seed gives identical virtual metrics and sim.events, run after run;
- another seed changes the op stream and still fails nothing;
- the per-layer predictions of README.md hold: registration, tier and
  eviction counters are zero where the workload bypasses them, and PMI
  does no work once a PE's first workload call has returned;
- BENCHMARK.json names exactly the metrics the benchmark prints;
- without the simulator sources the benchmark fails without a result.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("startup", "collectives", "rma_churn")


def run(workload, seed, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace)],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    return proc


class Result:
    """One run: its final JSON line and its detail file."""

    def __init__(self, workload, seed, trace):
        proc = run(workload, seed, trace)
        if proc.returncode != 0:
            raise AssertionError(f"{workload} seed {seed}: {proc.stderr}")
        self.line = json.loads(proc.stdout.strip().splitlines()[-1])
        path = os.path.join(OUT, f"{workload}_seed{seed}_trace{trace}.json")
        with open(path) as f:
            self.detail = json.load(f)
        self.metrics = {k: v["value"] for k, v in self.line["metrics"].items()}


class BenchmarkTest(unittest.TestCase):
    traced = {}

    @classmethod
    def setUpClass(cls):
        for workload in WORKLOADS:
            for key in ((3, "a"), (3, "b"), (4, "a")):
                cls.traced[(workload,) + key] = Result(workload, key[0], 1)

    def test_same_seed_gives_identical_virtual_results(self):
        for workload in WORKLOADS:
            a = self.traced[(workload, 3, "a")]
            b = self.traced[(workload, 3, "b")]
            self.assertEqual(a.detail["virtual"], b.detail["virtual"], workload)
            self.assertEqual(a.metrics["sim.events"], b.metrics["sim.events"])

    def test_other_seed_changes_op_stream_without_failures(self):
        for workload in WORKLOADS:
            a = self.traced[(workload, 3, "a")]
            c = self.traced[(workload, 4, "a")]
            self.assertNotEqual(a.detail["virtual"], c.detail["virtual"],
                                workload)
            for r in (a, c):
                self.assertTrue(r.line["correct"], workload)
                self.assertEqual(r.line["failed"], 0, workload)
                self.assertEqual(r.detail["fail_frac"], 0, workload)

    def test_layer_predictions_hold(self):
        bypassed = ("fabric.reg.misses", "fabric.reg.evictions",
                    "fabric.reg.pinned_hw_frac", "core.tier_eager",
                    "core.tier_pipelined", "core.tier_rendezvous",
                    "core.evictions", "core.credit_stalls")
        for workload in ("startup", "collectives"):
            m = self.traced[(workload, 3, "a")].metrics
            for name in bypassed:
                self.assertEqual(m[name], 0, f"{workload} {name}")
        churn = self.traced[("rma_churn", 3, "a")].metrics
        for name in bypassed[:2] + bypassed[3:7]:
            self.assertGreater(churn[name], 0, f"rma_churn {name}")
        for workload in WORKLOADS:
            r = self.traced[(workload, 3, "a")]
            self.assertGreater(r.metrics["pmi.exchange_ms"], 0, workload)
            self.assertEqual(r.detail["layers"]["pmi.after_first_call_ms"], 0,
                             workload)
        self.assertIn("mpi.allreduce_p50_us",
                      self.traced[("rma_churn", 3, "a")].detail[
                          "not_applicable"])
        self.assertGreater(
            self.traced[("collectives", 3, "a")].metrics[
                "mpi.allreduce_p50_us"], 0)

    def test_benchmark_json_names_every_printed_metric(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
        per_layer = [m["name"] for m in bench["per_layer"]]
        for workload in WORKLOADS:
            r = self.traced[(workload, 3, "a")]
            self.assertEqual(list(r.metrics), per_layer, workload)
        plain = Result("rma_churn", 3, 0)
        self.assertTrue(plain.line["correct"])
        self.assertEqual(list(plain.metrics),
                         [m["name"] for m in bench["end_to_end"]])
        for m in bench["end_to_end"]:
            self.assertGreater(plain.metrics[m["name"]], 0, m["name"])
            self.assertEqual(plain.line["metrics"][m["name"]]["unit"],
                             m["unit"])

    def test_fails_without_simulator_sources(self):
        bare = os.path.join(OUT, "bare_checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run("startup", 1, 0, cwd=bare)
        shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
