#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 cyclebench/test_cyclebench.py

1. Builds the benchmark (via run.py) and runs cyclebench_selftest: the
   percentile/tail helper, the /metrics delta arithmetic, the closure
   arithmetic, the server span self-time fold and the tree comparison.
2. Smoke-runs every workload (those of BENCHMARK.json and multi_user) on a
   tiny input, untraced and traced, and checks that the run is correct and
   prints exactly the metrics BENCHMARK.json names, with their units
   (multi_user also prints its /status probe time).
3. Checks that the correctness check runs: with a deliberately perturbed
   reference tree the run must fail.
4. Checks that the per-cycle engine counters repeat exactly for one seed.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SMOKE = ["--scale", "0.05"]
# Printed only by the workload with a GET /status probe; not in BENCHMARK.json.
PROBE_METRIC = {"name": "client.status_probe_s", "unit": "s"}


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, trace, seed=3, extra=()):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)] + SMOKE + list(extra)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          cwd=ROOT, timeout=300)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc, result


class CycleBenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.bench = load_benchmark()
        # multi_user is run by hand, not by BENCHMARK.json (see README.md).
        cls.workloads = [w["name"] for w in cls.bench["workloads"]] + ["multi_user"]

    def test_selftest(self):
        run(self.workloads[0], 0)  # makes sure the build exists
        binary = os.path.join(ROOT, ".bench_build", "cyclebench", "cyclebench_selftest")
        proc = subprocess.run([binary], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=60)
        self.assertEqual(proc.returncode, 0, proc.stderr)

    def check_metrics(self, result, declared):
        self.assertIsNotNone(result)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreater(result["attempted"], 0)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(sorted(result["metrics"]), sorted(m["name"] for m in declared))
        for m in declared:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"], m["name"])

    def test_every_workload_prints_every_metric(self):
        for workload in self.workloads:
            with self.subTest(workload=workload, trace=0):
                proc, result = run(workload, 0)
                self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                self.check_metrics(result, self.bench["end_to_end"])
                for name, metric in result["metrics"].items():
                    self.assertGreater(metric["value"], 0, name)
            with self.subTest(workload=workload, trace=1):
                proc, result = run(workload, 1)
                self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                declared = self.bench["per_layer"]
                if workload == "multi_user":
                    declared = declared + [PROBE_METRIC]
                self.check_metrics(result, declared)
                self.assertIn("closure:", proc.stderr)
                self.assertIn("tracing overhead:", proc.stderr)
                self.assertGreaterEqual(result["metrics"]["closure.coverage"]["value"], 0.9)

    def test_correctness_check_fires(self):
        proc, result = run(self.workloads[0], 0, extra=["--break-reference", "1"])
        self.assertNotEqual(proc.returncode, 0)
        self.assertIn("merged tree != reference", proc.stderr)
        self.assertTrue(result is None or not result["correct"])

    def test_engine_counts_repeat_for_one_seed(self):
        counts = []
        for _ in range(2):
            proc, result = run("plugin_cycle", 1, seed=11)
            self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
            counts.append({k: result["metrics"][k]["value"]
                           for k in ("engine.records", "engine.batches", "engine.snapshots")})
        self.assertEqual(counts[0], counts[1])


if __name__ == "__main__":
    unittest.main(verbosity=2)
