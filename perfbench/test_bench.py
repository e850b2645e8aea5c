#!/usr/bin/env python3
"""Smoke tests for the cachelab benchmark itself.

    python3 perfbench/test_bench.py

Run from the repository root.  Every workload runs at a tiny size
(--tiny --seconds 1): it must print every metric BENCHMARK.json names,
with its unit, and fail no operation.  A corrupted reference must be
counted as a failed operation, not crash the run.  The work counters
must repeat exactly under one seed and change under another.  Without
the library sources the benchmark must fail without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join("perfbench", "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, seed=1, trace=0, extra=(), cwd=ROOT):
    """Run one tiny benchmark; @return (exit code, stdout lines)."""
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--tiny", *extra]
    proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=600)
    return proc.returncode, proc.stdout.strip().splitlines()


def result(lines):
    return json.loads(lines[-1])


def counters(lines):
    """Counter and digest lines: the deterministic part of the output."""
    return [l for l in lines if l.startswith(("counter ", "digest "))]


class BenchmarkSmoke(unittest.TestCase):
    def check_metrics(self, res, expected):
        self.assertEqual(set(res), {"correct", "attempted", "failed",
                                    "metrics"})
        self.assertEqual(set(res["metrics"]), {m["name"] for m in expected})
        for m in expected:
            got = res["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])

    def test_end_to_end_metrics(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, lines = run(workload)
                self.assertEqual(code, 0)
                res = result(lines)
                self.check_metrics(res, SPEC["end_to_end"])
                self.assertTrue(res["correct"])
                self.assertGreaterEqual(res["attempted"], 100)
                self.assertEqual(res["failed"], 0)
                self.assertIn("error_rate 0 (0/%d)" % res["attempted"],
                              lines)
                for name, m in res["metrics"].items():
                    self.assertGreater(m["value"], 0, name)

    def test_per_layer_metrics(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, lines = run(workload, trace=1)
                self.assertEqual(code, 0)
                res = result(lines)
                self.check_metrics(res, SPEC["per_layer"])
                self.assertTrue(res["correct"])
                self.assertEqual(res["failed"], 0)

    def test_corrupted_reference_counts_as_failure(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, lines = run(workload, extra=["--corrupt-reference"])
                self.assertEqual(code, 0)
                res = result(lines)
                self.assertFalse(res["correct"])
                self.assertGreaterEqual(res["failed"], 1)
                self.assertLess(res["failed"], res["attempted"])

    def test_counters_repeat_and_follow_the_seed(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first = counters(run(workload, seed=1)[1])
                again = counters(run(workload, seed=1)[1])
                other = counters(run(workload, seed=2)[1])
                self.assertTrue(any(l.startswith("counter ") for l in first))
                self.assertEqual(first, again)
                self.assertNotEqual(first, other)

    def test_fails_without_the_library(self):
        lonely = os.path.join(ROOT, ".bench_build", "lonely")
        shutil.rmtree(lonely, ignore_errors=True)
        os.makedirs(lonely)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), lonely)
        for path in SPEC["paths"]:
            shutil.copytree(os.path.join(ROOT, path),
                            os.path.join(lonely, path))
        code, lines = run(WORKLOADS[0], cwd=lonely)
        shutil.rmtree(lonely)
        self.assertNotEqual(code, 0)
        self.assertFalse(lines and lines[-1].startswith("{"))


if __name__ == "__main__":
    unittest.main()
