#!/usr/bin/env python3
"""Smoke test of the repo benchmark on a tiny trace.

    python3 perfbench/test_bench.py

Runs every workload through run.py --smoke, untraced and traced, and
checks the output contract against BENCHMARK.json: every named metric
is emitted exactly once, finite, with its declared unit. Also checks
that a missing trace file is counted as a failed op rather than a
crash, and that the benchmark refuses to run without the library
sources. The first run builds the driver.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["open", "explore"]


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def no_duplicates(pairs):
    keys = [k for k, _ in pairs]
    dupes = {k for k in keys if keys.count(k) > 1}
    if dupes:
        raise ValueError("duplicate keys: %s" % sorted(dupes))
    return dict(pairs)


def run_bench(workload, trace, *extra, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", "3", "--seconds", "0.3",
           "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd + list(extra), cwd=cwd, capture_output=True,
                          text=True, timeout=900)


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise AssertionError("run failed (%d): %s" %
                             (proc.returncode, proc.stderr[-2000:]))
    return json.loads(lines[-1], object_pairs_hook=no_duplicates)


class SmokeTest(unittest.TestCase):
    spec = load_spec()

    def check_metrics(self, result, expected):
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        metrics = result["metrics"]
        self.assertEqual(sorted(metrics), sorted(m["name"] for m in expected))
        for m in expected:
            got = metrics[m["name"]]
            self.assertEqual(set(got), {"value", "unit"}, m["name"])
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])

    def test_untraced_runs_emit_every_end_to_end_metric(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result = result_of(run_bench(workload, 0))
                self.check_metrics(result, self.spec["end_to_end"])
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                for m in self.spec["end_to_end"]:
                    self.assertGreater(result["metrics"][m["name"]]["value"],
                                       0, m["name"])

    def test_traced_runs_emit_every_per_layer_metric(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result = result_of(run_bench(workload, 1))
                self.check_metrics(result, self.spec["per_layer"])
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)

    def test_bad_trace_path_is_a_failed_op(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result = result_of(run_bench(workload, 0, "--bad-path-op"))
                self.assertFalse(result["correct"])
                self.assertEqual(result["failed"], 1)
                self.assertGreaterEqual(result["attempted"], 2)

    def test_refuses_without_library_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run_bench("open", 0, cwd=tmp)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
