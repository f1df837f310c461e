#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/test_perfbench.py

Every workload BENCHMARK.json lists must finish in smoke mode, with and
without tracing, and emit exactly the metrics BENCHMARK.json names, each
with its unit. metrics.json must map every per-layer metric on every
workload, and the benchmark must refuse to run (non-zero exit, no result
line) in a directory that holds only BENCHMARK.json and the benchmark's
own files.
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


def load(path):
    with open(path) as f:
        return json.load(f)


BENCH = load(os.path.join(ROOT, "BENCHMARK.json"))
METRIC_MAP = load(os.path.join(HERE, "metrics.json"))
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


class SmokeTest(unittest.TestCase):
    def check_line(self, done, expected):
        self.assertEqual(done.returncode, 0, done.stderr[-2000:])
        result = json.loads(done.stdout.strip().splitlines()[-1])
        self.assertEqual(list(result),
                         ["correct", "attempted", "failed", "metrics"])
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(sorted(result["metrics"]), sorted(expected))
        for name, metric in result["metrics"].items():
            self.assertEqual(sorted(metric), ["unit", "value"])
            self.assertEqual(metric["unit"], expected[name], name)
            self.assertTrue(math.isfinite(metric["value"]), name)
        return result["metrics"]

    def test_every_workload_emits_every_metric(self):
        end_to_end = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
        per_layer = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
        for workload in WORKLOADS:
            with self.subTest(workload=workload, trace=0):
                metrics = self.check_line(run(workload, 0), end_to_end)
                for name in end_to_end:
                    self.assertGreater(metrics[name]["value"], 0, name)
            with self.subTest(workload=workload, trace=1):
                self.check_line(run(workload, 1), per_layer)


class MetricMapTest(unittest.TestCase):
    def test_map_covers_every_metric_and_workload(self):
        self.assertEqual(set(METRIC_MAP["workloads"]), set(WORKLOADS))
        layers = METRIC_MAP["per_layer"]
        self.assertEqual(set(layers), {m["name"] for m in BENCH["per_layer"]})
        end_to_end = {m["name"] for m in BENCH["end_to_end"]}
        for name, entry in layers.items():
            with self.subTest(metric=name):
                self.assertIn(entry["exact"], (True, False))
                self.assertTrue(set(entry["moves"]) <= end_to_end)
                totals = entry["totals"]
                self.assertEqual(set(totals), set(WORKLOADS))
                flat = max(totals.values()) == min(totals.values())
                for key in ("most", "least"):
                    self.assertTrue(set(entry[key]) <= set(WORKLOADS))
                    self.assertEqual(not entry[key], flat)


class IsolatedTest(unittest.TestCase):
    def test_refuses_without_engine_sources(self):
        base = os.path.join(ROOT, ".bench_build")
        os.makedirs(base, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=base) as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = run(WORKLOADS[0], 0, cwd=tmp)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main()
