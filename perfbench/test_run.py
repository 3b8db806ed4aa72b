#!/usr/bin/env python3
"""Tests of the repo benchmark, run through the same run.py the benchmark
command uses. From the repo root:

    python3 perfbench/test_run.py

Each workload runs at a tiny size (--tiny): every metric BENCHMARK.json
names must come back with its unit, no op may fail, and the simulated
bytes_per_peer and rounds must repeat exactly across two runs of one seed.
One full-size scale run checks bytes_per_peer against the committed
fig7_million_peers --quick row it reproduces.
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("scale", "unpruned", "multiquery")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCHMARK = json.load(f)


def run(workload, seed, trace, tiny=True, seconds=0.3, cwd=ROOT):
    # The benchmark command's form: run.py relative to the checkout root.
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if tiny:
        cmd.append("--tiny")
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


def result(proc):
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


class TinyWorkloadTest(unittest.TestCase):
    def check_shape(self, res, metrics):
        self.assertEqual(set(res), {"correct", "attempted", "failed",
                                    "metrics"})
        self.assertTrue(res["correct"])
        self.assertGreaterEqual(res["attempted"], 1)
        self.assertEqual(res["failed"], 0)  # failed_frac == 0
        self.assertEqual(set(res["metrics"]), {m["name"] for m in metrics})
        for m in metrics:
            self.assertEqual(res["metrics"][m["name"]]["unit"], m["unit"],
                             m["name"])

    def test_end_to_end_metrics_and_simulated_repeat(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                a = result(run(w, seed=7, trace=0))
                b = result(run(w, seed=7, trace=0))
                self.check_shape(a, BENCHMARK["end_to_end"])
                self.check_shape(b, BENCHMARK["end_to_end"])
                for name in ("bytes_per_peer", "rounds"):
                    self.assertEqual(a["metrics"][name]["value"],
                                     b["metrics"][name]["value"], name)
                    self.assertGreater(a["metrics"][name]["value"], 0)

    def test_per_layer_metrics(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                res = result(run(w, seed=7, trace=1))
                self.check_shape(res, BENCHMARK["per_layer"])

    def test_refuses_to_run_without_sources(self):
        target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                   ".bench_build"))
        os.makedirs(target, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=target) as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            for path in BENCHMARK["paths"]:
                shutil.copytree(os.path.join(ROOT, path),
                                os.path.join(bare, path))
            proc = run("scale", seed=1, trace=0, cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout, "")


class ScaleMatchesFig7Test(unittest.TestCase):
    def test_bytes_per_peer_equals_fig7_quick_alpha1(self):
        with open(os.path.join(ROOT, "BENCH_million_baseline.json")) as f:
            rows = json.load(f)["results"]
        (row,) = [r for r in rows if r["alpha"] == 1.0]
        res = result(run("scale", seed=42, trace=0, tiny=False,
                         seconds=0.1))
        self.assertEqual(res["metrics"]["bytes_per_peer"]["value"],
                         row["total_cost"])
        self.assertEqual(res["metrics"]["rounds"]["value"],
                         row["rounds_total"])


if __name__ == "__main__":
    unittest.main()
