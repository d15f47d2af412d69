#!/usr/bin/env python3
"""The benchmark's own tests. Run from the root of a checkout:

    python3 perfbench/test_bench.py

Each test runs perfbench/run.py on short budgets: planted defects must
fail the run, a second seed must change the inputs but not the metric
set, and the printed metric names must match BENCHMARK.json.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("pipeline", "serve-open", "corpus-stream")


def run(workload, seed=1, seconds=2, trace=0, plant=None):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    if plant:
        command += ["--plant", plant]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    digest = [line.split()[-1] for line in lines
              if line.startswith("# inputs digest")]
    return proc.returncode, result, digest[0] if digest else None, proc.stdout


def declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec[kind]}


class PlantedDefects(unittest.TestCase):
    def assert_fails(self, workload, plant, message):
        code, result, _, stdout = run(workload, plant=plant)
        self.assertNotEqual(code, 0, stdout)
        self.assertFalse(result["correct"], stdout)
        self.assertIn(message, stdout)

    def test_wrong_serve_answer_fails(self):
        self.assert_fails("serve-open", "serve-answer",
                          "served answers differ")

    def test_macro_f1_drop_fails(self):
        self.assert_fails("pipeline", "f1-drop", "macro-F1")

    def test_recall_shortfall_fails(self):
        self.assert_fails("corpus-stream", "recall", "recall@10")


class MetricSet(unittest.TestCase):
    def test_end_to_end_names_match_benchmark_json(self):
        want = declared("end_to_end")
        for workload in WORKLOADS:
            code, result, _, stdout = run(workload)
            self.assertEqual(code, 0, stdout)
            self.assertTrue(result["correct"])
            self.assertGreaterEqual(result["attempted"], 1)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            self.assertEqual(got, want, workload)

    def test_per_layer_names_match_benchmark_json(self):
        code, result, _, stdout = run("corpus-stream", trace=1)
        self.assertEqual(code, 0, stdout)
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, declared("per_layer"))
        self.assertIn("overhead", stdout)

    def test_second_seed_changes_inputs_not_metrics(self):
        for workload in ("serve-open", "corpus-stream"):
            _, first, digest1, _ = run(workload, seed=1)
            _, second, digest2, _ = run(workload, seed=2)
            self.assertNotEqual(digest1, digest2, workload)
            self.assertEqual(first["metrics"].keys(),
                             second["metrics"].keys(), workload)


if __name__ == "__main__":
    unittest.main()
