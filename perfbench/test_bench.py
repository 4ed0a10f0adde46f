#!/usr/bin/env python3
"""Self-test of the campaign-trial benchmark, in smoke mode (tiny trial counts).

Run from the root of the repository:

    python3 perfbench/test_bench.py

Checks that every workload prints every metric BENCHMARK.json names, each
with its unit, in both modes, and that a perturbed pinned reference trips the
correctness gate with a message naming the workload and the field.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(workload, trace, *extra):
    cmd = RUN + ["--workload", workload, "--seed", "1", "--seconds", "1",
                 "--trace", str(trace), "--smoke", *extra]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)


class MetricsPrint(unittest.TestCase):
    def check(self, trace, declared):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"], trace=trace):
                proc = run(w["name"], trace)
                self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                self.assertEqual(set(result),
                                 {"correct", "attempted", "failed", "metrics"})
                self.assertIs(result["correct"], True)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                metrics = result["metrics"]
                self.assertEqual(set(metrics), {m["name"] for m in declared})
                for m in declared:
                    got = metrics[m["name"]]
                    self.assertEqual(got["unit"], m["unit"], m["name"])
                    self.assertIsInstance(got["value"], (int, float))
                    self.assertTrue(math.isfinite(got["value"]), m["name"])

    def test_end_to_end(self):
        self.check(0, SPEC["end_to_end"])

    def test_per_layer(self):
        self.check(1, SPEC["per_layer"])


class Gate(unittest.TestCase):
    def test_perturbed_reference_fails(self):
        ref = os.path.join(ROOT, ".bench_out", "perturbed-reference")
        shutil.rmtree(ref, ignore_errors=True)
        shutil.copytree(os.path.join(HERE, "reference"), ref)
        path = os.path.join(ref, "v2-rerand.json")
        with open(path) as f:
            pinned = json.load(f)
        pinned["detections"] += 1
        with open(path, "w") as f:
            f.write(json.dumps(pinned) + "\n")
        proc = run("v2-rerand", 0, "--reference-dir", ref)
        self.assertNotEqual(proc.returncode, 0)
        self.assertIn("v2-rerand", proc.stderr)
        self.assertIn("'detections'", proc.stderr)

    def test_missing_reference_fails(self):
        proc = run("fault-reflash", 0, "--reference-dir",
                   os.path.join(ROOT, ".bench_out", "no-such-dir"))
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
