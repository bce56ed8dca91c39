#!/usr/bin/env python3
"""Tests for the benchmark itself.

Run from the repository root (builds the benchmark on first use):

    python3 -m unittest perfbench/test_perfbench.py

They check that a minimal run of every workload, untraced and traced,
ends with a result object that names every metric BENCHMARK.json lists
with its unit and reports no failed operation, and that the seeded
generators are pure functions of the seed.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
BINARY = os.path.join(ROOT, ".bench_build", "perfbench", "libra_bench")


def run_bench(*args):
    proc = subprocess.run([sys.executable, RUN, *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise AssertionError(f"run.py {' '.join(args)} exited "
                             f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc.stdout


def dump_gen(kind, seed, count=40):
    run_bench("--dump-gen", kind, "--seed", str(seed), "--count",
              str(count))  # Builds when needed.
    return subprocess.run([BINARY, "--dump-gen", kind, "--seed", str(seed),
                           "--count", str(count)], cwd=ROOT,
                          capture_output=True, text=True,
                          check=True).stdout


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for kind in ("studies", "serve"):
            self.assertEqual(dump_gen(kind, 5), dump_gen(kind, 5))

    def test_seed_changes_inputs(self):
        for kind in ("studies", "serve"):
            self.assertNotEqual(dump_gen(kind, 5), dump_gen(kind, 6))

    def test_prefix_is_stable(self):
        # Study i and request i do not depend on how many follow.
        for kind in ("studies", "serve"):
            short = dump_gen(kind, 9, 20)
            self.assertTrue(dump_gen(kind, 9, 60).startswith(short))


class MinimalRunTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def check(self, workload, trace):
        out = run_bench("--workload", workload, "--seed", "1",
                        "--seconds", "1", "--trace", str(trace))
        result = json.loads(out.strip().splitlines()[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        listed = self.spec["per_layer" if trace else "end_to_end"]
        self.assertEqual(
            {m["name"]: m["unit"] for m in listed},
            {k: v["unit"] for k, v in result["metrics"].items()})
        for name, metric in result["metrics"].items():
            self.assertIsInstance(metric["value"], (int, float), name)

    def test_every_workload(self):
        # studies-gen is not in BENCHMARK.json but can still be run.
        names = [w["name"] for w in self.spec["workloads"]]
        for workload in names + ["studies-gen"]:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    self.check(workload, trace)


if __name__ == "__main__":
    unittest.main()
