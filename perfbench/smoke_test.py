#!/usr/bin/env python3
"""Tiny-size smoke test of the benchmark itself.

Runs every workload at a tiny size, untraced and traced, and checks that
each declared metric is printed with its unit (as a `metric` line and in
the final JSON line), that every fingerprint check passed, and that
nothing failed. Run from the repository root:

    python3 perfbench/smoke_test.py
"""

import json
import os
import subprocess
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))

# Tiny sizes: a few seconds for all workloads together.
TINY = {
    "cell_month": ["--hosts", "60", "--days", "1"],
    "cell_month_sharded": ["--hosts", "60", "--days", "1"],
    "mechanism_month": ["--hosts", "12", "--days", "2"],
    "build_batch": ["--hosts", "6", "--files", "40"],
}


def run(workload, trace, seed=7, sizes=None):
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    args = ["--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(
        BENCH["command"] + args + (TINY.get(workload, []) if sizes is None else sizes),
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=900,
    )
    return proc


class Smoke(unittest.TestCase):
    def check(self, workload, trace):
        proc = run(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr + proc.stdout)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertFalse([l for l in lines if l.startswith("CHECK FAILED")])
        self.assertTrue([l for l in lines if l.startswith("fingerprint ")])
        # The cell workloads also check serial against sharded.
        cross = [l for l in lines if l.startswith("cross-check: ")]
        self.assertEqual(len(cross), 1 if workload.startswith("cell_") else 0)
        declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
        want = {m["name"]: m["unit"] for m in declared}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, want)
        printed = {}
        for l in lines:
            if l.startswith("metric "):
                _, name, value, unit = l.split()
                printed[name] = unit
                float(value)
        self.assertEqual(printed, want)
        for name, v in result["metrics"].items():
            self.assertIsInstance(v["value"], (int, float), name)
        if not trace:
            for name in want:
                self.assertGreater(result["metrics"][name]["value"], 0, name)

    def test_every_workload_untraced_and_traced(self):
        # cell_month_sharded is not in BENCHMARK.json but is checked too.
        self.assertLessEqual({w["name"] for w in BENCH["workloads"]}, set(TINY))
        for workload in TINY:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    self.check(workload, trace)

    def test_default_size_matches_recorded_fingerprint(self):
        # The two quickest workloads at their default size, on both
        # recorded seeds; the cell workloads take too long for a smoke test.
        for workload in ("mechanism_month", "build_batch"):
            for seed in (53, 20261017):
                with self.subTest(workload=workload, seed=seed):
                    proc = run(workload, 0, seed=seed, sizes=[])
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    self.assertIn("baseline: matches the recorded fingerprint", proc.stdout)

    def test_bad_arguments_exit_nonzero_without_result(self):
        proc = run("no_such_workload", 0)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
