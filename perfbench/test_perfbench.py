#!/usr/bin/env python3
"""Tests of the uniscan benchmark itself.

Run from the repository root (builds the benchmark program on first use):

    python3 perfbench/test_perfbench.py
"""

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*args):
    p = subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=ROOT,
                       capture_output=True, text=True, timeout=600)
    lines = p.stdout.strip().splitlines()
    return p.returncode, lines


def result(lines):
    return json.loads(lines[-1])


class SmokeRun(unittest.TestCase):
    """An s27 run through all four flows."""

    def smoke(self, *extra):
        return run("--workload", "smoke", "--seed", "3", "--seconds", "0.5", *extra)

    def assert_metrics(self, lines, specs):
        res = result(lines)
        self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(set(res["metrics"]), {m["name"] for m in specs})
        printed = {line.split()[0]: line.split()[-1] for line in lines[:-1]
                   if len(line.split()) == 3}
        for m in specs:
            self.assertEqual(res["metrics"][m["name"]]["unit"], m["unit"], m["name"])
            self.assertEqual(printed.get(m["name"]), m["unit"], m["name"])
        return res

    def test_prints_every_end_to_end_metric(self):
        rc, lines = self.smoke("--trace", "0")
        self.assertEqual(rc, 0)
        res = self.assert_metrics(lines, SPEC["end_to_end"])
        self.assertTrue(res["correct"])
        self.assertEqual(res["failed"], 0)
        self.assertGreaterEqual(res["attempted"], 4)
        self.assertEqual(res["metrics"]["ok_pct"]["value"], 100)
        for name, m in res["metrics"].items():
            self.assertGreater(m["value"], 0, name)

    def test_prints_every_per_layer_metric(self):
        rc, lines = self.smoke("--trace", "1")
        self.assertEqual(rc, 0)
        res = self.assert_metrics(lines, SPEC["per_layer"])
        self.assertTrue(res["correct"])

    def test_same_seed_repeats_deterministic_metrics(self):
        keys = ["test_cycles", "fault_coverage_pct", "efficiency_pct"]
        a = result(self.smoke()[1])["metrics"]
        b = result(self.smoke()[1])["metrics"]
        self.assertEqual([a[k] for k in keys], [b[k] for k in keys])

    def test_dropped_vector_fails_the_output_check(self):
        rc, lines = self.smoke("--corrupt")
        self.assertNotEqual(rc, 0)
        res = result(lines)
        self.assertFalse(res["correct"])
        self.assertGreater(res["failed"], 0)
        self.assertLess(res["metrics"]["ok_pct"]["value"], 100)


class Packaging(unittest.TestCase):
    def test_refuses_without_program_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            for p in SPEC["paths"]:
                shutil.copytree(ROOT / p, Path(tmp) / p)
            proc = subprocess.run(
                [sys.executable, *SPEC["command"][1:], "--workload", "stuck_gen",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
