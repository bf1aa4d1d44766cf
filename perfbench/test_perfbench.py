#!/usr/bin/env python3
"""Tests of the repository benchmark itself.

Run from the repository root:

    python3 -m unittest perfbench/test_perfbench.py

Each end-to-end test runs the benchmark on one workload with a short
--seconds; the whole file takes about a minute on 4 cores.
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SMALL = ["--workload", "uniform_churn_paged_lossy", "--seed", "5",
         "--seconds", "2"]


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_benchmark(*extra):
    result = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *SMALL, *extra],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, timeout=600)
    lines = result.stdout.strip().splitlines()
    return result.returncode, (json.loads(lines[-1]) if lines else None)


class MetricDeclarationTest(unittest.TestCase):
    def test_names_and_units(self):
        bench = load_benchmark()
        names = []
        for group in ("end_to_end", "per_layer"):
            for m in bench[group]:
                self.assertRegex(m["name"], NAME)
                self.assertRegex(m["unit"], UNIT)
                self.assertIn(m["better"], ("lower", "higher"))
                names.append(m["name"])
        for w in bench["workloads"]:
            self.assertRegex(w["name"], NAME)
            names.append(w["name"])
        self.assertEqual(len(names), len(set(names)), "names must be unique")

    def test_end_to_end_matches_run_py(self):
        declared = {m["name"]: m["unit"]
                    for m in load_benchmark()["end_to_end"]}
        emitted = {name: unit for name, unit, _ in run.END_TO_END}
        self.assertEqual(declared, emitted)
        self.assertIn("setup_s", declared)

    def test_workloads_match_run_py(self):
        declared = [w["name"] for w in load_benchmark()["workloads"]]
        self.assertEqual(sorted(declared), sorted(run.WORKLOADS))


class ReportSchemaTest(unittest.TestCase):
    def check_report(self, report, group):
        self.assertEqual(set(report),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertIsInstance(report["attempted"], int)
        self.assertIsInstance(report["failed"], int)
        self.assertGreaterEqual(report["attempted"], 1)
        declared = {m["name"]: m["unit"] for m in load_benchmark()[group]}
        self.assertEqual(set(report["metrics"]), set(declared))
        for name, m in report["metrics"].items():
            self.assertEqual(set(m), {"value", "unit"})
            self.assertIsInstance(m["value"], (int, float))
            self.assertEqual(m["unit"], declared[name])

    def test_end_to_end_report(self):
        code, report = run_benchmark("--trace", "0")
        self.assertEqual(code, 0)
        self.check_report(report, "end_to_end")
        self.assertTrue(report["correct"])
        self.assertEqual(report["failed"], 0)
        for m in report["metrics"].values():
            self.assertGreater(m["value"], 0)

    def test_trace_report(self):
        code, report = run_benchmark("--trace", "1")
        self.assertEqual(code, 0)
        self.check_report(report, "per_layer")
        self.assertTrue(report["correct"])


class ArgumentTest(unittest.TestCase):
    def test_seconds_beyond_the_task_list_are_rejected(self):
        result = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             "uniform_static", "--seconds", str(run.MAX_SECONDS + 1)],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            timeout=60)
        self.assertNotEqual(result.returncode, 0)
        self.assertEqual(result.stdout, b"")


class AnswerCheckerTest(unittest.TestCase):
    def test_corrupted_answer_fails_the_run(self):
        code, report = run_benchmark("--trace", "0", "--corrupt-answer", "3")
        self.assertNotEqual(code, 0)
        self.assertFalse(report["correct"])
        self.assertGreaterEqual(report["failed"], 1)


if __name__ == "__main__":
    unittest.main()
