#!/usr/bin/env python3
"""Tests for the campaign benchmark itself.

Run from the repository root (builds campaign_bench on first use):

  python3 -m unittest discover -s perfbench/tests -v

The workload runs use --scale to shrink the AS count, so they take seconds,
not the benchmark's full run length.
"""
import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import unittest

TESTS_DIR = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(TESTS_DIR)
ROOT = os.path.dirname(BENCH_DIR)
RUN = os.path.join(BENCH_DIR, "run.py")
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
SMALL = "0.05"


def bench(*args):
    """Runs run.py; returns (exit code, parsed last line or None, stdout)."""
    proc = subprocess.run([sys.executable, RUN, *args], capture_output=True,
                          text=True, cwd=ROOT, timeout=600)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result, proc.stdout


def provenance(stdout):
    for line in stdout.splitlines():
        if line.startswith("# provenance "):
            return json.loads(line[len("# provenance "):])
    raise AssertionError("no provenance line")


class DeclarationTest(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            self.spec = json.load(f)

    def test_metric_names_match_pattern(self):
        for kind in ("end_to_end", "per_layer"):
            for metric in self.spec[kind]:
                self.assertRegex(metric["name"], NAME)

    def test_workloads_are_the_declared_ones(self):
        self.assertEqual({w["name"] for w in self.spec["workloads"]},
                         set(run.WORKLOADS))


class WorkloadTest(unittest.TestCase):
    def test_every_workload_emits_every_declared_metric(self):
        for workload in sorted(run.WORKLOADS):
            for trace, units in ((0, run.END_TO_END_UNITS),
                                 (1, run.PER_LAYER_UNITS)):
                with self.subTest(workload=workload, trace=trace):
                    code, result, _ = bench(
                        "--workload", workload, "--seed", "3", "--seconds",
                        "1", "--trace", str(trace), "--scale", SMALL)
                    self.assertEqual(code, 0)
                    self.assertEqual(
                        set(result), {"correct", "attempted", "failed",
                                      "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(set(result["metrics"]), set(units))
                    for name, metric in result["metrics"].items():
                        self.assertEqual(metric["unit"], units[name])
                        self.assertIsInstance(metric["value"], (int, float))

    def test_traced_digest_equals_untraced(self):
        for workload in sorted(run.WORKLOADS):
            with self.subTest(workload=workload):
                code, result, stdout = bench(
                    "--workload", workload, "--seed", "5", "--seconds", "1",
                    "--trace", "1", "--scale", SMALL)
                self.assertEqual(code, 0)
                worlds = provenance(stdout)["worlds"]
                traced = [w["traced"] for w in worlds]
                self.assertGreaterEqual(traced.count(True), 1)
                self.assertEqual(traced.count(True), traced.count(False))
                self.assertEqual(len({w["seed"] for w in worlds}), 1)
                self.assertEqual(len({w["digest"] for w in worlds}), 1)
                self.assertRegex(worlds[0]["digest"], r"^[0-9a-f]{16}$")
                self.assertTrue(result["correct"])

    def test_digest_off_its_pin_fails_the_whole_run(self):
        with tempfile.TemporaryDirectory() as tmp:
            pins = os.path.join(tmp, "pins.json")
            with open(pins, "w") as f:
                json.dump({"probe-serial": {
                    str(run.world_seed(7, 0)): "0000000000000000"}}, f)
            saved, run.PINS = run.PINS, pins
            out = io.StringIO()
            try:
                with contextlib.redirect_stdout(out):
                    code = run.main(["--workload", "probe-serial", "--seed",
                                     "7", "--seconds", "1", "--trace", "0"])
            finally:
                run.PINS = saved
        result = json.loads(out.getvalue().strip().splitlines()[-1])
        self.assertEqual(code, 1)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])


class CliTest(unittest.TestCase):
    def test_run_rejects_bad_flags(self):
        bad = [
            ["--workload", "nope", "--seed", "1", "--seconds", "1",
             "--trace", "0"],
            ["--workload", "probe-serial", "--seed", "x", "--seconds", "1",
             "--trace", "0"],
            ["--workload", "probe-serial", "--seed", "1", "--seconds", "1",
             "--trace", "2"],
            ["--workload", "probe-serial", "--seed", "1", "--seconds", "1",
             "--trace", "0", "--bogus", "1"],
            ["--workload", "probe-serial", "--seed", "1", "--trace", "0"],
        ]
        for args in bad:
            with self.subTest(args=args):
                code, result, _ = bench(*args)
                self.assertNotEqual(code, 0)
                self.assertIsNone(result)

    def test_binary_rejects_bad_flags(self):
        binary = run.build()
        good = ["--asns", "2", "--mean", "1.5", "--shards", "1", "--seed",
                "1", "--spill-dir", os.path.join(ROOT, ".bench_build", "x")]
        bad = [
            good + ["--threads", "bogus"],
            good + ["--threads", "0"],
            good + ["--threads", "1", "--followup", "quic"],
            good + ["--threads", "1", "--unknown", "1"],
            good + ["--threads"],
            ["--asns", "2", "--mean", "nan", "--shards", "1", "--seed", "1",
             "--threads", "1", "--spill-dir", "x"],
            good,
        ]
        for args in bad:
            with self.subTest(args=args):
                proc = subprocess.run([binary, *args], capture_output=True,
                                      text=True, timeout=60)
                self.assertEqual(proc.returncode, 2)
                self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
