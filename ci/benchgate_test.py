#!/usr/bin/env python3
"""Unit tests for benchgate.py, focused on the no-baseline neutral path: a
PR that adds a benchmark under the gate has no merge-base numbers to
compare against, and the gate must exit 0 with a clear message — not crash
on a missing file and not fail the PR.

Run directly (python3 ci/benchgate_test.py) or via unittest discovery.
"""

import os
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import benchgate  # noqa: E402

GATE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "benchgate.py")


def bench_output(named_ns):
    lines = []
    for name, ns in named_ns.items():
        for factor in (0.98, 1.0, 1.02):
            lines.append(f"{name}-4  100  {ns * factor:.0f} ns/op  8 B/op")
    return "\n".join(lines)


def run_gate(base_path, head_path, *extra):
    return subprocess.run(
        [sys.executable, GATE, base_path, head_path, *extra],
        capture_output=True, text=True)


class CompareTest(unittest.TestCase):
    def test_regression_detected(self):
        base = bench_output({"BenchmarkScanA": 1000})
        head = bench_output({"BenchmarkScanA": 1300})
        fails, _, compared = benchgate.compare(base, head, 15.0, "BenchmarkScan")
        self.assertEqual(fails, ["BenchmarkScanA"])
        self.assertEqual(compared, 1)

    def test_new_benchmark_skipped_but_existing_still_gated(self):
        base = bench_output({"BenchmarkScanA": 1000})
        head = bench_output({"BenchmarkScanA": 1010, "BenchmarkScanNew": 50})
        fails, lines, compared = benchgate.compare(base, head, 15.0, "BenchmarkScan")
        self.assertEqual(fails, [])
        self.assertEqual(compared, 1)
        self.assertTrue(any("no baseline" in l for l in lines))

    def test_empty_baseline_is_neutral(self):
        head = bench_output({"BenchmarkRestartFirstQuery": 500})
        fails, _, compared = benchgate.compare("", head, 15.0, "BenchmarkRestart")
        self.assertEqual(fails, [])
        self.assertEqual(compared, 0)


class CLITest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.addCleanup(self.dir.cleanup)

    def write(self, name, text):
        path = os.path.join(self.dir.name, name)
        with open(path, "w") as f:
            f.write(text)
        return path

    def test_benchmark_missing_from_base_exits_zero(self):
        # The merge-base ran fine but predates the gated benchmark.
        base = self.write("base.txt", bench_output({"BenchmarkScanA": 1000}))
        head = self.write("head.txt", bench_output(
            {"BenchmarkScanA": 1000, "BenchmarkRestartFirstQuery": 500}))
        res = run_gate(base, head, "--filter", "BenchmarkRestartFirstQuery")
        self.assertEqual(res.returncode, 0, res.stdout + res.stderr)
        self.assertIn("no baseline benchmark found", res.stdout)

    def test_missing_base_file_exits_zero(self):
        # The base bench step failed entirely (|| true): no file at all.
        head = self.write("head.txt", bench_output({"BenchmarkRestartFirstQuery": 500}))
        res = run_gate(os.path.join(self.dir.name, "nope.txt"), head,
                       "--filter", "BenchmarkRestartFirstQuery")
        self.assertEqual(res.returncode, 0, res.stdout + res.stderr)
        self.assertIn("no baseline benchmark found", res.stdout)

    def test_repeated_filter_gates_each_prefix(self):
        base = self.write("base.txt", bench_output(
            {"BenchmarkScanA": 1000, "BenchmarkAddRowsWAL": 1000, "BenchmarkUngated": 1000}))
        head = self.write("head.txt", bench_output(
            {"BenchmarkScanA": 1000, "BenchmarkAddRowsWAL": 1300, "BenchmarkUngated": 9000}))
        res = run_gate(base, head, "--filter", "BenchmarkScan", "--filter", "BenchmarkAddRowsWAL")
        self.assertEqual(res.returncode, 1, res.stdout + res.stderr)
        self.assertIn("BenchmarkAddRowsWAL", res.stdout)
        self.assertNotIn("BenchmarkUngated", res.stdout)
        res = run_gate(base, head, "--filter", "BenchmarkScan", "--filter", "BenchmarkNoSuch")
        self.assertEqual(res.returncode, 0, res.stdout + res.stderr)
        self.assertIn("PASS", res.stdout)

    def test_regression_still_fails_the_gate(self):
        base = self.write("base.txt", bench_output({"BenchmarkScanA": 1000}))
        head = self.write("head.txt", bench_output({"BenchmarkScanA": 1300}))
        res = run_gate(base, head, "--filter", "BenchmarkScan")
        self.assertEqual(res.returncode, 1, res.stdout + res.stderr)
        self.assertIn("REGRESSION", res.stdout)


if __name__ == "__main__":
    unittest.main(verbosity=2)
