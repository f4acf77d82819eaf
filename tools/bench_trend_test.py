#!/usr/bin/env python3
"""Unit checks for tools/bench_trend.py (stdlib only, run via ctest).

The interesting behaviour is around the history file: an empty trajectory
must announce itself ("no baseline" — the silent form of that message is
exactly how the vacuous perf gate went unnoticed), green laps must append
to the history, and regressing laps must fail WITHOUT being recorded so a
rerun at the same revision fails again.
"""

import json
import pathlib
import subprocess
import sys
import tempfile
import unittest

SCRIPT = pathlib.Path(__file__).resolve().parent / "bench_trend.py"


def write_record(json_dir: pathlib.Path, tests_per_s: float) -> None:
    record = {
        "bench": "e10_matrix",
        "table": "throughput",
        "headers": ["case", "tests/s"],
        "rows": [["matrix", str(tests_per_s)]],
    }
    (json_dir / "BENCH_e10_matrix.json").write_text(
        json.dumps(record) + "\n")


def run_trend(json_dir: pathlib.Path, history: pathlib.Path):
    return subprocess.run(
        [sys.executable, str(SCRIPT), str(json_dir),
         "--history", str(history), "--max-drop", "15"],
        capture_output=True, text=True)


def history_lines(history: pathlib.Path):
    if not history.exists():
        return []
    return [l for l in history.read_text().splitlines() if l.strip()]


class BenchTrendTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory(prefix="bench-trend-test-")
        self.dir = pathlib.Path(self._tmp.name)
        self.history = self.dir / "history.jsonl"

    def tearDown(self):
        self._tmp.cleanup()

    def test_empty_record_dir_gates_nothing(self):
        proc = run_trend(self.dir, self.history)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("nothing to gate", proc.stdout)
        self.assertEqual(history_lines(self.history), [])

    def test_first_lap_announces_the_missing_baseline_and_records(self):
        write_record(self.dir, 100.0)
        proc = run_trend(self.dir, self.history)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("no baseline", proc.stdout)
        self.assertIn("recording first lap", proc.stdout)
        lines = history_lines(self.history)
        self.assertEqual(len(lines), 1)
        metrics = json.loads(lines[0])["metrics"]
        self.assertEqual(len(metrics), 1)
        self.assertEqual(list(metrics.values()), [100.0])

    def test_second_lap_compares_against_the_first(self):
        write_record(self.dir, 100.0)
        run_trend(self.dir, self.history)
        write_record(self.dir, 110.0)
        proc = run_trend(self.dir, self.history)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertNotIn("no baseline", proc.stdout)
        self.assertIn("1 compared against previous record", proc.stdout)
        self.assertEqual(len(history_lines(self.history)), 2)

    def test_regression_fails_and_is_not_laundered_into_the_baseline(self):
        write_record(self.dir, 100.0)
        run_trend(self.dir, self.history)
        write_record(self.dir, 50.0)  # -50% >> the 15% gate
        proc = run_trend(self.dir, self.history)
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertIn("REGRESSION", proc.stdout)
        # The failing lap must NOT become the new baseline.
        self.assertEqual(len(history_lines(self.history)), 1)
        retry = run_trend(self.dir, self.history)
        self.assertEqual(retry.returncode, 1, "retry laundered the drop")

    def test_modeled_rate_constants_are_not_gated(self):
        # The e4 platform table's "modeled instr/s" column prints the
        # platform model's constants; a table of them yields no metric.
        record = {
            "bench": "e4_platforms",
            "table": "modeled-rates",
            "headers": ["platform", "modeled instr/s"],
            "rows": [["golden-model", "1e+07"], ["hdl-rtl", "20000"]],
        }
        (self.dir / "BENCH_e4_platforms.json").write_text(
            json.dumps(record) + "\n")
        proc = run_trend(self.dir, self.history)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("nothing to gate", proc.stdout)
        self.assertEqual(history_lines(self.history), [])

    def test_small_dip_within_the_gate_passes(self):
        write_record(self.dir, 100.0)
        run_trend(self.dir, self.history)
        write_record(self.dir, 90.0)  # -10% < 15%
        proc = run_trend(self.dir, self.history)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertEqual(len(history_lines(self.history)), 2)


if __name__ == "__main__":
    unittest.main()
