#!/usr/bin/env python3
"""Unit checks for tools/bench_pairs.py (stdlib only, run via ctest).

They pin the verdict, not the timing: which medians count as a
regression under a lower- or higher-is-better bound, that a tied pair
counts for neither side, when the parent's own spread leaves a metric
unresolved, that a rise in the failed-lap share fails, and that two
checkouts holding different benchmarks are refused before anything runs.
"""

import json
import pathlib
import subprocess
import sys
import tempfile
import unittest

TOOLS = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(TOOLS))
sys.dont_write_bytecode = True

import bench_pairs  # noqa: E402

LAP = {"name": "lap_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25}
RATE = {"name": "tests_per_s", "unit": "1/s", "better": "higher",
        "bound": 0.25}


def run(lap_ms, rate, failed=0, attempted=100):
    return {"attempted": attempted, "failed": failed,
            "metrics": {"lap_p50_ms": {"value": lap_ms, "unit": "ms"},
                        "tests_per_s": {"value": rate, "unit": "1/s"}}}


class Bounds(unittest.TestCase):
    def test_lower_is_better_fails_only_past_the_bound(self):
        self.assertFalse(bench_pairs.regressed(10.0, 12.5, "lower", 0.25))
        self.assertTrue(bench_pairs.regressed(10.0, 12.6, "lower", 0.25))
        self.assertFalse(bench_pairs.regressed(10.0, 5.0, "lower", 0.25))

    def test_higher_is_better_fails_only_past_the_bound(self):
        self.assertFalse(bench_pairs.regressed(100.0, 75.0, "higher", 0.25))
        self.assertTrue(bench_pairs.regressed(100.0, 74.0, "higher", 0.25))
        self.assertFalse(bench_pairs.regressed(100.0, 200.0, "higher", 0.25))

    def test_compare_gates_on_medians_not_on_single_pairs(self):
        # One change run is 3x slower; the median moves by 10%.
        parent = [run(10.0, 100.0) for _ in range(10)]
        change = [run(11.0, 95.0) for _ in range(9)] + [run(30.0, 30.0)]
        rows, problems = bench_pairs.compare(parent, change, [LAP, RATE])
        self.assertEqual(problems, [])
        self.assertEqual([r["change_median"] for r in rows], [11.0, 95.0])
        self.assertFalse(any(r["regressed"] for r in rows))

    def test_compare_names_each_regressed_metric(self):
        parent = [run(10.0, 100.0) for _ in range(10)]
        change = [run(20.0, 100.0) for _ in range(10)]
        rows, problems = bench_pairs.compare(parent, change, [LAP, RATE])
        self.assertEqual([r["regressed"] for r in rows], [True, False])
        self.assertEqual(len(problems), 1)
        self.assertIn("lap_p50_ms", problems[0])


class Pairs(unittest.TestCase):
    def test_ties_count_for_neither_side(self):
        parent = [10.0, 10.0, 10.0, 10.0]
        change = [9.0, 10.0, 11.0, 10.0]
        self.assertEqual(bench_pairs.change_wins(parent, change, "lower"), 1)
        self.assertEqual(bench_pairs.change_wins(parent, change, "higher"), 1)

    def test_wins_are_counted_pair_by_pair(self):
        # Every change run beats its own pair's parent run, although the
        # two sides' ranges overlap.
        parent = [10.0, 20.0, 30.0]
        change = [9.0, 19.0, 29.0]
        self.assertEqual(bench_pairs.change_wins(parent, change, "lower"), 3)


class Spread(unittest.TestCase):
    def test_parent_quartiles(self):
        self.assertEqual(bench_pairs.quartiles([1, 2, 3, 4, 5]), (2.0, 4.0))
        q1, q3 = bench_pairs.quartiles([float(v) for v in range(1, 11)])
        self.assertAlmostEqual(q1, 3.25)
        self.assertAlmostEqual(q3, 7.75)

    def test_spread_wider_than_the_bound_is_unresolved(self):
        # Quartiles 3.25..7.75 around a median of 5.5: a spread of 82%.
        wide = [float(v) for v in range(1, 11)]
        self.assertTrue(bench_pairs.unresolved(wide, 0.25))
        self.assertFalse(bench_pairs.unresolved(wide, 0.9))
        tight = [10.0, 10.1, 10.2, 9.9, 9.8, 10.0]
        self.assertFalse(bench_pairs.unresolved(tight, 0.1))

    def test_unresolved_is_reported_not_gated(self):
        parent = [run(v, 100.0) for v in (5.0, 10.0, 15.0, 20.0, 25.0)]
        change = [run(v, 100.0) for v in (5.0, 10.0, 15.0, 20.0, 25.0)]
        rows, problems = bench_pairs.compare(parent, change, [LAP])
        self.assertTrue(rows[0]["unresolved"])
        self.assertEqual(problems, [])


class Failures(unittest.TestCase):
    def test_a_rise_in_the_failed_share_fails(self):
        parent = [run(10.0, 100.0, failed=1) for _ in range(4)]
        change = [run(10.0, 100.0, failed=2) for _ in range(4)]
        _, problems = bench_pairs.compare(parent, change, [LAP])
        self.assertEqual(len(problems), 1)
        self.assertIn("failed-lap share rose", problems[0])

    def test_the_share_is_over_attempted_laps(self):
        # 2 of 400 at the parent, 2 of 100 + 0 of 300 at the change: equal,
        # although one change run failed 2% of its laps.
        parent = [run(10.0, 100.0, failed=f) for f in (1, 1, 0, 0)]
        change = [run(10.0, 100.0, failed=2, attempted=100),
                  run(10.0, 100.0, attempted=300)]
        self.assertEqual(bench_pairs.failed_share(parent),
                         bench_pairs.failed_share(change))
        _, problems = bench_pairs.compare(parent, change, [LAP])
        self.assertEqual(problems, [])


class Checkouts(unittest.TestCase):
    def make_checkout(self, root, name, benchmark, files):
        checkout = root / name
        (checkout / "perfbench").mkdir(parents=True)
        (checkout / "BENCHMARK.json").write_text(json.dumps(benchmark))
        for rel, text in files.items():
            path = checkout / "perfbench" / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
        return checkout

    def test_same_benchmark_is_accepted(self):
        benchmark = {"paths": ["perfbench"], "run_seconds": 45}
        with tempfile.TemporaryDirectory() as tmp:
            root = pathlib.Path(tmp)
            a = self.make_checkout(root, "a", benchmark, {"run.py": "x"})
            b = self.make_checkout(root, "b", benchmark, {
                "run.py": "x", "__pycache__/run.cpython.pyc": "cache"})
            self.assertEqual(bench_pairs.check_same_benchmark(a, b),
                             benchmark)

    def test_mismatched_benchmark_files_are_refused(self):
        benchmark = {"paths": ["perfbench"], "run_seconds": 45}
        with tempfile.TemporaryDirectory() as tmp:
            root = pathlib.Path(tmp)
            a = self.make_checkout(root, "a", benchmark, {"run.py": "x"})
            b = self.make_checkout(root, "b", benchmark, {"run.py": "y"})
            c = self.make_checkout(root, "c", benchmark,
                                   {"run.py": "x", "extra.py": ""})
            d = self.make_checkout(root, "d", dict(benchmark, run_seconds=5),
                                   {"run.py": "x"})
            for other, differs in ((b, "perfbench/run.py"),
                                   (c, "perfbench/extra.py"),
                                   (d, "BENCHMARK.json")):
                with self.assertRaises(bench_pairs.Refused) as caught:
                    bench_pairs.check_same_benchmark(a, other)
                self.assertIn(differs, str(caught.exception))

    def test_the_script_refuses_before_running_anything(self):
        with tempfile.TemporaryDirectory() as tmp:
            parent = pathlib.Path(tmp)
            (parent / "BENCHMARK.json").write_text("{}")
            proc = subprocess.run(
                [sys.executable, str(TOOLS / "bench_pairs.py"), str(parent)],
                capture_output=True, text=True, timeout=60)
        self.assertEqual(proc.returncode, 2, proc.stderr)
        self.assertIn("refused", proc.stderr)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
