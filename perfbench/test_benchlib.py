"""Unit tests for the benchmark's own arithmetic and checks.

Run from the repository root: python3 perfbench/test_benchlib.py
"""

import unittest

import benchlib


class TailPercentileTest(unittest.TestCase):
    def test_highest_percentile_with_ten_beyond(self):
        samples = list(range(1, 101))  # 1..100
        percentile, value, beyond = benchlib.tail_percentile(samples)
        self.assertEqual((percentile, value, beyond), (90, 90, 10))

    def test_small_run_picks_lower_percentile(self):
        samples = list(range(1, 21))  # 20 laps: 10 beyond leaves p50
        percentile, value, beyond = benchlib.tail_percentile(samples)
        self.assertEqual((percentile, value, beyond), (50, 10, 10))

    def test_ties_are_not_beyond(self):
        samples = [1.0] * 5 + [2.0] * 20
        percentile, value, beyond = benchlib.tail_percentile(samples)
        self.assertEqual((value, beyond), (1.0, 20))
        self.assertEqual(percentile, 20)

    def test_order_does_not_matter(self):
        samples = [5, 3, 9, 1, 7, 2, 8, 4, 6, 10, 11, 12, 0]
        self.assertEqual(benchlib.tail_percentile(samples),
                         benchlib.tail_percentile(sorted(samples)))

    def test_too_few_samples(self):
        with self.assertRaises(ValueError):
            benchlib.tail_percentile(list(range(10)))


class GroupedTailTest(unittest.TestCase):
    def test_partial_group_is_dropped(self):
        samples = list(range(1, 100))  # one group of 50, 49 laps dropped
        self.assertEqual(benchlib.grouped_tail(samples),
                         benchlib.tail_percentile(samples[:50])[:2] + (1,))

    def test_median_over_groups(self):
        # three groups of 50; the middle one carries a burst of slow laps
        quiet = list(range(1, 51))
        burst = [x * 10 for x in quiet]
        percentile, value, groups = benchlib.grouped_tail(
            quiet + burst + quiet)
        self.assertEqual((percentile, value, groups), (80, 40, 3))

    def test_percentile_does_not_follow_the_lap_count(self):
        # a faster commit fits more laps in a run; the tail stays p80
        for laps, groups in ((50, 1), (99, 1), (270, 5), (297, 5),
                             (300, 6)):
            percentile, _, count = benchlib.grouped_tail(
                list(range(1, laps + 1)))
            self.assertEqual((percentile, count), (80, groups), laps)

    def test_too_few_for_one_group(self):
        with self.assertRaises(ValueError):
            benchlib.grouped_tail(list(range(49)))


class FailRatioTest(unittest.TestCase):
    def test_counts_failed_laps(self):
        self.assertEqual(benchlib.fail_ratio([True, False, True, False]),
                         (4, 2, 0.5))

    def test_all_pass(self):
        self.assertEqual(benchlib.fail_ratio([True] * 7), (7, 0, 0.0))

    def test_no_laps(self):
        with self.assertRaises(ValueError):
            benchlib.fail_ratio([])


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans(self):
        # lap [0,100) > cell [10,60) > link [10,20), run [30,60)
        spans = [(0, 100, -1), (10, 60, 0), (10, 20, 1), (30, 60, 1)]
        self.assertEqual(benchlib.self_times(spans), [50, 10, 10, 30])

    def test_parallel_children_overlap_counted_once(self):
        # two workers' spans under one lap overlap in [20,40)
        spans = [(0, 100, -1), (10, 40, 0), (20, 70, 0)]
        self.assertEqual(benchlib.self_times(spans), [40, 30, 50])

    def test_child_outside_parent_is_clipped(self):
        spans = [(0, 50, -1), (40, 80, 0)]
        self.assertEqual(benchlib.self_times(spans)[0], 40)

    def test_union(self):
        self.assertEqual(benchlib.union_ms([(0, 5), (3, 8), (10, 12)]), 10)
        self.assertEqual(benchlib.union_ms([(0, 5), (3, 8)], 2, 6), 4)
        self.assertEqual(benchlib.union_ms([]), 0)


class RotationTest(unittest.TestCase):
    def test_same_seed_same_targets(self):
        a = benchlib.Rotation(42, "SC88-A")
        b = benchlib.Rotation(42, "SC88-A")
        self.assertEqual([a.next() for _ in range(50)],
                         [b.next() for _ in range(50)])

    def test_seeds_differ(self):
        a = benchlib.Rotation(1, "SC88-A")
        b = benchlib.Rotation(2, "SC88-A")
        self.assertNotEqual([a.next() for _ in range(50)],
                            [b.next() for _ in range(50)])

    def test_never_a_no_op_port(self):
        for seed in range(20):
            rotation = benchlib.Rotation(seed, "SC88-A")
            current = "SC88-A"
            for _ in range(200):
                target = rotation.next()
                self.assertNotEqual(target, current)
                self.assertIn(target, benchlib.DERIVATIVES)
                current = target

    def test_visits_every_other_derivative(self):
        rotation = benchlib.Rotation(3, "SC88-A")
        self.assertEqual({rotation.next() for _ in range(100)},
                         set(benchlib.DERIVATIVES))

    def test_rejects_unknown_current(self):
        with self.assertRaises(ValueError):
            benchlib.Rotation(0, "SC88-Z")


def cell(derivative, platform, passed, total, digest, instructions=100):
    return {"derivative": derivative, "platform": platform,
            "passed": passed, "total": total, "digest": digest,
            "instructions": instructions, "cache_hits": 0,
            "cache_misses": 30}


class LapOracleTest(unittest.TestCase):
    def setUp(self):
        self.oracle = benchlib.LapOracle({"SC88-A": (10, 10),
                                          "SC88-C": (7, 10)}, exit_code=1)
        self.good = [cell("SC88-A", "golden-model", 10, 10, "aa"),
                     cell("SC88-A", "hdl-rtl", 10, 10, "aa"),
                     cell("SC88-C", "golden-model", 7, 10, "cc"),
                     cell("SC88-C", "hdl-rtl", 7, 10, "cc")]

    def test_good_lap(self):
        self.assertEqual(
            self.oracle.check(1, self.good, ["SC88-A", "SC88-C"]), [])

    def test_exit_code(self):
        self.assertTrue(self.oracle.check(0, self.good, ["SC88-A", "SC88-C"]))

    def test_pass_count(self):
        bad = self.good[:2] + [cell("SC88-C", "golden-model", 8, 10, "cc"),
                               cell("SC88-C", "hdl-rtl", 8, 10, "cc")]
        self.assertEqual(
            len(self.oracle.check(1, bad, ["SC88-A", "SC88-C"])), 2)

    def test_platform_digests_must_agree(self):
        bad = self.good[:3] + [cell("SC88-C", "hdl-rtl", 7, 10, "cd")]
        failures = self.oracle.check(1, bad, ["SC88-A", "SC88-C"])
        self.assertTrue(any("platforms disagree" in f for f in failures))

    def test_digest_stable_across_laps(self):
        self.oracle.check(1, self.good, ["SC88-A", "SC88-C"])
        later = [dict(c, digest="zz") if c["derivative"] == "SC88-A" else c
                 for c in self.good]
        failures = self.oracle.check(1, later, ["SC88-A", "SC88-C"])
        self.assertEqual(len(failures), 2)
        self.assertTrue(all("earlier lap" in f for f in failures))

    def test_missing_cell(self):
        self.assertTrue(
            self.oracle.check(1, self.good[:3], ["SC88-A", "SC88-C"]))

    def test_replay_parity(self):
        self.oracle.check(1, self.good, ["SC88-A", "SC88-C"])
        self.assertEqual(self.oracle.parity(self.good), [])
        drifted = [dict(self.good[0], digest="ab")]
        self.assertEqual(len(self.oracle.parity(drifted)), 1)
        unseen = [cell("SC88-D", "hdl-rtl", 0, 10, "dd")]
        self.assertEqual(len(self.oracle.parity(unseen)),
                         len(benchlib.PARITY_FIELDS))

    def test_replay_parity_checks_the_work_too(self):
        # same outcomes, different work: a drifted copy of the runner
        self.oracle.check(1, self.good, ["SC88-A", "SC88-C"])
        more_work = [dict(self.good[0], instructions=101)]
        fewer_misses = [dict(self.good[1], cache_hits=1, cache_misses=29)]
        self.assertEqual(len(self.oracle.parity(more_work)), 1)
        self.assertEqual(len(self.oracle.parity(fewer_misses)), 2)

    def test_wildcard_pin(self):
        oracle = benchlib.LapOracle({None: (100, 100)}, exit_code=0)
        lap = [cell("SC88-B", "golden-model", 100, 100, "bb"),
               cell("SC88-B", "hdl-rtl", 100, 100, "bb")]
        self.assertEqual(oracle.check(0, lap, ["SC88-B"]), [])


if __name__ == "__main__":
    unittest.main()
