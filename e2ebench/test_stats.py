#!/usr/bin/env python3
"""Tests of the benchmark's own statistics: python3 e2ebench/test_stats.py"""

import os
import statistics
import sys
import unittest

sys.dont_write_bytecode = True  # keep the source tree clean
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402


class MedianAndQuartiles(unittest.TestCase):
    def test_median_odd_and_even(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)

    def test_quartiles_match_statistics_quantiles(self):
        values = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0]
        q1, q2, q3 = stats.quartiles(values)
        self.assertEqual([q1, q2, q3], statistics.quantiles(values, n=4))
        self.assertEqual(q2, 5.5)

    def test_single_value_is_its_own_quartiles(self):
        self.assertEqual(stats.quartiles([2.5]), (2.5, 2.5, 2.5))
        self.assertEqual(stats.spread([2.5]), 0.0)

    def test_spread_is_iqr_over_median(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(stats.spread(values), (q3 - q1) / q2)


class TailPercentile(unittest.TestCase):
    def test_too_few_samples_support_no_percentile(self):
        self.assertIsNone(stats.tail(list(range(19))))

    def test_twenty_samples_support_the_median(self):
        p, value = stats.tail([float(i) for i in range(20)])
        self.assertEqual(p, 50.0)
        self.assertAlmostEqual(value, 9.5)

    def test_highest_supported_percentile(self):
        self.assertEqual(stats.tail(list(range(100)))[0], 90.0)
        self.assertEqual(stats.tail(list(range(199)))[0], 90.0)
        self.assertEqual(stats.tail(list(range(200)))[0], 95.0)
        self.assertEqual(stats.tail(list(range(1000)))[0], 99.0)
        self.assertEqual(stats.tail(list(range(10000)))[0], 99.9)

    def test_at_least_ten_samples_lie_beyond(self):
        for n in (20, 39, 40, 57, 100, 250, 1001, 12345):
            values = [float(i) for i in range(n)]
            p, value = stats.tail(values)
            self.assertGreaterEqual(sum(1 for v in values if v >= value), 10, n)

    def test_percentile_interpolates(self):
        self.assertAlmostEqual(stats.percentile([0.0, 10.0], 25), 2.5)
        self.assertEqual(stats.percentile([1.0, 2.0, 3.0], 100), 3.0)

    def test_summary_reports_sample_count(self):
        s = stats.summary([1.0, 2.0, 3.0])
        self.assertEqual(s["samples"], 3)
        self.assertEqual(s["median"], 2.0)
        self.assertIsNone(s["tail"])


class BoundCheck(unittest.TestCase):
    def test_worsening_direction(self):
        self.assertAlmostEqual(stats.worsening(10.0, 11.0, "lower"), 0.1)
        self.assertAlmostEqual(stats.worsening(10.0, 9.0, "higher"), 0.1)
        self.assertAlmostEqual(stats.worsening(10.0, 11.0, "higher"), -0.1)
        with self.assertRaises(ValueError):
            stats.worsening(1.0, 1.0, "sideways")

    def test_steady_runs_pass(self):
        a = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]
        b = [x * 1.02 for x in a]
        ok, detail = stats.check_bound(a, b, 0.1, "lower")
        self.assertTrue(ok)
        self.assertAlmostEqual(detail["worsening"], 0.02)

    def test_regression_beyond_bound_fails(self):
        a = [10.0] * 9 + [10.1]
        ok, _ = stats.check_bound(a, [x * 1.2 for x in a], 0.1, "lower")
        self.assertFalse(ok)
        ok, _ = stats.check_bound(a, [x * 0.8 for x in a], 0.1, "higher")
        self.assertFalse(ok)

    def test_improvement_passes(self):
        a = [10.0] * 9 + [10.1]
        ok, _ = stats.check_bound(a, [x * 0.5 for x in a], 0.1, "lower")
        self.assertTrue(ok)

    def test_wide_spread_fails(self):
        wide = [5.0, 10.0, 15.0, 10.0, 6.0, 14.0, 10.0, 7.0, 13.0, 10.0]
        self.assertFalse(stats.check_bound(wide, wide, 0.25, "lower")[0])


class SelfTime(unittest.TestCase):
    @staticmethod
    def span(sid, parent, layer, start, end):
        return {"id": sid, "parent": parent, "layer": layer, "start": start, "end": end}

    def test_children_are_subtracted_once(self):
        spans = [
            self.span(1, 0, "scenario", 0.0, 10.0),
            # Two overlapping children (concurrent rounds) cover [1, 5].
            self.span(2, 1, "round", 1.0, 4.0),
            self.span(3, 1, "round", 2.0, 5.0),
            # A child poking past its parent is clipped.
            self.span(4, 1, "graph", 9.0, 12.0),
        ]
        out = stats.self_times(spans)
        self.assertAlmostEqual(out["scenario"], 10.0 - 4.0 - 1.0)
        self.assertAlmostEqual(out["round"], 6.0)
        self.assertAlmostEqual(out["graph"], 3.0)

    def test_roots_keep_their_duration(self):
        out = stats.self_times([self.span(1, 0, "io", 2.0, 2.5)])
        self.assertAlmostEqual(out["io"], 0.5)


if __name__ == "__main__":
    unittest.main()
