"""Tests of the benchmark's statistics helpers.

Run: python3 perfbench/test_stats.py
"""

import os
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402


class MedianTest(unittest.TestCase):
    def test_odd_and_even(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)

    def test_single(self):
        self.assertEqual(stats.median([7.5]), 7.5)


class QuartileTest(unittest.TestCase):
    def test_matches_exclusive_method(self):
        # statistics.quantiles' default (exclusive) method on 1..9.
        self.assertEqual(stats.quartiles(range(1, 10)), (2.5, 5.0, 7.5))

    def test_relative_spread(self):
        values = [9, 10, 10, 10, 11]
        q1, _, q3 = stats.quartiles(values)
        self.assertAlmostEqual(stats.relative_spread(values), (q3 - q1) / 10)
        self.assertEqual(stats.relative_spread([5, 5, 5, 5]), 0.0)
        self.assertEqual(stats.relative_spread([0, 0, 0]), 0.0)


class PercentileTest(unittest.TestCase):
    def test_interpolates_between_ranks(self):
        values = list(range(1, 11))  # 1..10
        self.assertEqual(stats.percentile(values, 0), 1)
        self.assertEqual(stats.percentile(values, 100), 10)
        self.assertAlmostEqual(stats.percentile(values, 50), 5.5)
        self.assertAlmostEqual(stats.percentile(values, 90), 9.1)

    def test_unsorted_input_and_single_value(self):
        self.assertAlmostEqual(stats.percentile([10, 1, 5], 50), 5)
        self.assertEqual(stats.percentile([4.0], 90), 4.0)

    def test_rejects_bad_input(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 50)
        with self.assertRaises(ValueError):
            stats.percentile([1, 2], 101)


class TailPercentileTest(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        self.assertIsNone(stats.tail_percentile(19))
        self.assertEqual(stats.tail_percentile(20), 50.0)
        self.assertEqual(stats.tail_percentile(99), 50.0)
        self.assertEqual(stats.tail_percentile(100), 90.0)
        self.assertEqual(stats.tail_percentile(999), 90.0)
        self.assertEqual(stats.tail_percentile(1000), 99.0)
        self.assertEqual(stats.tail_percentile(10000), 99.9)


class QErrorTest(unittest.TestCase):
    def test_symmetric(self):
        self.assertEqual(stats.qerror(10, 100), 10.0)
        self.assertEqual(stats.qerror(100, 10), 10.0)
        self.assertEqual(stats.qerror(42, 42), 1.0)

    def test_zero_is_clamped(self):
        self.assertEqual(stats.qerror(0, 250), 250.0)
        self.assertEqual(stats.qerror(0.1, 250), 250.0)
        self.assertEqual(stats.qerror(5, 0), 5.0)


if __name__ == "__main__":
    unittest.main()
