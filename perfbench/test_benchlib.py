"""Tests for the benchmark's own arithmetic.

    python3 perfbench/test_benchlib.py
"""

import json
import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import benchlib  # noqa: E402
from benchlib import Span  # noqa: E402


def span(span_id, parent, start, end, name="x", thread=0, minus=0.0):
    return Span(span_id, parent, thread, start, end, minus, name)


class StatisticsTest(unittest.TestCase):
    def test_median_odd_and_even(self):
        self.assertEqual(benchlib.median([3.0, 1.0, 2.0]), 2.0)
        self.assertEqual(benchlib.median([4.0, 1.0, 3.0, 2.0]), 2.5)
        self.assertEqual(benchlib.median([7.5]), 7.5)
        with self.assertRaises(ValueError):
            benchlib.median([])

    def test_percentile_interpolates_between_ranks(self):
        values = [10.0, 20.0, 30.0, 40.0, 50.0]
        self.assertEqual(benchlib.percentile(values, 0), 10.0)
        self.assertEqual(benchlib.percentile(values, 100), 50.0)
        self.assertEqual(benchlib.percentile(values, 50), 30.0)
        self.assertAlmostEqual(benchlib.percentile(values, 95), 48.0)
        self.assertAlmostEqual(benchlib.percentile([1.0, 2.0], 25), 1.25)
        self.assertEqual(benchlib.percentile([5.0], 99), 5.0)
        with self.assertRaises(ValueError):
            benchlib.percentile(values, 101)


def report(classes, accepted_tally=None):
    tally = {"pass": 0, "degenerate_retry": 0, "skipped": 0}
    for name in classes:
        tally[name] = tally.get(name, 0) + 1
    if accepted_tally is not None:
        tally["pass"] = accepted_tally
    return json.dumps({
        "classifier": tally,
        "cells": [{"id": "c%d" % i, "class": name}
                  for i, name in enumerate(classes)],
    }).encode()


class ReportCheckTest(unittest.TestCase):
    def test_clean_run_fails_nothing(self):
        self.assertEqual(benchlib.failed_cells(0, report(["pass"] * 3), 3),
                         (0, 0))

    def test_nonzero_exit_fails_every_cell(self):
        self.assertEqual(benchlib.failed_cells(1, report(["pass"] * 3), 3),
                         (3, 0))
        self.assertEqual(benchlib.failed_cells(75, b"", 3), (3, 0))

    def test_non_pass_class_fails_that_cell(self):
        self.assertEqual(
            benchlib.failed_cells(0, report(["pass", "skipped", "pass"]), 3),
            (1, 0))

    def test_degenerate_retry_is_counted_not_failed(self):
        self.assertEqual(
            benchlib.failed_cells(
                0, report(["pass", "degenerate_retry", "pass"]), 3),
            (0, 1))

    def test_report_differing_from_reference_fails_every_cell(self):
        first = report(["pass"] * 2)
        self.assertEqual(benchlib.failed_cells(0, first, 2, first), (0, 0))
        self.assertEqual(
            benchlib.failed_cells(0, first + b" ", 2, first), (2, 0))

    def test_malformed_or_inconsistent_report_fails_every_cell(self):
        self.assertEqual(benchlib.failed_cells(0, b"{not json", 2), (2, 0))
        self.assertEqual(benchlib.failed_cells(0, report(["pass"]), 2),
                         (2, 0))
        self.assertEqual(
            benchlib.failed_cells(0, report(["pass", "pass"], 1), 2), (2, 0))

    def test_cells_failed_frac(self):
        # One run of 39 cells exited non-zero, one had a skipped cell.
        failed = (benchlib.failed_cells(1, b"", 39)[0] +
                  benchlib.failed_cells(0, report(["pass"] * 38 +
                                                  ["skipped"]), 39)[0])
        self.assertEqual(failed, 40)
        self.assertAlmostEqual(benchlib.cells_failed_frac(failed, 78),
                               40 / 78)
        self.assertEqual(benchlib.cells_failed_frac(0, 0), 0.0)


class SelfTimeTest(unittest.TestCase):
    def test_nested_children_on_one_thread_sum_to_root(self):
        spans = [
            span(1, 0, 0.0, 100.0),
            span(2, 1, 10.0, 40.0),
            span(3, 2, 20.0, 30.0),
            span(4, 1, 50.0, 90.0),
            span(5, 4, 50.0, 90.0),  # covers its parent completely
        ]
        selfs = benchlib.self_times(spans)
        self.assertEqual(selfs, {1: 30.0, 2: 20.0, 3: 10.0, 4: 0.0,
                                 5: 40.0})
        self.assertAlmostEqual(sum(selfs.values()), 100.0)

    def test_children_on_other_threads_never_make_negative_self_time(self):
        spans = [
            span(1, 0, 0.0, 100.0, thread=0),
            span(2, 1, 0.0, 80.0, thread=1),
            span(3, 1, 10.0, 90.0, thread=2),
            span(4, 1, 20.0, 60.0, thread=3),
            span(5, 1, 95.0, 130.0, thread=1),  # outlives its parent
        ]
        selfs = benchlib.self_times(spans)
        # Overlapping children cover [0, 90] and [95, 100] once.
        self.assertAlmostEqual(selfs[1], 5.0)
        self.assertTrue(all(value >= 0.0 for value in selfs.values()))
        self.assertAlmostEqual(selfs[5], 35.0)

    def test_minus_share_is_subtracted_and_clamped(self):
        spans = [span(1, 0, 0.0, 10.0, minus=4.0),
                 span(2, 0, 0.0, 10.0, minus=25.0)]
        self.assertEqual(benchlib.self_times(spans), {1: 6.0, 2: 0.0})

    def test_layer_rollup(self):
        spans = [
            span(1, 0, 0.0, 10.0, "bench.slice"),
            span(2, 1, 0.0, 2.0, "detect.outliers-if"),
            span(3, 1, 2.0, 5.0, "repair", minus=2.0),
            span(4, 1, 5.0, 9.0, "ml.tune.knn"),
            span(5, 1, 9.0, 10.0, "detect.outliers-if"),
        ]
        seconds, counts = benchlib.layer_rollup(spans)
        self.assertEqual(seconds, {"detect.outliers-if_s": 3.0,
                                   "repair.s": 1.0, "ml.tune.knn_s": 4.0})
        self.assertEqual(counts, {"detect.calls": 2, "repair.calls": 1})


if __name__ == "__main__":
    unittest.main()
