"""Unit tests for the benchmark's statistics and span arithmetic.

Run from the repository root:  python3 -m unittest discover -s e2ebench/tests
"""

import os
import statistics
import sys
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))

import stats  # noqa: E402


def span(name, start, end, parent=-1):
    return {"name": name, "start": start, "end": end, "parent": parent}


class QuantileTest(unittest.TestCase):
    def test_interpolates_between_order_statistics(self):
        xs = [4.0, 1.0, 3.0, 2.0]
        self.assertEqual(stats.quantile(xs, 0.0), 1.0)
        self.assertEqual(stats.quantile(xs, 1.0), 4.0)
        self.assertAlmostEqual(stats.quantile(xs, 0.5), 2.5)
        self.assertAlmostEqual(stats.quantile(xs, 0.25), 1.75)

    def test_median_matches_statistics_module(self):
        for xs in ([3.0], [5.0, 1.0], [0.3, 0.1, 0.2, 0.9, 0.4]):
            self.assertAlmostEqual(stats.median(xs), statistics.median(xs))

    def test_quantiles_never_leave_the_observed_range(self):
        xs = [0.683, 0.41, 0.52, 0.6, 0.47]
        for q in (0.5, 0.9, 0.95, 0.99):
            self.assertLessEqual(stats.quantile(xs, q), max(xs))
            self.assertGreaterEqual(stats.quantile(xs, q), min(xs))

    def test_rejects_empty_and_out_of_range(self):
        with self.assertRaises(ValueError):
            stats.quantile([], 0.5)
        with self.assertRaises(ValueError):
            stats.quantile([1.0], 1.5)

    def test_tail_percentile_keeps_ten_samples_beyond(self):
        self.assertIsNone(stats.tail_percentile(list(range(19))))
        pct, value = stats.tail_percentile([float(i) for i in range(100)])
        self.assertEqual(pct, 90)
        self.assertGreaterEqual(sum(1 for i in range(100) if i > value), 10)

    def test_summarize_reports_sample_count(self):
        s = stats.summarize([1.0, 2.0, 3.0])
        self.assertEqual(s["n"], 3)
        self.assertEqual((s["min"], s["median"], s["max"]), (1.0, 2.0, 3.0))


class SpanArithmeticTest(unittest.TestCase):
    def test_covered_merges_overlaps(self):
        self.assertAlmostEqual(stats.covered([(0, 2), (1, 3), (5, 6)]), 4.0)
        self.assertEqual(stats.covered([]), 0.0)

    def test_self_time_subtracts_children(self):
        spans = [span("traced", 0.0, 10.0),
                 span("sim.execute", 1.0, 7.0, 0),
                 span("workloads.instance", 2.0, 3.0, 1)]
        self.assertEqual(stats.self_times(spans), [4.0, 5.0, 1.0])

    def test_self_time_counts_overlapping_children_once(self):
        spans = [span("core.scan_jN", 0.0, 4.0),
                 span("ipm.decode", 1.0, 3.0, 0),
                 span("ipm.decode", 2.0, 3.5, 0)]
        self.assertAlmostEqual(stats.self_times(spans)[0], 1.5)

    def test_children_are_clipped_to_the_parent(self):
        spans = [span("cli.command", 0.0, 2.0), span("ipm.open", 1.5, 3.0, 0)]
        self.assertAlmostEqual(stats.self_times(spans)[0], 1.5)

    def test_ledger_adds_up_to_wall(self):
        spans = [span("traced", 0.0, 10.0),
                 span("workloads.build", 0.0, 1.0, 0),
                 span("sim.execute", 1.0, 8.0, 0),
                 span("ipm.write", 2.0, 3.0, 2),
                 span("bench.glue", 8.0, 9.0, 0)]
        led = stats.ledger(spans)
        self.assertAlmostEqual(led["wall_s"], 10.0)
        self.assertAlmostEqual(led["layers"]["sim"], 6.0)
        self.assertAlmostEqual(led["layers"]["ipm"], 1.0)
        self.assertAlmostEqual(led["unattributed_s"], 2.0)
        self.assertAlmostEqual(led["unattributed_frac"], 0.2)
        self.assertAlmostEqual(sum(led["layers"].values()) + led["unattributed_s"],
                               led["wall_s"])


class OutcomeTest(unittest.TestCase):
    def test_truncated_trace_error_is_a_failure_not_a_crash(self):
        # eiotrace exits 2 on a truncated or corrupt trace.
        self.assertEqual(stats.outcome(2), "error")
        self.assertEqual(stats.outcome(0), "ok")
        self.assertEqual(stats.outcome(-11), "crash")
        self.assertEqual(stats.outcome(139), "crash")


if __name__ == "__main__":
    unittest.main()
