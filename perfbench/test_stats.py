"""Self-tests of the benchmark's statistics helpers and of its metric
list against BENCHMARK.json.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import pathlib
import sys
import unittest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
import run  # noqa: E402
import stats  # noqa: E402


class NearestRank(unittest.TestCase):
    def test_rank_is_ceil_of_q_times_n(self):
        values = list(range(10, 0, -1))  # unsorted on purpose
        self.assertEqual(stats.nearest_rank(values, 0.5), (5, 10, 5))
        self.assertEqual(stats.nearest_rank(values, 0.9), (9, 10, 1))
        self.assertEqual(stats.nearest_rank(values, 1.0), (10, 10, 0))
        self.assertEqual(stats.nearest_rank([7.0], 0.5), (7.0, 1, 0))

    def test_exact_products_do_not_round_up(self):
        # 0.9 * 100 is 90.00000000000001 in binary floating point.
        value, n, beyond = stats.nearest_rank(list(range(1, 101)), 0.9)
        self.assertEqual((value, n, beyond), (90, 100, 10))

    def test_rejects_empty_and_bad_quantiles(self):
        with self.assertRaises(ValueError):
            stats.nearest_rank([], 0.5)
        with self.assertRaises(ValueError):
            stats.nearest_rank([1, 2], 0.0)
        with self.assertRaises(ValueError):
            stats.nearest_rank([1, 2], 1.5)


class TenBeyondRule(unittest.TestCase):
    def test_p90_needs_a_hundred_samples(self):
        p = stats.reportable_percentile(list(range(1, 101)), 0.9)
        self.assertEqual(p, {"value": 90, "n": 100, "beyond": 10})
        self.assertIsNone(stats.reportable_percentile(list(range(1, 100)), 0.9))

    def test_median_needs_twenty(self):
        self.assertIsNotNone(stats.reportable_percentile(range(20), 0.5))
        self.assertIsNone(stats.reportable_percentile(list(range(19)), 0.5))

    def test_custom_threshold(self):
        self.assertIsNotNone(
            stats.reportable_percentile(list(range(10)), 0.9, min_beyond=1))


class DueTimeLatency(unittest.TestCase):
    def test_lag_plus_service_time(self):
        self.assertAlmostEqual(stats.job_latency(1.0, 1.25, 0.5), 0.75)

    def test_on_time_submit_is_service_time(self):
        self.assertEqual(stats.job_latency(2.0, 2.0, 0.125), 0.125)

    def test_backpressure_wait_counts(self):
        # Due at 1.0, first tried at 1.001, refused kQueueFull until the
        # call that began at 1.3 was accepted; the service then took 0.2 s
        # from inside that call. The client waited from 1.0 to 1.5.
        due, first_try, accepted, wall = 1.0, 1.001, 1.3, 0.2
        self.assertAlmostEqual(stats.job_latency(due, accepted, wall), 0.5)
        self.assertGreater(stats.job_latency(due, accepted, wall),
                           (first_try - due) + wall)

    def test_submit_before_due_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.job_latency(1.0, 0.999, 0.1)


class WindowMedian(unittest.TestCase):
    def test_median_of_the_window_only(self):
        steps = [9.0, 9.0, 1.0, 3.0, 2.0, 100.0]
        self.assertEqual(stats.window_median(steps, 2, 3), 2.0)
        self.assertEqual(stats.window_median(steps, 2, 4), 2.5)

    def test_short_run_raises(self):
        with self.assertRaises(ValueError):
            stats.window_median([1.0, 2.0, 3.0], 1, 3)
        with self.assertRaises(ValueError):
            stats.window_median([1.0], 0, 0)

    def test_min_of_the_window_only(self):
        steps = [0.5, 9.0, 3.0, 2.0, 4.0, 0.1]
        self.assertEqual(stats.window_min(steps, 1, 4), 2.0)
        with self.assertRaises(ValueError):
            stats.window_min(steps, 3, 4)

    def test_cycle_rate_counts_every_step_of_a_cycle(self):
        steps = [5.0, 5.0] + [1.0, 1.0, 1.0, 3.0] * 2 + [0.5, 0.5, 0.5, 0.5]
        # cycles of 6 s, 6 s, 2 s -> rates 4/6, 4/6, 2 -> median 4/6
        self.assertAlmostEqual(stats.cycle_rate(steps, 2, 12, 4), 4 / 6)
        with self.assertRaises(ValueError):
            stats.cycle_rate(steps, 2, 10, 4)


class Contract(unittest.TestCase):
    def setUp(self):
        path = pathlib.Path(__file__).resolve().parent.parent / "BENCHMARK.json"
        self.bench = json.loads(path.read_text())

    def test_metric_lists_match_run_py(self):
        e2e = {m["name"]: m["unit"] for m in self.bench["end_to_end"]}
        layer = {m["name"]: m["unit"] for m in self.bench["per_layer"]}
        self.assertEqual(e2e, run.END_TO_END)
        self.assertEqual(layer, run.PER_LAYER)

    def test_workloads_are_run_py_workloads(self):
        names = {w["name"] for w in self.bench["workloads"]}
        self.assertLessEqual(names, set(run.WORKLOADS))
        self.assertGreaterEqual(len(names), 2)

    def test_bounds(self):
        bounds = {m["name"]: m["bound"] for m in self.bench["end_to_end"]}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))


if __name__ == "__main__":
    unittest.main()
