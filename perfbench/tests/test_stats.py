"""Tests for the benchmark's own statistics and output.

    python3 -m unittest discover -s perfbench/tests
"""

import json
import math
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import run  # noqa: E402
import stats  # noqa: E402


class PercentileSelection(unittest.TestCase):
    def test_rank_is_nearest_rank(self):
        self.assertEqual(stats.rank(1000, 99.0), 990)
        self.assertEqual(stats.rank(999, 99.0), 990)
        self.assertEqual(stats.rank(10, 50.0), 5)
        self.assertEqual(stats.rank(1, 99.0), 1)

    def test_p99_needs_ten_samples_beyond(self):
        t = stats.tail([range(1, 1001)], 99.0)
        self.assertEqual((t.pct, t.n, t.beyond, t.value), (99.0, 1000, 10, 990))

    def test_p99_falls_back_one_sample_short(self):
        # 999 samples leave only 9 beyond p99: the next ladder step is p95.
        t = stats.tail([range(1, 1000)], 99.0)
        self.assertEqual((t.pct, t.n, t.beyond, t.value), (95.0, 999, 49, 950))
        self.assertIn("p99 has fewer than 10 beyond", t.describe(99.0))

    def test_the_smallest_trial_sets_the_percentile(self):
        # p99 suits the 2000-sample trials, but the 999-sample one has only 9
        # samples beyond it, so every trial reports p95 and the median of
        # their p95s is returned.
        t = stats.tail([range(2000), range(999), range(2000), []], 99.0)
        self.assertEqual((t.pct, t.n, t.beyond, t.groups), (95.0, 4999, 49, 3))
        self.assertEqual(t.value, 1899)

    def test_median_over_trials(self):
        t = stats.tail([[x + 100 for x in range(300)], range(300), range(300)], 90.0)
        self.assertEqual((t.pct, t.beyond, t.value), (90.0, 30, 269))
        self.assertEqual(t.describe(90.0),
                         "p90, median of 3 trials; n=900, beyond>=30 per trial")

    def test_unsorted_input(self):
        self.assertEqual(stats.tail([list(range(1000, 0, -1))], 99.0).value, 990)

    def test_too_few_samples_reports_the_median_and_its_shortfall(self):
        t = stats.tail([[5, 1, 3, 2, 4]], 99.0)
        self.assertEqual((t.pct, t.value, t.beyond), (50.0, 3, 2))

    def test_empty(self):
        self.assertIsNone(stats.tail([], 99.0))
        self.assertIsNone(stats.tail([[], []], 99.0))


class MediansAndRates(unittest.TestCase):
    def test_median_of_medians_skips_empty_groups(self):
        med, n, used = stats.median_of_medians([[1, 2, 3], [10], [], [4, 5]])
        self.assertEqual((med, n, used), (4.5, 6, 3))
        self.assertEqual(stats.median_of_medians([[], []]), (None, 0, 0))

    def test_rate_is_ops_over_busy_seconds(self):
        self.assertEqual(stats.rate(1000, 2e9), 500.0)
        self.assertEqual(stats.rate(5, 0), 0.0)

    def test_median_rate_over_trials(self):
        trials = [{"ops": 100, "busy_ns": 1e9}, {"ops": 300, "busy_ns": 1e9},
                  {"ops": 0, "busy_ns": 0}, {"ops": 200, "busy_ns": 1e9}]
        self.assertEqual(stats.median_rate(trials), 200.0)

    def test_ratio_of_no_work_is_zero(self):
        self.assertEqual(stats.ratio(3, 0), 0.0)
        self.assertEqual(stats.ratio(3, 4), 0.75)


class ResultLine(unittest.TestCase):
    def test_exact_keys_and_digits(self):
        line = stats.result_line(True, 12, 0, {"ops_per_s": (1234.5678901234567, "ops/s")})
        d = json.loads(line)
        self.assertEqual(list(d), ["correct", "attempted", "failed", "metrics"])
        self.assertEqual(d["metrics"]["ops_per_s"],
                         {"value": 1234.5678901234567, "unit": "ops/s"})
        self.assertNotIn("\n", line)

    def test_rejects_nothing_attempted_and_nan(self):
        with self.assertRaises(ValueError):
            stats.result_line(True, 0, 0, {})
        with self.assertRaises(ValueError):
            stats.result_line(True, 1, 0, {"x": (math.nan, "s")})


def harness_doc():
    """A minimal harness document of the shape perfbench_harness prints."""
    trial = {"ops": 4, "busy_ns": 4000, "sub": [1000, 3000], "unsub": [],
             "read": [500, 700]}
    return {"setup_s": [0.5, 0.7, 0.6], "trials": [trial, trial], "attempted": 8,
            "failed": 0, "failures": [], "untraced_ops": 8, "traced_ops": 0,
            "untraced_busy_ns": 8000, "traced_busy_ns": 0, "wall_s": 1.0,
            "counters": {"checks": 4, "hits": 1, "footprint_bytes": 800,
                         "live_subs": 8, "subs": 4}}


class Emitter(unittest.TestCase):
    def test_end_to_end_emits_every_metric(self):
        metrics, notes = run.end_to_end(harness_doc(), 90.0)
        self.assertEqual([(k, u) for k, (_, u) in metrics.items()], run.END_TO_END)
        self.assertEqual(metrics["ops_per_s"][0], 1e6)
        self.assertEqual(metrics["sub_p50_us"][0], 2.0)
        self.assertEqual(metrics["hit_rate"][0], 0.25)
        self.assertEqual(metrics["bytes_per_sub"][0], 100.0)
        self.assertEqual(metrics["setup_s"][0], 0.6)
        self.assertIn("n=4", notes["sub_p50_us"])

    def test_per_layer_emits_every_metric(self):
        metrics, _ = run.per_layer(harness_doc(), "index-churn")
        self.assertEqual([(k, u) for k, (_, u) in metrics.items()],
                         [(k, u) for k, u, _ in run.PER_LAYER])

    def test_benchmark_json_matches_the_emitter(self):
        spec = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]], run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         [(k, u) for k, u, _ in run.PER_LAYER])
        for w in spec["workloads"]:
            self.assertIn(w["name"], run.TAIL_PCT)
        for m in spec["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)


if __name__ == "__main__":
    unittest.main()
