#!/usr/bin/env python3
"""Tests for the summary math of scripts/perf_ab.py (no git, no runs).

Run with `python3 scripts/tests/perf_ab_test.py` (ctest registers it as
scripts/perf_ab_test).
"""

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
import perf_ab  # noqa: E402

SPEC = [
    {"name": "ops_per_s", "better": "higher", "bound": 0.25},
    {"name": "read_p50_us", "better": "lower", "bound": 0.25},
]


def run(ops=None, read=None, correct=True, attempted=100, failed=0):
    metrics = {}
    if ops is not None:
        metrics["ops_per_s"] = {"value": ops, "unit": "ops/s"}
    if read is not None:
        metrics["read_p50_us"] = {"value": read, "unit": "us"}
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


class QuartileTest(unittest.TestCase):
    def test_inclusive_quartiles(self):
        self.assertEqual(perf_ab.quartiles([1, 2, 3, 4, 5]), (2, 3, 4))
        self.assertEqual(perf_ab.quartiles([4, 1, 3, 2]), (1.75, 2.5, 3.25))

    def test_single_and_empty(self):
        self.assertEqual(perf_ab.quartiles([7]), (7, 7, 7))
        self.assertIsNone(perf_ab.quartiles([]))


class OrderTest(unittest.TestCase):
    def test_sides_alternate(self):
        self.assertEqual(perf_ab.side_order(0), ("base", "head"))
        self.assertEqual(perf_ab.side_order(1), ("head", "base"))
        self.assertEqual(perf_ab.side_order(2), ("base", "head"))


class CompareTest(unittest.TestCase):
    def test_higher_is_better_wins_ties_losses(self):
        c = perf_ab.compare_metric([100, 100, 100, 100], [110, 100, 90, 120], "higher", 0.25)
        self.assertEqual((c["head_wins"], c["ties"], c["head_losses"]), (2, 1, 1))
        self.assertEqual(c["base_median"], 100)
        self.assertEqual(c["head_median"], 105)
        self.assertAlmostEqual(c["change"], 0.05)
        self.assertEqual(c["base_iqr"], 0)
        self.assertFalse(c["worse_than_bound"])

    def test_lower_is_better_direction(self):
        c = perf_ab.compare_metric([10, 10, 10], [8, 9, 11], "lower", 0.25)
        self.assertEqual((c["head_wins"], c["ties"], c["head_losses"]), (2, 0, 1))
        self.assertAlmostEqual(c["change"], -0.1)
        self.assertFalse(c["worse_than_bound"])

    def test_worse_than_bound_per_direction(self):
        slower = perf_ab.compare_metric([10, 10], [13, 13], "lower", 0.25)
        self.assertTrue(slower["worse_than_bound"])
        fewer = perf_ab.compare_metric([100, 100], [70, 70], "higher", 0.25)
        self.assertTrue(fewer["worse_than_bound"])
        at_bound = perf_ab.compare_metric([100, 100], [75, 75], "higher", 0.25)
        self.assertFalse(at_bound["worse_than_bound"])

    def test_spread_wider_than_bound_is_flagged(self):
        c = perf_ab.compare_metric([50, 100, 150, 200], [100, 100, 100, 100], "lower", 0.25)
        self.assertTrue(c["spread_exceeds_bound"])
        self.assertEqual(c["base_iqr"], 75)

    def test_missing_values_drop_their_pair(self):
        c = perf_ab.compare_metric([10, None, 10], [9, 1, None], "lower", 0.25)
        self.assertEqual(c["pairs"], 1)
        self.assertEqual(c["head_wins"], 1)
        self.assertEqual(perf_ab.compare_metric([None], [None], "lower", 0.25), {"pairs": 0})


class SummarizeTest(unittest.TestCase):
    def test_metrics_and_failed_operations(self):
        runs = {
            "base": [run(100, 10), run(110, 12, failed=1), None],
            "head": [run(120, 9), run(100, 10, correct=False, failed=3), run(130, 8)],
        }
        s = perf_ab.summarize(SPEC, runs)
        self.assertEqual(s["metrics"]["ops_per_s"]["pairs"], 2)
        self.assertEqual(s["metrics"]["ops_per_s"]["head_wins"], 1)
        self.assertEqual(s["metrics"]["read_p50_us"]["head_wins"], 2)
        base, head = s["operations"]["base"], s["operations"]["head"]
        self.assertEqual((base["runs"], base["runs_without_result"]), (3, 1))
        self.assertEqual((base["attempted"], base["failed"]), (200, 1))
        self.assertAlmostEqual(base["failed_share"], 0.005)
        self.assertEqual(head["runs_incorrect"], 1)
        self.assertAlmostEqual(head["failed_share"], 0.01)


class MicroTest(unittest.TestCase):
    REPORT = {
        "benchmarks": [
            {"name": "BM_A/5", "run_type": "iteration", "real_time": 2.5, "time_unit": "us"},
            {"name": "BM_A/5_mean", "run_type": "aggregate", "real_time": 9.0,
             "time_unit": "us"},
            {"name": "BM_B", "real_time": 700.0, "time_unit": "ns"},
            {"name": "BM_C", "run_type": "iteration", "real_time": 1.5, "time_unit": "ms"},
        ]
    }

    def test_result_in_ns_without_aggregates(self):
        r = perf_ab.micro_result(self.REPORT)
        self.assertTrue(r["correct"])
        self.assertEqual((r["attempted"], r["failed"]), (0, 0))
        values = {n: m["value"] for n, m in r["metrics"].items()}
        self.assertEqual(values, {"BM_A/5": 2500.0, "BM_B": 700.0, "BM_C": 1.5e6})

    def test_summary_per_benchmark(self):
        def doc(a, b):
            return {"correct": True, "attempted": 0, "failed": 0,
                    "metrics": {"BM_A": {"value": a}, "BM_B": {"value": b}}}
        runs = {"base": [doc(100, 50), doc(110, 50), None],
                "head": [doc(80, 60), doc(90, 58), doc(85, 40)]}
        spec = perf_ab.micro_spec(runs, 0.1)
        self.assertEqual([m["name"] for m in spec], ["BM_A", "BM_B"])
        s = perf_ab.summarize(spec, runs)
        a, b = s["metrics"]["BM_A"], s["metrics"]["BM_B"]
        self.assertEqual((a["pairs"], a["head_wins"], a["head_losses"]), (2, 2, 0))
        self.assertEqual((a["base_median"], a["head_median"], a["base_iqr"]), (105, 85, 5))
        self.assertEqual((b["head_wins"], b["ties"], b["head_losses"]), (0, 0, 2))
        self.assertTrue(b["worse_than_bound"])  # median 59 vs 50, bound 10%
        self.assertEqual(s["operations"]["base"]["runs_without_result"], 1)
        self.assertEqual(s["operations"]["head"]["failed_share"], 0.0)


if __name__ == "__main__":
    unittest.main()
