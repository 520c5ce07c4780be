#!/usr/bin/env python3
"""Tests for scripts/bench_compare.py's baseline-coverage gate.

The fixture is a full run and a truncated copy of it as the baseline — the
shape of a filtered micro_benchmark run committed as the archive. Run with
`python3 scripts/tests/bench_compare_test.py` (ctest registers it as
scripts/bench_compare_test).
"""

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "bench_compare.py"


def bench(name, real_time=100.0):
    return {"name": name, "run_type": "iteration", "real_time": real_time, "time_unit": "ns"}


FULL = [
    bench("BM_ZCurveKey"),
    bench("BM_SkiplistProbe/1000"),
    bench("BM_SkiplistProbe/100000"),
    bench("BM_RecoveryReplay/512"),
]
# The truncated baseline keeps one family of the full run.
TRUNCATED = [bench("BM_ZCurveKey")]


class BaselineCoverageTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.dir = Path(self.tmp.name)

    def tearDown(self):
        self.tmp.cleanup()

    def run_gate(self, baseline, current, *args):
        base = self.dir / "base.json"
        cur = self.dir / "cur.json"
        base.write_text(json.dumps({"benchmarks": baseline}))
        cur.write_text(json.dumps({"benchmarks": current}))
        return subprocess.run(
            [sys.executable, str(SCRIPT), str(base), str(cur), *args],
            capture_output=True,
            text=True,
        )

    def test_full_baseline_passes(self):
        r = self.run_gate(FULL, FULL, "--require", "BM_RecoveryReplay")
        self.assertEqual(r.returncode, 0, r.stderr)

    def test_truncated_baseline_fails(self):
        r = self.run_gate(TRUNCATED, FULL)
        self.assertEqual(r.returncode, 1)
        self.assertIn("absent from the baseline", r.stderr)
        self.assertIn("BM_SkiplistProbe", r.stderr)
        self.assertIn("BM_RecoveryReplay", r.stderr)

    def test_required_family_missing_from_baseline_fails(self):
        # The current run is filtered to the same family as the baseline, so
        # only --require can notice that the baseline lacks the pinned one.
        r = self.run_gate(TRUNCATED, TRUNCATED, "--require", "BM_RecoveryReplay")
        self.assertEqual(r.returncode, 1)
        self.assertIn("BM_RecoveryReplay", r.stderr)

    def test_allow_new_opts_out_per_family(self):
        r = self.run_gate(TRUNCATED, FULL, "--allow-new", "BM_SkiplistProbe")
        self.assertEqual(r.returncode, 1)
        self.assertNotIn("BM_SkiplistProbe", r.stderr)
        r = self.run_gate(
            TRUNCATED, FULL, "--allow-new", "BM_SkiplistProbe", "--allow-new", "BM_Recovery"
        )
        self.assertEqual(r.returncode, 0, r.stderr)

    def test_baseline_missing_one_argument_fails(self):
        # The family is present in the baseline, but not at every argument:
        # the million-subscription run would be compared against nothing.
        full = [bench("BM_ChurnErase/1000/1"), bench("BM_ChurnErase/1000000/1")]
        r = self.run_gate(full[:1], full)
        self.assertEqual(r.returncode, 1)
        self.assertIn("absent from the baseline", r.stderr)
        self.assertIn("BM_ChurnErase/1000000/1", r.stderr)
        r = self.run_gate(full[:1], full, "--allow-new", "BM_ChurnErase/1000000")
        self.assertEqual(r.returncode, 0, r.stderr)

    def test_retired_family_still_passes(self):
        # Dropping a family from the current run is not a coverage hole.
        r = self.run_gate(FULL, TRUNCATED)
        self.assertEqual(r.returncode, 0, r.stderr)


if __name__ == "__main__":
    unittest.main()
