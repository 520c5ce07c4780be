#!/usr/bin/env python3
"""Tests for scripts/check_docs_links.py's inline path tokens.

Each case builds a throwaway repo root with one README.md and runs the
checker on it. Run with `python3 scripts/tests/check_docs_links_test.py`
(ctest registers it as scripts/check_docs_links_test).
"""

import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "check_docs_links.py"


def run_on(readme):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "docs").mkdir()
        (root / "src").mkdir()
        (root / "src" / "x.h").write_text("")
        (root / "README.md").write_text(readme)
        return subprocess.run(
            [sys.executable, str(SCRIPT), "--root", str(root)],
            capture_output=True,
            text=True,
        )


class CheckDocsLinksTest(unittest.TestCase):
    def test_benchmark_name_is_skipped(self):
        r = run_on("See `BM_NetworkThroughput/0` and `src/x.h`.\n")
        self.assertEqual(r.returncode, 0, r.stderr)

    def test_missing_repo_path_is_flagged(self):
        r = run_on("See `src/missing/thing`.\n")
        self.assertEqual(r.returncode, 1)
        self.assertIn("src/missing/thing", r.stderr)

    def test_missing_path_with_extension_is_flagged(self):
        r = run_on("See `srcc/x.h`.\n")
        self.assertEqual(r.returncode, 1)
        self.assertIn("srcc/x.h", r.stderr)

    def test_build_outputs_are_skipped(self):
        r = run_on("See `build/quickstart` and `build-asan/x.h`.\n")
        self.assertEqual(r.returncode, 0, r.stderr)


if __name__ == "__main__":
    unittest.main()
