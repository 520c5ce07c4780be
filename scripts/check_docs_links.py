#!/usr/bin/env python3
"""Fail if README/docs reference repo files or CMake targets that don't exist.

Usage:
    check_docs_links.py [--root REPO_ROOT]

Checked documents: README.md and docs/*.md. Three kinds of references are
validated against the working tree:

  1. Relative markdown links [text](path) — the path must exist (anchors,
     absolute URLs and mailto: are skipped).
  2. Inline-code path tokens `like/this.h` — anything in single backticks
     that looks like a repo path (contains '/', plain path charset, no
     globs) must exist. Fenced code blocks are NOT scanned: they hold
     command transcripts and ASCII diagrams, not normative references.
     Paths under build output directories (build*/...) are skipped, and so
     are slash tokens whose first segment is not at the repo root and whose
     last segment has no file extension (benchmark names like BM_Foo/0).
  3. Runnable-target tokens `./name ...` — the leading word names a CMake
     target; it must be producible by the build: the `subcover` library, a
     bench/<name>.cc harness, an examples/<name>.cpp program, or a
     tests/**/<suffix>_test.cc test target (path components joined by '_').

This is the documentation half of the CI gate (the perf half is
scripts/bench_compare.py): docs that drift from the tree fail the build.
"""

import argparse
import pathlib
import re
import sys

MD_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
INLINE_CODE = re.compile(r"`([^`\n]+)`")
PATH_TOKEN = re.compile(r"^[A-Za-z0-9_.][A-Za-z0-9_./-]*$")
FENCE = re.compile(r"^(```|~~~)")


def strip_fences(text):
    out = []
    in_fence = False
    for line in text.splitlines():
        if FENCE.match(line.strip()):
            in_fence = not in_fence
            continue
        if not in_fence:
            out.append(line)
    return "\n".join(out)


def target_exists(root, name):
    if name == "subcover":
        return True
    if (root / "bench" / f"{name}.cc").is_file():
        return True
    if (root / "examples" / f"{name}.cpp").is_file():
        return True
    # tests/sfc/runs_test.cc -> target sfc_runs_test (see CMakeLists.txt).
    for test_src in (root / "tests").rglob("*_test.cc"):
        rel = test_src.relative_to(root / "tests")
        if str(rel.with_suffix("")).replace("/", "_") == name:
            return True
    return False


def check_document(root, doc):
    problems = []
    text = doc.read_text(encoding="utf-8")
    body = strip_fences(text)

    for match in MD_LINK.finditer(body):
        href = match.group(1)
        if href.startswith(("http://", "https://", "mailto:", "#")):
            continue
        target = (doc.parent / href.split("#")[0]).resolve()
        if not target.exists():
            problems.append(f"{doc}: broken link -> {href}")

    for match in INLINE_CODE.finditer(body):
        token = match.group(1).strip()
        if token.startswith("./"):
            name = token[2:].split()[0]
            if not target_exists(root, name):
                problems.append(f"{doc}: unknown CMake target -> ./{name}")
            continue
        if "/" not in token or not PATH_TOKEN.match(token):
            continue
        first = token.split("/", 1)[0]
        if first == "build" or first.startswith("build-"):
            continue  # build-tree outputs (build/, build-asan/) exist only after a build
        last = token.rstrip("/").rsplit("/", 1)[-1]
        if not (root / first).exists() and "." not in last:
            continue  # not a repo path: a benchmark name such as BM_Foo/0
        if not (root / token).exists():
            problems.append(f"{doc}: missing path -> {token}")

    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=None, help="repo root (default: script's parent dir)")
    args = parser.parse_args()
    root = (
        pathlib.Path(args.root).resolve()
        if args.root
        else pathlib.Path(__file__).resolve().parent.parent
    )

    docs = [root / "README.md"] + sorted((root / "docs").glob("*.md"))
    problems = []
    checked = 0
    for doc in docs:
        if not doc.is_file():
            problems.append(f"missing document: {doc}")
            continue
        checked += 1
        problems.extend(check_document(root, doc))

    if problems:
        print(f"FAIL: {len(problems)} stale docs reference(s):", file=sys.stderr)
        for p in problems:
            print(f"  {p}", file=sys.stderr)
        return 1
    print(f"OK: {checked} document(s), all referenced paths and targets exist.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
