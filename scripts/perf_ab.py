#!/usr/bin/env python3
"""Interleaved A/B of the end-to-end benchmark between two git refs.

    python3 scripts/perf_ab.py --base HEAD~1 --head HEAD --workload broker-net --pairs 10
    python3 scripts/perf_ab.py --base HEAD~1 --head HEAD --micro BM_CoveringCheck --pairs 10

Each ref (any tree-ish: a commit, a branch, or a tree id from
`git write-tree`) is extracted with `git archive` into its own temporary
directory, and `python3 perfbench/run.py` runs there with its own
CARGO_TARGET_DIR, so each side builds and runs exactly its own committed
files. Pairs alternate which side runs first (pair 0 base first, pair 1
head first, ...), so slow drift of the host lands on both sides.

Prints one JSON document: per end-to-end metric of BENCHMARK.json, each
side's median and quartiles, the base's IQR, the relative change of the
medians, head wins / ties / losses over the pairs, and whether the head's
median is worse than the base's by more than the metric's bound; per side,
failed and attempted operation counts; and every run's raw values. Exits 1
if any run failed to produce a result or reported incorrect output.
Nothing under perfbench/ or BENCHMARK.json is modified.

With --micro FILTER, each side instead builds its own bench/micro_benchmark
and a run is one `micro_benchmark --benchmark_filter=FILTER` pass. The
report has the same shape, with one metric per benchmark: its real time in
ns (lower is better, judged against MICRO_BOUND).
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# --micro runs: seconds per benchmark (--benchmark_min_time), and the
# relative worsening flagged per benchmark, the end-to-end bounds' value.
MICRO_MIN_TIME = 0.2
MICRO_BOUND = 0.25


def quartiles(values):
    """(q1, median, q3) of `values`, inclusive method; a single value is
    its own quartiles."""
    if not values:
        return None
    if len(values) == 1:
        return (values[0], values[0], values[0])
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return (q1, q2, q3)


def side_order(pair):
    """Which side runs first in pair `pair`: base on even pairs."""
    return ("base", "head") if pair % 2 == 0 else ("head", "base")


def compare_metric(base, head, better, bound):
    """Summary of one metric over paired runs: base[i] and head[i] come from
    pair i (a run without a value is None and drops its pair)."""
    pairs = [(b, h) for b, h in zip(base, head) if b is not None and h is not None]
    bv = [b for b, _ in pairs]
    hv = [h for _, h in pairs]
    if not pairs:
        return {"pairs": 0}
    bq = quartiles(bv)
    hq = quartiles(hv)
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for b, h in pairs if sign * (h - b) > 0)
    ties = sum(1 for b, h in pairs if h == b)
    base_med = bq[1]
    change = (hq[1] - base_med) / base_med if base_med != 0 else 0.0
    # Relative worsening of the head's median: positive = worse.
    worse_by = -sign * change
    iqr = bq[2] - bq[0]
    return {
        "pairs": len(pairs),
        "better": better,
        "bound": bound,
        "base_median": base_med,
        "base_q1": bq[0],
        "base_q3": bq[2],
        "base_iqr": iqr,
        "head_median": hq[1],
        "head_q1": hq[0],
        "head_q3": hq[2],
        "change": change,
        "head_wins": wins,
        "ties": ties,
        "head_losses": len(pairs) - wins - ties,
        "worse_than_bound": worse_by > bound,
        # The base's own spread is wider than the bound: a median within
        # the bound does not show the metric unchanged.
        "spread_exceeds_bound": base_med != 0 and iqr / abs(base_med) > bound,
    }


def summarize(spec, runs):
    """`spec`: BENCHMARK.json's end_to_end list. `runs`: {"base": [...],
    "head": [...]}, one entry per pair, each a run.py result document
    ({"correct", "attempted", "failed", "metrics": {name: {"value"}}}) or
    None for a run that produced none."""
    def values(side, name):
        out = []
        for r in runs[side]:
            m = (r or {}).get("metrics", {}).get(name)
            out.append(None if m is None else m["value"])
        return out

    metrics = {
        m["name"]: compare_metric(values("base", m["name"]), values("head", m["name"]),
                                  m["better"], m["bound"])
        for m in spec
    }
    ops = {}
    for side in ("base", "head"):
        done = [r for r in runs[side] if r is not None]
        attempted = sum(r["attempted"] for r in done)
        failed = sum(r["failed"] for r in done)
        ops[side] = {
            "runs": len(runs[side]),
            "runs_without_result": len(runs[side]) - len(done),
            "runs_incorrect": sum(1 for r in done if not r["correct"]),
            "attempted": attempted,
            "failed": failed,
            "failed_share": failed / attempted if attempted else 0.0,
        }
    return {"metrics": metrics, "operations": ops}


def extract(ref, dest):
    """Writes the files of tree-ish `ref` into `dest`."""
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", ref],
                             stdout=subprocess.PIPE, check=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout, check=True)


def micro_result(doc):
    """A Google Benchmark JSON report as a run document: one metric per
    benchmark (aggregate rows skipped), its real time in ns."""
    scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}
    metrics = {}
    for b in doc.get("benchmarks", []):
        if b.get("run_type", "iteration") != "iteration":
            continue
        metrics[b["name"]] = {"value": b["real_time"] * scale[b.get("time_unit", "ns")],
                              "unit": "ns"}
    return {"correct": True, "attempted": 0, "failed": 0, "metrics": metrics}


def micro_spec(runs, bound):
    """End-to-end-style metric specs for every benchmark any run reported."""
    names = sorted({n for side in runs.values() for r in side if r for n in r["metrics"]})
    return [{"name": n, "better": "lower", "bound": bound} for n in names]


def build_micro(tree, target):
    """Configures and builds `tree`'s micro_benchmark into `target`."""
    subprocess.run(["cmake", "-S", str(tree), "-B", str(target), "-DCMAKE_BUILD_TYPE=Release",
                    "-DSUBCOVER_BUILD_TESTS=OFF", "-DSUBCOVER_BUILD_EXAMPLES=OFF"],
                   stdout=subprocess.DEVNULL, check=True)
    subprocess.run(["cmake", "--build", str(target), "--target", "micro_benchmark", "-j", "2"],
                   stdout=subprocess.DEVNULL, check=True)


def run_micro_once(tree, target, args):
    """One micro_benchmark pass; returns its run document or None."""
    cmd = [str(target / "micro_benchmark"), "--benchmark_filter=" + args.micro,
           "--benchmark_min_time=%g" % MICRO_MIN_TIME, "--benchmark_format=json"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        return micro_result(json.loads(proc.stdout))
    except (json.JSONDecodeError, KeyError):
        print("perf_ab: %s gave no result: %s" % (tree.name, proc.stderr.strip()),
              file=sys.stderr)
        return None


def run_once(tree, target, args):
    """One perfbench/run.py invocation; returns its result document or None."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        print("perf_ab: %s gave no result: %s" % (tree.name, proc.stderr.strip()),
              file=sys.stderr)
        return None


def main(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", required=True, help="tree-ish of the parent side")
    p.add_argument("--head", required=True, help="tree-ish of the change side")
    p.add_argument("--workload", help="a BENCHMARK.json workload")
    p.add_argument("--micro", metavar="FILTER",
                   help="A/B micro_benchmark families matching FILTER instead of a workload")
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seed", type=int, default=7919)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--workdir", help="where the trees and builds go (default: a temp dir)")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    if (args.workload is None) == (args.micro is None):
        p.error("give exactly one of --workload and --micro")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    work = Path(tempfile.mkdtemp(prefix="perf_ab_", dir=args.workdir))
    runs = {"base": [], "head": []}
    try:
        trees = {}
        for side in ("base", "head"):
            trees[side] = work / side
            extract(getattr(args, side), trees[side])
            if args.micro is not None:
                build_micro(trees[side], work / ("build-" + side))
        once = run_once if args.micro is None else run_micro_once
        for pair in range(args.pairs):
            for side in side_order(pair):
                result = once(trees[side], work / ("build-" + side), args)
                runs[side].append(result)
                print("perf_ab: pair %d %s %s" % (pair, side,
                      "ok" if result and result["correct"] else "FAILED"), file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.micro is None:
        report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds}
    else:
        report = {"micro": args.micro, "min_time": MICRO_MIN_TIME}
        spec = micro_spec(runs, MICRO_BOUND)
    report.update({"base": args.base, "head": args.head, "pairs": args.pairs})
    report.update(summarize(spec, runs))
    report["runs"] = {
        side: [None if r is None else {m: v["value"] for m, v in r["metrics"].items()}
               for r in runs[side]]
        for side in runs
    }
    print(json.dumps(report, indent=2))
    ops = report["operations"]
    bad = any(ops[s]["runs_without_result"] or ops[s]["runs_incorrect"] for s in ops)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
