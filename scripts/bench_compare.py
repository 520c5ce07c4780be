#!/usr/bin/env python3
"""Compare two google-benchmark JSON files and fail on per-op regressions.

Usage:
    bench_compare.py BASELINE.json CURRENT.json [--threshold 0.10]
                     [--bytes-threshold 0.10] [--compression-floor 3.0]
                     [--counters-only] [--require PREFIX ...]
                     [--allow-new PREFIX ...]

For every benchmark present in both files, the per-op real_time of CURRENT
is compared against BASELINE; the script exits non-zero if any benchmark is
more than THRESHOLD slower (default +10%). Throughput benchmarks — those
reporting items_per_second, e.g. the BM_NetworkThroughput family, whose
per-iteration real_time tracks a whole workload rather than one op — are
gated on items/sec instead: a drop of more than THRESHOLD fails. A
benchmark present only in BASELINE is reported as retired and does not
fail the run; one present only in CURRENT fails it (see baseline coverage
below). Improvements are reported for the perf trajectory.

Bytes gating: benchmarks reporting a `bytes_per_sub` counter (the
BM_MemoryFootprint family) are additionally gated on that counter — growth
beyond BYTES_THRESHOLD vs the baseline fails. Bytes are deterministic
(structure audits, not timings), so this gate is meaningful even on
unoptimized builds: `--counters-only` skips every timing gate and checks
only the bytes counters, which is what the CI memory-footprint smoke job
runs against a Debug binary.

Required families: `--require PREFIX` (repeatable) fails the run unless
both CURRENT and BASELINE contain at least one benchmark whose name starts
with PREFIX. A family that silently stops being built (a glob miss, an
#ifdef, a renamed registration) would otherwise drop out of the gate
unnoticed — --require pins the families CI depends on, e.g. --require
BM_RecoveryReplay.

Baseline coverage: every benchmark in CURRENT must also appear in
BASELINE under the same name, or its timings are compared against nothing.
A truncated baseline — a filtered run committed as the archive, or one
that lacks a single argument of a family (BM_ChurnErase/1000000/1 while
BM_ChurnErase/1000/1 is present) — therefore fails the gate instead of
passing it vacuously. `--allow-new PREFIX` (repeatable) is the explicit
opt-out for benchmarks a change adds before the archive is refreshed.

Compression floor: within CURRENT alone, each BM_MemoryFootprint width pair
(`.../<bits>/0` = materialized resident array, `.../<bits>/1` = compressed
tier) must satisfy resident / tiered >= COMPRESSION_FLOOR (default 3.0) —
the cold tier's storage headline. Set --compression-floor 0 to disable.

Churn floor: within CURRENT alone, at the largest BM_ChurnErase size present
(the million-subscription scale), deferred-tombstone erase (`.../1`) must
sustain at least CHURN_FLOOR x the naive eager-compaction erase (`.../0`)
items/sec (default 10.0) — the amortized-O(1) erase headline. Timing-based,
so skipped under --counters-only; set --churn-floor 0 to disable.

This is the regression gate of the repo's perf tracking: CI runs
micro_benchmark, then compares the fresh output against the committed
BENCH_micro.json (the per-PR archived run; see ROADMAP.md).
"""

import argparse
import json
import re
import sys


def load(path):
    with open(path) as f:
        data = json.load(f)
    out = {}
    for b in data.get("benchmarks", []):
        # Skip aggregate rows (mean/median/stddev of repetitions).
        if b.get("run_type") == "aggregate":
            continue
        ips = b.get("items_per_second")
        bps = b.get("bytes_per_sub")
        out[b["name"]] = {
            "real_time": float(b["real_time"]),
            "time_unit": b.get("time_unit", "ns"),
            "items_per_second": float(ips) if ips is not None else None,
            "bytes_per_sub": float(bps) if bps is not None else None,
        }
    return out


def gate_baseline_coverage(base, cur, required, allow_new):
    """Benchmarks CURRENT has (plus the required prefixes) that BASELINE
    lacks, excluding those matching an --allow-new prefix."""
    missing = {
        n for n in cur if n not in base and not any(n.startswith(p) for p in allow_new)
    }
    missing.update(
        p
        for p in required
        if not any(n.startswith(p) for n in base) and not any(p.startswith(a) for a in allow_new)
    )
    return sorted(missing)


def slowdown_ratio(base, cur):
    """Slowdown of `cur` vs `base` (> 1 means worse), on the benchmark's
    declared metric: items/sec when both runs report it, per-op time
    otherwise."""
    if base["items_per_second"] and cur["items_per_second"]:
        return base["items_per_second"] / cur["items_per_second"], "items/s"
    if base["real_time"] <= 0:
        return float("inf"), "time"
    return cur["real_time"] / base["real_time"], "time"


def gate_times(base, cur, threshold):
    """The classic per-op timing gate. Returns the failure list."""
    regressions = []
    rows = []
    for name in sorted(set(base) | set(cur)):
        if name not in base:
            rows.append((name, None, cur[name]["real_time"], None, "new"))
            continue
        if name not in cur:
            rows.append((name, base[name]["real_time"], None, None, "retired"))
            continue
        ratio, metric = slowdown_ratio(base[name], cur[name])
        b, c = base[name]["real_time"], cur[name]["real_time"]
        status = "ok"
        if ratio > 1.0 + threshold:
            status = f"REGRESSION ({metric})"
            regressions.append((name, b, c, ratio))
        elif ratio < 1.0 - threshold:
            status = "improved"
        rows.append((name, b, c, ratio, status))

    width = max((len(r[0]) for r in rows), default=20)
    print(f"{'benchmark':{width}s} {'baseline':>14s} {'current':>14s} {'ratio':>8s}  status")
    for name, b, c, ratio, status in rows:
        bs = f"{b:14.1f}" if b is not None else f"{'-':>14s}"
        cs = f"{c:14.1f}" if c is not None else f"{'-':>14s}"
        rs = f"{ratio:8.3f}" if ratio is not None else f"{'-':>8s}"
        print(f"{name:{width}s} {bs} {cs} {rs}  {status}")
    return regressions


def gate_bytes(base, cur, threshold):
    """Gate bytes_per_sub counters: cur may not grow past baseline by more
    than `threshold` (lower is better; shrinkage never fails)."""
    regressions = []
    names = sorted(
        n
        for n in set(base) & set(cur)
        if base[n]["bytes_per_sub"] is not None and cur[n]["bytes_per_sub"] is not None
    )
    if not names:
        return regressions
    width = max(len(n) for n in names)
    print(f"\n{'bytes counter':{width}s} {'baseline':>14s} {'current':>14s} {'ratio':>8s}  status")
    for name in names:
        b, c = base[name]["bytes_per_sub"], cur[name]["bytes_per_sub"]
        ratio = float("inf") if b <= 0 else c / b
        status = "ok"
        if ratio > 1.0 + threshold:
            status = "REGRESSION (bytes)"
            regressions.append((name, b, c, ratio))
        elif ratio < 1.0 - threshold:
            status = "improved"
        print(f"{name:{width}s} {b:14.1f} {c:14.1f} {ratio:8.3f}  {status}")
    return regressions


def gate_compression_floor(cur, floor):
    """Within CURRENT alone: for each BM_MemoryFootprint width, the
    materialized (/0) bytes_per_sub over the tiered (/1) bytes_per_sub must
    be at least `floor`."""
    failures = []
    pat = re.compile(r"^(BM_MemoryFootprint/\d+)/([01])$")
    pairs = {}
    for name, vals in cur.items():
        m = pat.match(name)
        if m and vals["bytes_per_sub"] is not None:
            pairs.setdefault(m.group(1), {})[m.group(2)] = vals["bytes_per_sub"]
    for stem in sorted(pairs):
        p = pairs[stem]
        if "0" not in p or "1" not in p:
            continue
        ratio = float("inf") if p["1"] <= 0 else p["0"] / p["1"]
        ok = ratio >= floor
        print(
            f"compression {stem}: resident {p['0']:.1f} B/sub, tiered {p['1']:.1f} B/sub "
            f"-> {ratio:.2f}x ({'ok' if ok else f'BELOW FLOOR {floor:.1f}x'})"
        )
        if not ok:
            failures.append((stem, ratio))
    return failures


def gate_churn_floor(cur, floor):
    """Within CURRENT alone: at the largest BM_ChurnErase size present, the
    deferred-tombstone mode (/1) must sustain at least `floor` x the naive
    eager-compaction mode (/0) in items/sec."""
    pat = re.compile(r"^BM_ChurnErase/(\d+)/([01])(?:/real_time)?$")
    pairs = {}
    for name, vals in cur.items():
        m = pat.match(name)
        if m and vals["items_per_second"]:
            pairs.setdefault(int(m.group(1)), {})[m.group(2)] = vals["items_per_second"]
    sizes = [n for n, p in pairs.items() if "0" in p and "1" in p]
    if not sizes:
        return []
    n = max(sizes)
    p = pairs[n]
    ratio = float("inf") if p["0"] <= 0 else p["1"] / p["0"]
    ok = ratio >= floor
    print(
        f"churn erase BM_ChurnErase/{n}: naive {p['0']:.0f}/s, "
        f"tombstone {p['1']:.0f}/s -> {ratio:.2f}x "
        f"({'ok' if ok else f'BELOW FLOOR {floor:.1f}x'})"
    )
    return [] if ok else [(f"BM_ChurnErase/{n}", ratio)]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.10,
        help="allowed per-op slowdown fraction before failing (default 0.10)",
    )
    parser.add_argument(
        "--bytes-threshold",
        type=float,
        default=0.10,
        help="allowed bytes_per_sub growth fraction before failing (default 0.10)",
    )
    parser.add_argument(
        "--compression-floor",
        type=float,
        default=3.0,
        help="required resident/tiered bytes_per_sub ratio within CURRENT "
        "(BM_MemoryFootprint pairs; 0 disables; default 3.0)",
    )
    parser.add_argument(
        "--churn-floor",
        type=float,
        default=10.0,
        help="required tombstone/naive items-per-second ratio within CURRENT "
        "(largest BM_ChurnErase pair; 0 disables; default 10.0)",
    )
    parser.add_argument(
        "--counters-only",
        action="store_true",
        help="skip all timing gates; check only bytes counters and the "
        "compression floor (for unoptimized smoke builds)",
    )
    parser.add_argument(
        "--require",
        action="append",
        default=[],
        metavar="PREFIX",
        help="fail unless CURRENT and BASELINE both contain a benchmark "
        "starting with PREFIX (repeatable; pins families the gate depends on)",
    )
    parser.add_argument(
        "--allow-new",
        action="append",
        default=[],
        metavar="PREFIX",
        help="benchmarks starting with PREFIX may be absent from BASELINE "
        "(repeatable; for benchmarks a change adds before re-archiving)",
    )
    args = parser.parse_args()

    base = load(args.baseline)
    cur = load(args.current)

    missing_required = [
        prefix for prefix in args.require if not any(n.startswith(prefix) for n in cur)
    ]
    missing_baseline = gate_baseline_coverage(base, cur, args.require, args.allow_new)

    time_regressions = [] if args.counters_only else gate_times(base, cur, args.threshold)
    bytes_regressions = gate_bytes(base, cur, args.bytes_threshold)
    floor_failures = (
        gate_compression_floor(cur, args.compression_floor)
        if args.compression_floor > 0
        else []
    )
    churn_failures = (
        gate_churn_floor(cur, args.churn_floor)
        if args.churn_floor > 0 and not args.counters_only
        else []
    )

    failed = False
    if time_regressions:
        failed = True
        print(
            f"\nFAIL: {len(time_regressions)} benchmark(s) regressed more than "
            f"{args.threshold:.0%} vs {args.baseline}:",
            file=sys.stderr,
        )
        for name, b, c, ratio in time_regressions:
            print(f"  {name}: {b:.1f} -> {c:.1f} ns ({ratio:.2f}x)", file=sys.stderr)
    if bytes_regressions:
        failed = True
        print(
            f"\nFAIL: {len(bytes_regressions)} bytes counter(s) grew more than "
            f"{args.bytes_threshold:.0%} vs {args.baseline}:",
            file=sys.stderr,
        )
        for name, b, c, ratio in bytes_regressions:
            print(f"  {name}: {b:.1f} -> {c:.1f} B/sub ({ratio:.2f}x)", file=sys.stderr)
    if floor_failures:
        failed = True
        print(
            f"\nFAIL: {len(floor_failures)} BM_MemoryFootprint pair(s) below the "
            f"{args.compression_floor:.1f}x compression floor:",
            file=sys.stderr,
        )
        for stem, ratio in floor_failures:
            print(f"  {stem}: {ratio:.2f}x", file=sys.stderr)
    if churn_failures:
        failed = True
        print(
            f"\nFAIL: BM_ChurnErase tombstone/naive ratio below the "
            f"{args.churn_floor:.1f}x churn floor:",
            file=sys.stderr,
        )
        for stem, ratio in churn_failures:
            print(f"  {stem}: {ratio:.2f}x", file=sys.stderr)
    if missing_required:
        failed = True
        print(
            f"\nFAIL: {len(missing_required)} required famil(ies) absent from "
            f"{args.current}:",
            file=sys.stderr,
        )
        for prefix in missing_required:
            print(f"  {prefix}", file=sys.stderr)
    if missing_baseline:
        failed = True
        print(
            f"\nFAIL: {len(missing_baseline)} benchmark(s) absent from the baseline "
            f"{args.baseline} (truncated archive? --allow-new PREFIX for new benchmarks):",
            file=sys.stderr,
        )
        for name in missing_baseline:
            print(f"  {name}", file=sys.stderr)
    if failed:
        return 1
    print(f"\nOK: no regression (times, bytes) and compression floor holds.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
