#!/usr/bin/env python3
"""End-to-end benchmark of subcover.

Builds the library, the broker_daemon example and the benchmark harness
from the checkout it lives in, runs one workload, checks every output, and
prints a table of metrics followed by one JSON result line:

    python3 perfbench/run.py --workload broker-net --seed 1 --seconds 25 --trace 0

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
Build files and scratch directories go under $CARGO_TARGET_DIR if it is
set, else under .bench_build/ at the checkout root; nothing is written
anywhere else. See perfbench/README.md for the metric catalogue.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import stats  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
HARNESS_TIMEOUT_S = 170

# The percentile each workload reports as *_tail_us: p99 where every trial
# yields thousands of samples of each operation, p90 where it yields
# hundreds.
TAIL_PCT = {
    "broker-net": 90.0,
    "index-churn": 99.0,
    "tcp-cluster": 90.0,
}

END_TO_END = [
    ("ops_per_s", "ops/s"),
    ("sub_p50_us", "us"),
    ("sub_tail_us", "us"),
    ("read_p50_us", "us"),
    ("read_tail_us", "us"),
    ("hit_rate", "ratio"),
    ("bytes_per_sub", "bytes"),
    ("setup_s", "s"),
]


def _c(h, key):
    return h["counters"].get(key, 0.0)


def _per_check(key):
    return lambda h: stats.ratio(_c(h, key), _c(h, "cov.checks"))


def _per_kop(key):
    return lambda h: stats.ratio(_c(h, key), _ops(h) / 1000.0)


def _ops(h):
    return h["untraced_ops"] + h["traced_ops"]


def _busy_ns(h):
    return h["untraced_busy_ns"] + h["traced_busy_ns"]


def _checks(h):
    if "net.covering_checks" in h["counters"]:
        return _c(h, "net.covering_checks")
    return _c(h, "checks")


def _busy_frac(h):
    # Broker workloads: covering-check time inside the subscribe and
    # unsubscribe spans. index-churn: find_covering's share of all timed work.
    if "net.covering_check_ns" in h["counters"]:
        return stats.ratio(_c(h, "net.covering_check_ns"),
                           _c(h, "sub_span_ns") + _c(h, "unsub_span_ns"))
    return stats.ratio(_c(h, "check_busy_ns"), _busy_ns(h))


def _broker_self(h):
    """(broker time outside covering checks, the spans it was measured in).
    broker-net separates each subscribe's check time; the daemons report
    only their summed check time, so tcp-cluster nets it out of every
    subscribe and unsubscribe span."""
    if "sub_check_ns" in h["counters"]:
        return _c(h, "sub_span_ns") - _c(h, "sub_check_ns"), _c(h, "sub_span_ns")
    if "net.covering_check_ns" in h["counters"]:
        spans = _c(h, "sub_span_ns") + _c(h, "unsub_span_ns")
        return spans - _c(h, "net.covering_check_ns"), spans
    return 0.0, 0.0


def _trace_overhead(h):
    untraced = stats.rate(h["untraced_ops"], h["untraced_busy_ns"])
    traced = stats.rate(h["traced_ops"], h["traced_busy_ns"])
    return 1.0 - stats.ratio(traced, untraced)


# (name, unit, value from the harness output). A layer that does not run in
# a workload reports 0 work.
PER_LAYER = [
    ("covering.check_us", "us",
     lambda h: stats.ratio(_c(h, "cov.check_span_ns"), _c(h, "cov.checks")) / 1e3),
    ("covering.self_us", "us",
     lambda h: stats.ratio(_c(h, "cov.check_elapsed_ns") - _c(h, "dom.query_ns"),
                           _c(h, "cov.checks")) / 1e3),
    ("covering.insert_us", "us",
     lambda h: stats.ratio(_c(h, "cov.insert_ns"), _c(h, "cov.inserts")) / 1e3),
    ("covering.maintain_frac", "ratio",
     lambda h: stats.ratio(_c(h, "cov.maintain_ns"), h["traced_busy_ns"])),
    ("covering.checks_per_sub", "count", lambda h: stats.ratio(_checks(h), _c(h, "subs"))),
    ("covering.busy_frac", "ratio", _busy_frac),
    ("dominance.query_us", "us",
     lambda h: stats.ratio(_c(h, "dom.query_ns"), _c(h, "cov.checks")) / 1e3),
    ("dominance.cubes_per_check", "count", _per_check("dom.cubes")),
    ("dominance.runs_per_check", "count", _per_check("dom.plan_runs")),
    ("dominance.probes_per_check", "count", _per_check("dom.probed")),
    ("dominance.budget_frac", "ratio", _per_check("dom.budget_exhausted")),
    ("dominance.volume_searched", "ratio", _per_check("dom.volume_searched")),
    ("sfcarray.restarts_per_check", "count", _per_check("arr.restarts")),
    ("sfcarray.resumed_per_check", "count", _per_check("arr.resumed")),
    ("sfcarray.batches_per_check", "count", _per_check("arr.batches")),
    ("sfcarray.cold_probes_per_check", "count", _per_check("arr.cold_probes")),
    ("sfcarray.blocks_decoded_per_check", "count", _per_check("arr.blocks_decoded")),
    ("sfcarray.cold_hits_per_check", "count", _per_check("arr.cold_hits")),
    ("sfcarray.summary_answer_frac", "ratio",
     lambda h: stats.ratio(_c(h, "arr.summary_answers"), _c(h, "arr.cold_probes"))),
    ("sfcarray.tombstones_per_kop", "count/kop", _per_kop("arr.tombstones")),
    ("sfcarray.purged_per_kop", "count/kop", _per_kop("arr.purged")),
    ("sfcarray.compactions_per_kop", "count/kop", _per_kop("arr.compactions")),
    ("sfcarray.bytes_per_entry", "bytes",
     lambda h: stats.ratio(_c(h, "arr.bytes"), _c(h, "arr.entries"))),
    ("broker.self_frac", "ratio", lambda h: stats.ratio(*_broker_self(h))),
    ("broker.sub_msgs_per_sub", "count",
     lambda h: stats.ratio(_c(h, "net.subscription_messages"), _c(h, "subs"))),
    ("broker.routing_entries_per_sub", "count",
     lambda h: stats.ratio(_c(h, "routing_entries"), _c(h, "live_subs"))),
    ("broker.event_msgs_per_pub", "count",
     lambda h: stats.ratio(_c(h, "net.event_messages"), _c(h, "pubs"))),
    ("broker.deliveries_per_pub", "count",
     lambda h: stats.ratio(_c(h, "net.deliveries"), _c(h, "pubs"))),
    ("trace_overhead", "ratio", _trace_overhead),
]

# Layers only tcp-cluster exercises; reported for that workload alone.
TCP_LAYER = [
    ("broker.reforwards_per_unsub", "count",
     lambda h: stats.ratio(_c(h, "net.reforwards"), _c(h, "unsubs"))),
    ("wal.bytes_per_op", "bytes", lambda h: stats.ratio(_c(h, "net.wal_bytes"), _ops(h))),
    ("wire.bytes_per_op", "bytes", lambda h: stats.ratio(_c(h, "net.bytes_on_wire"), _ops(h))),
    ("wire.partial_writes_per_kop", "count/kop", _per_kop("net.partial_writes")),
    ("wire.encode_ns", "ns",
     lambda h: stats.ratio(_c(h, "wire.encode_ns"), _c(h, "wire.encodes"))),
    ("wire.decode_ns", "ns",
     lambda h: stats.ratio(_c(h, "wire.decode_ns"), _c(h, "wire.decodes"))),
    ("transport.reconnects", "count", lambda h: _c(h, "transport.reconnects")),
    ("transport.heartbeats_missed", "count", lambda h: _c(h, "transport.heartbeats_missed")),
]

# Printed beside the per-layer table, not part of the result line.
DETAIL = [
    ("covering.erase_us", "us",
     lambda h: stats.ratio(_c(h, "cov.erase_ns"), _c(h, "cov.erases")) / 1e3),
    ("covering.maintain_us", "us",
     lambda h: stats.ratio(_c(h, "cov.maintain_ns"), _c(h, "cov.maintains")) / 1e3),
    ("broker.self_us_per_sub", "us",
     lambda h: stats.ratio(_broker_self(h)[0], _c(h, "subs")) / 1e3),
]

# index-churn attribution must add up: the span around find_covering equals
# covering's self time plus the dominance query, within this share.
ADDITIVITY_TOLERANCE = 0.05


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    configured = os.environ.get("CARGO_TARGET_DIR")
    return Path(configured).resolve() if configured else ROOT / ".bench_build"


def build(out):
    """Configures and builds the harness and the daemon; returns their dir."""
    for needed in ("CMakeLists.txt", "src", "examples/broker_daemon.cpp"):
        if not (ROOT / needed).exists():
            raise RuntimeError("not a subcover checkout: %s is missing" % (ROOT / needed))
    cmake = out / "cmake"
    out.mkdir(parents=True, exist_ok=True)
    logfile = out / "build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(cmake), "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(cmake), "-j", jobs, "--target", "perfbench_harness",
         "broker_daemon"],
    ]
    with open(logfile, "w") as f:
        for cmd in steps:
            if subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT).returncode != 0:
                raise RuntimeError("build failed; see %s" % logfile)
    return cmake


def stop_group(pgid):
    """SIGKILLs whatever is left of the harness's process group and waits
    until it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_harness(bins, out, args):
    """Runs one workload; returns the harness's parsed JSON document."""
    scratch = Path(tempfile.mkdtemp(prefix="run", dir=out))
    cmd = [str(bins / "perfbench_harness"), "--workload=" + args.workload,
           "--seed=%d" % args.seed, "--seconds=%g" % args.seconds,
           "--trace=%d" % args.trace,
           "--daemon=" + str(bins / "broker_daemon"), "--tmp=" + str(scratch)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True, text=True)
    try:
        stdout, stderr = proc.communicate(timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(proc.pid)
        proc.communicate()
        raise RuntimeError("harness did not finish within %d s" % HARNESS_TIMEOUT_S)
    finally:
        stop_group(proc.pid)
        shutil.rmtree(scratch, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError("harness exited with %d: %s" % (proc.returncode, stderr.strip()))
    return json.loads(stdout)


def latency(h, kind, tail_pct, metrics, notes):
    """Adds <kind>_p50_us and <kind>_tail_us; False if there were no samples."""
    trials = h["trials"]
    med, n, used = stats.median_of_medians([w[kind] for w in trials])
    t = stats.tail([w[kind] for w in trials], tail_pct)
    if med is None or t is None:
        return False
    metrics[kind + "_p50_us"] = (med / 1e3, "us")
    notes[kind + "_p50_us"] = "median of %d trial medians; n=%d" % (used, n)
    metrics[kind + "_tail_us"] = (t.value / 1e3, "us")
    notes[kind + "_tail_us"] = t.describe(tail_pct)
    return True


def end_to_end(h, tail_pct):
    """Returns ({name: (value, unit)}, {name: note})."""
    trials = h["trials"]
    metrics, notes = {}, {}
    metrics["ops_per_s"] = (stats.median_rate(trials), "ops/s")
    notes["ops_per_s"] = "median of %d trial rates; %d ops" % (
        sum(1 for w in trials if w["busy_ns"] > 0), _ops(h))
    for kind in ("sub", "read"):
        if not latency(h, kind, tail_pct, metrics, notes):
            raise RuntimeError("no %s samples were recorded" % kind)
    hits = _c(h, "net.covering_hits") if "net.covering_hits" in h["counters"] else _c(h, "hits")
    metrics["hit_rate"] = (stats.ratio(hits, _checks(h)), "ratio")
    notes["hit_rate"] = "%d of %d covering checks" % (hits, _checks(h))
    state = _c(h, "footprint_bytes") or _c(h, "snapshot_bytes")
    metrics["bytes_per_sub"] = (stats.ratio(state, _c(h, "live_subs")), "bytes")
    notes["bytes_per_sub"] = "%d live subscriptions at the end of a trial" % (
        _c(h, "live_subs") / max(1, len(trials)))
    setup = h["setup_s"]
    metrics["setup_s"] = (statistics.median(setup), "s")
    notes["setup_s"] = "median of %d trial set-ups" % len(setup)
    return metrics, notes


def per_layer(h, workload):
    table = PER_LAYER + (TCP_LAYER if workload == "tcp-cluster" else [])
    metrics = {name: (fn(h), unit) for name, unit, fn in table}
    detail = {name: (fn(h), unit) for name, unit, fn in DETAIL}
    return metrics, detail


def additivity(metrics):
    """index-churn: check_us vs self_us + query_us. Returns (ok, message)."""
    check = metrics["covering.check_us"][0]
    parts = metrics["covering.self_us"][0] + metrics["dominance.query_us"][0]
    remainder = check - parts
    ok = check > 0 and abs(remainder) <= ADDITIVITY_TOLERANCE * check
    return ok, ("additivity: covering.check_us %.3f = covering.self_us + dominance.query_us "
                "%.3f + remainder %.3f us (%.2f%% of the span; tolerance %.0f%%)"
                % (check, parts, remainder, 100 * stats.ratio(remainder, check),
                   100 * ADDITIVITY_TOLERANCE))


def main(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(TAIL_PCT))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    out = build_dir()
    try:
        bins = build(out)
        h = run_harness(bins, out, args)
    except (RuntimeError, OSError, ValueError) as e:
        log("perfbench: %s" % e)
        return 2

    correct = h["failed"] == 0
    for why in h["failures"]:
        print("FAILED: %s" % why)
    print("workload %s  seed %d  %.1f s timed  trace %d" %
          (args.workload, args.seed, h["wall_s"], args.trace))
    if args.trace:
        metrics, detail = per_layer(h, args.workload)
        for name, (value, unit) in list(metrics.items()) + list(detail.items()):
            print("  %-34s %14.4f %s" % (name, value, unit))
        if args.workload == "index-churn":
            ok, message = additivity(metrics)
            print("  " + message + ("" if ok else "  -- OUTSIDE TOLERANCE"))
            correct = correct and ok
    else:
        try:
            metrics, notes = end_to_end(h, TAIL_PCT[args.workload])
        except RuntimeError as e:
            log("perfbench: %s" % e)
            return 2
        # Withdrawals are not a BENCHMARK.json metric (broker-net has none);
        # where a workload makes them, they are shown beside the others.
        unsub = {}
        latency(h, "unsub", TAIL_PCT[args.workload], unsub, notes)
        for name, (value, unit) in list(metrics.items()) + list(unsub.items()):
            print("  %-16s %14.4f %-6s %s" % (name, value, unit, notes[name]))
    print("  %-16s %14.6f %-6s %d of %d attempted operations" %
          ("failed_op_frac", stats.ratio(h["failed"], h["attempted"]), "ratio",
           h["failed"], h["attempted"]))
    print(stats.result_line(correct, max(1, h["attempted"]), h["failed"], metrics))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
