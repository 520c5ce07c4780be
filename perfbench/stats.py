"""The benchmark's own statistics: percentile selection, rates, the result line.

Kept free of I/O so tests/test_stats.py can pin every rule.
"""

import json
import math
import statistics

# A percentile is reported only when at least this many samples lie beyond it.
MIN_BEYOND = 10
# Percentiles tried, highest first, when the wanted one has too few samples
# beyond it.
LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def rank(n, pct):
    """1-based nearest-rank index of the pct-th percentile of n samples."""
    if n < 1:
        raise ValueError("rank of an empty sample")
    return min(n, max(1, math.ceil(pct / 100.0 * n)))


def beyond(n, pct):
    """Samples strictly after the pct-th percentile's rank."""
    return n - rank(n, pct)


class Percentile:
    """A tail percentile over a run's trials, with the counts that justify
    it: `n` samples in all, and `beyond` samples past it in the trial that
    has the fewest."""

    def __init__(self, value, pct, n, past, groups):
        self.value = value
        self.pct = pct
        self.n = n
        self.beyond = past
        self.groups = groups

    def describe(self, wanted):
        note = "p%g, median of %d trials; n=%d, beyond>=%d per trial" % (
            self.pct, self.groups, self.n, self.beyond)
        if self.pct < wanted:
            note += " (p%g has fewer than %d beyond)" % (wanted, MIN_BEYOND)
        return note


def tail(groups, wanted):
    """The median over groups (a run's trials) of each group's wanted
    percentile. If some group has fewer than MIN_BEYOND samples beyond it,
    every group uses the highest lower ladder step that all of them meet;
    with too few samples even for the median, the median is returned and
    `beyond` shows the shortfall. Empty groups are skipped."""
    ordered = [sorted(g) for g in groups if g]
    if not ordered:
        return None
    n = sum(len(g) for g in ordered)
    steps = [wanted] + [p for p in LADDER if p < wanted]
    for pct in steps:
        past = min(beyond(len(g), pct) for g in ordered)
        if past >= MIN_BEYOND or pct == steps[-1]:
            value = statistics.median(g[rank(len(g), pct) - 1] for g in ordered)
            return Percentile(value, pct, n, past, len(ordered))


def median_of_medians(groups):
    """Median over groups (a run's trials) of each group's median sample,
    plus the total sample count and the number of groups that had samples.
    Empty groups are skipped."""
    medians = [statistics.median(g) for g in groups if g]
    n = sum(len(g) for g in groups)
    if not medians:
        return None, n, 0
    return statistics.median(medians), n, len(medians)


def rate(count, busy_ns):
    """Operations per second of busy time; 0 when nothing was timed."""
    if busy_ns <= 0:
        return 0.0
    return count / (busy_ns / 1e9)


def median_rate(trials):
    """Median over trials of each trial's rate (ops over busy time)."""
    rates = [rate(t["ops"], t["busy_ns"]) for t in trials if t["busy_ns"] > 0]
    return statistics.median(rates) if rates else 0.0


def ratio(num, den):
    """num / den, or 0.0 when den is 0 (a layer that did no work)."""
    return num / den if den else 0.0


def result_line(correct, attempted, failed, metrics):
    """The benchmark's last stdout line. `metrics` maps a metric name to
    (value, unit); values keep every digit they were measured with."""
    if attempted < 1:
        raise ValueError("attempted must be at least 1")
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": {
                name: {"value": float(value), "unit": unit}
                for name, (value, unit) in metrics.items()
            },
        },
        allow_nan=False,
    )
