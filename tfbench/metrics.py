"""Statistics behind the tfcool benchmark's metrics.

Pure functions over the raw samples, spans and request records that the
harness writes; run.py applies them, test_metrics.py pins them down.
"""

import math
import statistics

TAIL_BEYOND = 10  # samples that must lie beyond a reported tail percentile


def median(values):
    return statistics.median(values) if values else float("nan")


def tail(values, beyond=TAIL_BEYOND):
    """The highest percentile with at least `beyond` samples beyond it.

    Returns (value, percentile, samples_beyond). With n sorted samples the
    answer is the (n - beyond)-th smallest: exactly `beyond` samples lie
    above it, at percentile 100 * (n - beyond) / n. With too few samples no
    percentile qualifies; the maximum is returned with 0 samples beyond, so
    the caller can say so.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        return float("nan"), 0.0, 0
    if n <= beyond:
        return xs[-1], 100.0, 0
    return xs[n - beyond - 1], 100.0 * (n - beyond) / n, beyond


def with_failures(latencies, failed):
    """Latencies of the successful operations plus one infinite latency per
    failed one: a failure misses any latency limit."""
    return list(latencies) + [math.inf] * len(failed)


def covered_ns(intervals, lo, hi):
    """Length of the union of `intervals`, each clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo))
    total, cur_a, cur_b = 0, None, None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans):
    """Self time of every span: its duration minus its children's coverage.

    `spans` are dicts with id, parent, name, start, end (ns). Returns
    {id: self_ns}.
    """
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        kids = children.get(s["id"], [])
        cover = covered_ns([(k["start"], k["end"]) for k in kids], s["start"], s["end"])
        out[s["id"]] = (s["end"] - s["start"]) - cover
    return out


def tree_violations(spans, selfs):
    """Roots whose tree's summed self time exceeds the root's wall time."""
    by_id = {s["id"]: s for s in spans}

    def root_of(s):
        while s["parent"] in by_id:
            s = by_id[s["parent"]]
        return s["id"]

    sums = {}
    for s in spans:
        r = root_of(s)
        sums[r] = sums.get(r, 0) + selfs[s["id"]]
    bad = []
    for r, total in sums.items():
        wall = by_id[r]["end"] - by_id[r]["start"]
        if total > wall:
            bad.append((by_id[r]["name"], total, wall))
    return bad


def self_by_name(spans):
    """Summed self time [s] and count per span name."""
    selfs = self_times(spans)
    agg = {}
    for s in spans:
        t, n = agg.get(s["name"], (0.0, 0))
        agg[s["name"]] = (t + selfs[s["id"]] * 1e-9, n + 1)
    return agg


def open_loop(records):
    """Latency and lateness of one open-loop phase.

    `records` are (scheduled_s, sent_s, done_s, ok) per request. Latency is
    measured from the scheduled send time, so a stall also charges the wait
    it imposes on later requests; a failed or unanswered request has
    infinite latency (it misses any limit). Lateness is how far behind
    schedule the generator itself sent.
    """
    lat, late, failed = [], [], 0
    for sched, sent, done, ok in records:
        if ok and done >= 0:
            lat.append((done - sched) * 1e3)
        else:
            lat.append(math.inf)
            failed += 1
        if sent >= 0:
            late.append((sent - sched) * 1e3)
    return {"latency_ms": lat, "late_ms": late, "failed": failed}


def backlog_growing(records):
    """True when requests answered later in the phase waited markedly longer.

    Compares the median latency of the last third of requests (in schedule
    order) with that of the first third: a queue that keeps up shows no
    trend, one that falls behind grows linearly.
    """
    rows = sorted(records)
    n = len(rows)
    if n < 6:
        return False
    ph = open_loop(rows)["latency_ms"]
    first, last = median(ph[: n // 3]), median(ph[-(n // 3):])
    return last > 2.0 * first + 5.0


def max_rps(rungs, limit_ms):
    """Highest offered rate whose tail meets the limit without a growing
    backlog. `rungs` is [(rps, records)] in increasing rate; the ladder
    stops counting at the first rung that misses. 0.0 if none meets it."""
    best = 0.0
    for rps, records in rungs:
        lat = open_loop(records)["latency_ms"]
        value, _, _ = tail(lat)
        if not lat or not value <= limit_ms or backlog_growing(records):
            break
        best = rps
    return best
