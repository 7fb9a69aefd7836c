"""Arithmetic of the campaign benchmark: percentiles, span self time, pooling.

Everything here is pure: run.py feeds it the JSON the coordinator
processes print and the span files they write, and test_benchlib.py checks
it on hand-made inputs.
"""

import json
import math
import statistics


def percentile(values, q):
    """The q-quantile (0 <= q <= 1) by linear interpolation between ranks."""
    if not values:
        raise ValueError("percentile of no values")
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = math.ceil(pos)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(values, q, min_beyond=10):
    """The q-quantile, lowered until at least `min_beyond` samples lie beyond it.

    Returns (value, quantile_used, sample_count). With n samples the highest
    quantile that keeps `min_beyond` of them above it is 1 - min_beyond / n,
    so q is reported as asked only once n >= min_beyond / (1 - q) (100 for
    the p90). Below that the quantile drops, but never under the median.
    """
    n = len(values)
    used = min(q, 1.0 - min_beyond / n) if n else q
    used = max(used, 0.5)
    return percentile(values, used), used, n


def spread(values):
    """IQR / median, with quartiles as statistics.quantiles(n=4) gives them."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else math.inf, q1, med, q3


def at_reference_speed(values, ref_times, nominal):
    """Per-campaign values restated at the reference host speed.

    The coordinator timed its reference pipeline before every campaign and
    once after the last, so ref_times has one entry more than values.
    Campaign i is multiplied by nominal / mean(ref_times[i], ref_times[i+1]):
    a campaign run while the reference took twice its nominal time counts
    half of what it measured.
    """
    if len(ref_times) != len(values) + 1:
        raise ValueError(f"{len(values)} campaigns need {len(values) + 1} "
                         f"reference times, got {len(ref_times)}")
    return [v * nominal * 2.0 / (a + b)
            for v, a, b in zip(values, ref_times, ref_times[1:])]


def pooled_rate(coordinators, nominal_wall=None):
    """Experiments per second pooled over coordinator processes.

    Sums deliveries and timed wall over every campaign of every process, so
    a process that drew a slow host mode weighs by the time it took instead
    of counting as one vote in a median of per-process rates. With
    nominal_wall, each campaign's wall is first restated at the reference
    host speed (at_reference_speed).
    """
    delivered = sum(c["delivered"] for c in coordinators)
    wall = 0.0
    for c in coordinators:
        w = c["wall_s"]
        if nominal_wall is not None:
            w = at_reference_speed(w, c["ref_wall_s"], nominal_wall)
        wall += sum(w)
    return delivered / wall


def self_times(spans):
    """Per span name: summed self time, in ns.

    A span's self time is its duration minus the part of its interval that
    its children cover (overlapping children count once; a child sticking
    out of its parent counts only inside it).
    """
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        start, end = s["start"], s["end"]
        covered = 0
        cursor = start
        kids = sorted(children.get(s["id"], []), key=lambda c: c["start"])
        for c in kids:
            lo = max(c["start"], cursor)
            hi = min(c["end"], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s["name"]] = out.get(s["name"], 0) + (end - start) - covered
    return out


def span_durations(spans, name):
    return [s["end"] - s["start"] for s in spans if s["name"] == name]


def load_spans(path):
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


def sampled_experiments(spans):
    return sum(1 for s in spans if s["name"] == "experiment")
