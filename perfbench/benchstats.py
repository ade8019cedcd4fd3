"""Arithmetic behind perfbench's metrics, kept apart from the process
plumbing in run.py so test_benchstats.py can check it on synthetic
inputs."""

import math
import statistics


def median(xs):
    return statistics.median(xs) if xs else 0.0


def tail(xs, beyond=10):
    """The highest percentile with at least `beyond` samples above it.

    With the samples sorted, the nearest-rank p-th percentile is the
    ceil(p*n/100)-th smallest; it has at least `beyond` samples above it
    while its rank is at most n - beyond, so the highest such percentile
    is p = 100 * (n - beyond) / n and its value is the (n - beyond)-th
    smallest sample. With n <= beyond no percentile qualifies and the
    maximum is returned at percentile 100.

    Returns (value, percentile, sample count)."""
    n = len(xs)
    if n == 0:
        return 0.0, 0.0, 0
    s = sorted(xs)
    if n <= beyond:
        return s[-1], 100.0, n
    return s[n - beyond - 1], 100.0 * (n - beyond) / n, n


def geomean(xs):
    """Geometric mean of positive numbers, summed in sorted order so the
    result does not depend on the order the results arrived in."""
    if not xs:
        return 0.0
    return math.exp(math.fsum(math.log(x) for x in sorted(xs)) / len(xs))


def cpu_ms_per_result(rusages, results):
    """User + system CPU of child processes (resource.struct_rusage or
    anything with ru_utime/ru_stime, in seconds), in ms per result."""
    cpu = sum(r.ru_utime + r.ru_stime for r in rusages)
    return 1000.0 * cpu / results if results else 0.0


def peak_rss_mb(rusage):
    """Linux reports ru_maxrss in KiB."""
    return rusage.ru_maxrss / 1024.0


def lateness(scheduled, sent):
    """Per-request generator lateness (s): actual send time minus the
    scheduled one. An early send counts as 0."""
    return [max(0.0, b - a) for a, b in zip(scheduled, sent)]


def percentile(xs, p):
    """Nearest-rank percentile."""
    if not xs:
        return 0.0
    s = sorted(xs)
    return s[max(0, math.ceil(p * len(s) / 100.0) - 1)]


def union_length(intervals, lo=-math.inf, hi=math.inf):
    """Length of the union of [a, b) intervals clipped to [lo, hi), so
    overlapping intervals count once."""
    total, end = 0.0, -math.inf
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if a >= end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


def self_times(spans):
    """Self time of every span: its duration minus the part of it that
    its children on the same track cover (overlapping children once).

    `spans` maps an index to a dict with keys t0, t1, parent, tid.
    Returns {index: self time}."""
    children = {}
    for i, s in spans.items():
        p = spans.get(s["parent"])
        if p is not None and p["tid"] == s["tid"]:
            children.setdefault(s["parent"], []).append((s["t0"], s["t1"]))
    return {
        i: (s["t1"] - s["t0"]) - union_length(children.get(i, []), s["t0"], s["t1"])
        for i, s in spans.items()
    }


def iqr_share(xs):
    """Inter-quartile range over the median, as the acceptance check
    computes it."""
    q = statistics.quantiles(xs, n=4)
    return (q[2] - q[0]) / statistics.median(xs)
