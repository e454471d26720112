"""Metric arithmetic shared by the benchmark runner and the compare tool.

Pure functions with no side effects, so the unit tests in
``test_perfbench.py`` can pin every definition the benchmark reports.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

# A percentile is only reported as supported when at least this many
# samples lie beyond it (choosing-metrics §1).
MIN_SAMPLES_BEYOND = 10


def samples_beyond(count: int, q: float) -> float:
    """How many of ``count`` samples lie beyond the ``q``-th percentile."""
    return count * (100.0 - q) / 100.0


def highest_supported_percentile(count: int,
                                 candidates: Iterable[float] = (50, 90, 99)
                                 ) -> Optional[float]:
    """The highest candidate percentile with >= 10 samples beyond it.

    ``None`` when even the lowest candidate is under-sampled.
    """
    supported = [q for q in candidates
                 if samples_beyond(count, q) >= MIN_SAMPLES_BEYOND]
    return max(supported) if supported else None


def open_loop_summary(requests: Sequence[Dict[str, object]],
                      limit_s: float) -> Dict[str, float]:
    """End-to-end figures of one open-loop run.

    Each request is a dict with ``due`` (when the schedule said to send
    it), ``sent`` (when the generator actually sent it), ``state`` (its
    terminal state, or ``"refused"`` when admission rejected it) and
    ``completed`` (when it reached that state; ``None`` if it never
    did).  Latency runs from ``due``, not ``sent``, so a stalled
    generator cannot hide the wait it imposed on later requests.
    Percentiles cover requests that reached ``done``; every other
    request counts as a miss of the latency limit.
    """
    if not requests:
        raise ValueError("an open-loop run needs at least one request")
    latencies = [float(r["completed"]) - float(r["due"]) for r in requests
                 if r["state"] == "done" and r["completed"] is not None]
    within = sum(1 for lat in latencies if lat <= limit_s)
    lags = [float(r["sent"]) - float(r["due"]) for r in requests]
    summary = {
        "requests": float(len(requests)),
        "done": float(len(latencies)),
        "within_limit_share": within / len(requests),
        "generator_lag_s": max(lags),
    }
    if latencies:
        summary["latency_p50_s"] = float(np.percentile(latencies, 50))
        summary["latency_p90_s"] = float(np.percentile(latencies, 90))
    return summary


def idle_share(busy_s: float, workers: int, wall_s: float) -> float:
    """Share of the pool's capacity (workers x wall) not spent in cells."""
    if workers < 1 or wall_s <= 0:
        raise ValueError("idle share needs workers >= 1 and a positive wall")
    return 1.0 - busy_s / (workers * wall_s)


def covered_length(intervals: Iterable[Sequence[float]]) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted((float(s), float(e)) for s, e in intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_time(start: float, end: float,
              children: Iterable[Sequence[float]]) -> float:
    """A span's duration minus the part of it its children cover."""
    clipped = [(max(s, start), min(e, end)) for s, e in children
               if min(e, end) > max(s, start)]
    return (end - start) - covered_length(clipped)


def quartiles(values: Sequence[float]) -> List[float]:
    """First quartile, median and third quartile.

    Uses ``statistics.quantiles(values, n=4)`` (its default exclusive
    method), the same quartiles the acceptance check takes.
    """
    if len(values) < 2:
        only = float(values[0])
        return [only, only, only]
    q1, q2, q3 = statistics.quantiles([float(v) for v in values], n=4)
    return [q1, q2, q3]


def relative_spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    if q2 == 0:
        return 0.0 if q3 == q1 else math.inf
    return (q3 - q1) / abs(q2)


def pairs_won(parent: Sequence[float], change: Sequence[float],
              better: str) -> Dict[str, float]:
    """Pairwise wins of the change over the parent; ties count for neither.

    ``parent[i]`` and ``change[i]`` are one pair (same seed).
    """
    if len(parent) != len(change):
        raise ValueError("pairs need equally many parent and change runs")
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    wins = losses = 0
    for old, new in zip(parent, change):
        if new == old:
            continue
        improved = new < old if better == "lower" else new > old
        wins += improved
        losses += not improved
    pairs = len(parent)
    return {"pairs": pairs, "won": wins, "lost": losses,
            "won_share": wins / pairs if pairs else 0.0}


def worse_by(parent_median: float, change_median: float,
             better: str) -> float:
    """How much worse the change is, as a share of the parent's median.

    Negative when the change is better.
    """
    if parent_median == 0:
        return 0.0 if change_median == parent_median else math.inf
    delta = (change_median - parent_median) / abs(parent_median)
    return delta if better == "lower" else -delta
