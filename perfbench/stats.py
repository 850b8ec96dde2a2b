"""The few statistics every perfbench number is built from.

The noise rules (README, "Noise rules") fix which statistic a metric
may use: a class metric is the mean of the fast half of the rounds'
mean latencies, a tail is the highest percentile with at least ten samples
beyond it, and run-to-run spread is the interquartile range as a share
of the median.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: Percentiles a tail may be reported at, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)

#: A tail percentile needs at least this many samples beyond it.
SAMPLES_BEYOND = 10


def fast_half_mean(values: Sequence[float]) -> float:
    """Mean of the lower half of ``values`` (of all but the upper
    half, so of the lower ``ceil(n / 2)``).

    The class metrics apply it to the rounds' mean latencies. A round
    mixes templates whose latencies differ by an order of magnitude,
    so the *round mean* comes first: any statistic over the raw samples
    would sit in the gap of a bimodal distribution. Across rounds the
    host adds noise of one sign only, in bursts: this box alternates
    between a fast state and one 1.5 times slower that lasts for
    seconds (README, "Noise rules"), so up to half of a run's rounds
    can be slow ones, which a median or an interquartile mean lets in
    and the mean of the fast half does not. Unlike a minimum it
    averages half the rounds; rounds are built to cost the same, so
    which half is fast says nothing about the work.
    """
    if not values:
        raise ValueError("no values")
    ordered = sorted(values)
    kept = ordered[:(len(ordered) + 1) // 2]
    return sum(kept) / len(kept)


def percentile(samples: Sequence[float], p: float) -> float:
    """The ``p``-th percentile by linear interpolation."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    position = (len(ordered) - 1) * p / 100.0
    low = math.floor(position)
    high = math.ceil(position)
    weight = position - low
    return ordered[low] * (1 - weight) + ordered[high] * weight


def supported_tail(samples: Sequence[float]) -> tuple[float, float, int]:
    """``(percentile, value, n)`` for the highest percentile that has
    at least :data:`SAMPLES_BEYOND` samples beyond it; the median when
    even the lowest tail percentile is unsupported."""
    n = len(samples)
    for p in TAIL_PERCENTILES:
        if n * (100.0 - p) / 100.0 >= SAMPLES_BEYOND - 1e-9:
            return p, percentile(samples, p), n
    return 50.0, percentile(samples, 50.0), n


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` exactly as the driver computes them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median (0 for a constant
    series, including a constant zero)."""
    q1, q2, q3 = quartiles(values)
    if q3 == q1:
        return 0.0
    return (q3 - q1) / abs(q2)


def slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Least-squares slope of ``ys`` over ``xs`` (0 with < 2 points or
    no variation in ``xs``)."""
    n = len(xs)
    if n < 2:
        return 0.0
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    denominator = sum((x - mean_x) ** 2 for x in xs)
    if denominator == 0:
        return 0.0
    return sum((x - mean_x) * (y - mean_y)
               for x, y in zip(xs, ys)) / denominator
