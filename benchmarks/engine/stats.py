"""Order statistics shared by the engine benchmark and its comparison tool.

Timings are summarised by medians and quartiles, never means, because
run-to-run noise on a shared machine is heavy-tailed.  Tail latencies
follow one rule: a percentile is reported only when at least
``MIN_BEYOND`` samples lie beyond it, so that the tail is a measurement
of ten or more episodes rather than of one outlier.
"""

from __future__ import annotations

import math
import statistics
from typing import Optional, Sequence, Tuple

__all__ = [
    "MIN_BEYOND",
    "highest_supported_percentile",
    "percentile",
    "quartiles",
    "relative_iqr",
]

#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10

#: Percentiles the rule chooses among, in increasing order.
_CANDIDATES = (50.0, 90.0, 95.0, 99.0, 99.9)


def highest_supported_percentile(n_samples: int) -> Optional[float]:
    """The highest candidate percentile with ``MIN_BEYOND`` samples beyond it.

    ``None`` when even the median lacks that many samples.  With 1000
    samples the answer is 99 (exactly ten lie beyond p99); with 999 it
    drops to 95.
    """
    best = None
    for q in _CANDIDATES:
        # Integer arithmetic in tenths of a percent: n * (100 - q) / 100
        # samples lie beyond q, compared exactly.
        beyond_tenths = n_samples * int(round((100.0 - q) * 10))
        if beyond_tenths >= MIN_BEYOND * 1000:
            best = q
    return best


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` (0..100) of ``values``."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    fraction = position - low
    return ordered[low] + (ordered[high] - ordered[low]) * fraction


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """First quartile, median and third quartile.

    Uses ``statistics.quantiles(values, n=4)`` (the exclusive method), so
    the spread matches what an outside check computes from the same
    values; a single value is its own quartiles.
    """
    if not values:
        raise ValueError("quartiles of no values")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_iqr(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (0 for one value)."""
    q1, q2, q3 = quartiles(values)
    if q2 == 0.0:
        return 0.0 if q3 == q1 else math.inf
    return abs(q3 - q1) / abs(q2)
