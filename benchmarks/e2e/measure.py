"""Measurement rules shared by the runner, the ledger and the comparison.

* Timings are reported as the median and the *tail*: the highest percentile
  (at most p99) that still has at least ten samples beyond it, so a tail is
  never read off a handful of points.  Percentiles use the nearest-rank
  definition, which makes "samples beyond it" exact.
* The sustainable rate is found by bisection over a fixed range.
"""

from __future__ import annotations

import math
import statistics
from typing import Awaitable, Callable, Optional, Sequence, Tuple

#: Samples that must lie beyond a reported tail percentile.
TAIL_SAMPLES = 10


def tail_percentile(count: int) -> Optional[float]:
    """The highest percentile, capped at 99, with ``TAIL_SAMPLES`` samples beyond it.

    ``None`` when ``count`` is too small for any percentile to qualify.
    """
    if count <= TAIL_SAMPLES:
        return None
    return min(99.0, 100.0 * (count - TAIL_SAMPLES) / count)


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest value with ``pct``% of samples at or below it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    # The epsilon keeps float error (0.99 * 1000 = 990.0000000000001) from
    # moving the rank up one, which would leave one sample fewer beyond it.
    rank = max(1, math.ceil(pct / 100.0 * len(ordered) - 1e-9))
    return ordered[rank - 1]


def tail(values: Sequence[float]) -> Tuple[float, float]:
    """``(percentile, value)`` of the tail; the maximum when the sample is too small."""
    pct = tail_percentile(len(values))
    if pct is None:
        return 100.0, max(values)
    return pct, percentile(values, pct)


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sample (0.0 for an empty one, for layers that did no work)."""
    return float(statistics.median(values)) if values else 0.0


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        value = float(values[0])
        return value, value, value
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (0.0 when the median is 0)."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


async def bisect_rate(
    probe: Callable[[float], Awaitable[bool]], low: float, high: float, probes: int
) -> Tuple[float, bool]:
    """Highest passing rate in ``[low, high]`` found with ``probes`` bisection steps.

    Each step probes the midpoint of the current interval and keeps the
    half the result points to.  Returns ``(rate, verified)``: the highest
    rate that passed, or ``low`` unverified when no probe passed.
    """
    best, verified = low, False
    for _ in range(probes):
        mid = (low + high) / 2.0
        if await probe(mid):
            best, verified, low = mid, True, mid
        else:
            high = mid
    return best, verified
