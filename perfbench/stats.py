"""Order statistics shared by the workloads, the tracer and compare mode."""

from __future__ import annotations

import statistics

#: The tail percentile is the highest one with at least this many
#: samples strictly beyond it.
TAIL_BEYOND = 10


def tail(values: "list[float]") -> tuple[float, float]:
    """``(value, percentile)`` of the highest percentile that still has
    :data:`TAIL_BEYOND` samples beyond it.

    With ``n`` samples that is the ``(n - 10)``-th smallest, i.e. the
    ``100 * (n - 10) / n`` percentile.  Below ``n = 21`` that percentile
    is at or under the median and no tail exists; the maximum is
    reported instead (percentile 100).
    """
    if not values:
        raise ValueError("tail of an empty sample")
    ordered = sorted(values)
    n = len(ordered)
    if n <= 2 * TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def median(values: "list[float]") -> float:
    return float(statistics.median(values))


def geomean(values: "list[float]") -> float:
    return float(statistics.geometric_mean(values))
