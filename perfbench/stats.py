"""Order statistics shared by the benchmark and its steadiness check."""

from __future__ import annotations

import math
import statistics
from typing import Sequence


def percentile(values: Sequence[float], q: float) -> tuple[float, int]:
    """Nearest-rank ``q``-th percentile and the number of samples beyond it.

    The rank is ``ceil(q / 100 * n)``, so the value is an actual sample
    and exactly ``n - rank`` samples lie beyond it in sorted order.  A
    tail percentile is only meaningful when that count is at least ten.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3) exactly as ``statistics.quantiles(values, n=4)``."""
    if len(values) == 1:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else math.inf
