"""Percentiles with the sample-count rule, and run-to-run spread."""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: A percentile is reported only with at least this many samples beyond
#: it; with fewer, the tail it claims to describe was not observed.
MIN_BEYOND = 10


def samples_beyond(n: int, q: float) -> int:
    """Samples strictly above the nearest-rank *q* percentile of *n*."""
    return n - max(1, math.ceil(q * n))


def min_samples(q: float) -> int:
    """Smallest sample count whose *q* percentile has ``MIN_BEYOND``
    samples beyond it (1000 for p99)."""
    n = 1
    while samples_beyond(n, q) < MIN_BEYOND:
        n += 1
    return n


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank *q* percentile; refuses a tail too thin to report."""
    n = len(values)
    if samples_beyond(n, q) < MIN_BEYOND and q > 0.5:
        raise ValueError(
            f"p{q * 100:g} of {n} samples has {max(0, samples_beyond(n, q))} "
            f"beyond it; need {MIN_BEYOND} ({min_samples(q)} samples)"
        )
    if not n:
        raise ValueError("no samples")
    return sorted(values)[max(1, math.ceil(q * n)) - 1]


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile, as a share of the
    median (``statistics.quantiles(values, n=4)``)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else math.inf
