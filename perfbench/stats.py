"""Percentiles from raw samples.

A percentile is the nearest-rank order statistic: the smallest sample with
at least ``p`` of the samples at or below it.  It is always an observed
value, so it can never exceed the observed maximum.
"""

from __future__ import annotations

import math
from typing import Sequence


def percentile(samples: Sequence[float], p: float) -> float:
    """The nearest-rank ``p``-quantile (``0 < p <= 1``) of ``samples``.

    Returns 0.0 for an empty sample.
    """
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p must be in (0, 1], got {p}")
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(p * len(ordered)) - 1)]


def median(samples: Sequence[float]) -> float:
    return percentile(samples, 0.5)


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, or 0.0 when nothing was counted."""
    return numerator / denominator if denominator else 0.0


def sliced_percentile(samples: Sequence[float], p: float, slices: int) -> float:
    """Median over ``slices`` consecutive equal parts of ``samples`` of their ``p``-quantile.

    With samples in time order, a burst of host noise confined to one or two
    parts leaves the result unmoved.  Each part's quantile is an observed
    value, so the result never exceeds the observed maximum.
    """
    size = len(samples) // slices
    if size == 0:
        return percentile(samples, p)
    parts = [samples[i * size : (i + 1) * size] for i in range(slices - 1)]
    parts.append(samples[(slices - 1) * size :])
    return median([percentile(part, p) for part in parts])
