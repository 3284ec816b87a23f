"""Percentiles with a support rule, and admission-quality scores."""

from __future__ import annotations

import math
from typing import Sequence, Tuple

import numpy as np

#: A percentile is printed only with at least this many samples above it.
MIN_BEYOND = 10


class UnsupportedPercentile(ValueError):
    """Too few samples lie beyond the requested percentile."""


def beyond(n: int, q: float) -> int:
    """Number of the ``n`` ranked samples above the ``q``-th percentile."""
    return n - math.ceil(q / 100.0 * n)


def percentile(samples: Sequence[float], q: float) -> Tuple[float, int]:
    """The ``q``-th percentile (linear interpolation) and its sample count.

    Raises :class:`UnsupportedPercentile` unless at least
    :data:`MIN_BEYOND` samples lie beyond it; the median needs the same.
    """
    n = len(samples)
    if beyond(n, q) < MIN_BEYOND:
        raise UnsupportedPercentile(
            f"p{q:g} of {n} samples has {max(beyond(n, q), 0)} beyond it; "
            f"need {MIN_BEYOND}"
        )
    return float(np.percentile(np.asarray(samples, dtype=float), q)), n


def confusion(y_true: Sequence[int], y_pred: Sequence[int]) -> Tuple[int, int, int, int]:
    """(tp, fp, fn, tn) with +1 as the positive (admit) class."""
    t = np.asarray(y_true)
    p = np.asarray(y_pred)
    return (
        int(np.sum((p == 1) & (t == 1))),
        int(np.sum((p == 1) & (t == -1))),
        int(np.sum((p == -1) & (t == 1))),
        int(np.sum((p == -1) & (t == -1))),
    )


def quality(tp: int, fp: int, fn: int, tn: int) -> Tuple[float, float, float]:
    """(precision, recall, accuracy); NaN where a denominator is zero."""
    nan = float("nan")
    precision = tp / (tp + fp) if tp + fp else nan
    recall = tp / (tp + fn) if tp + fn else nan
    total = tp + fp + fn + tn
    return precision, recall, ((tp + tn) / total if total else nan)
