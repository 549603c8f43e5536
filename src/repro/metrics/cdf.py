"""Empirical CDF utilities: the ECDF, tail fractions and quantiles."""

from __future__ import annotations

import numpy as np

__all__ = ["ecdf", "fraction_above", "fraction_below", "quantile"]


def ecdf(values) -> tuple[np.ndarray, np.ndarray]:
    """Sorted sample and right-continuous ECDF heights.

    >>> xs, ys = ecdf([3.0, 1.0, 2.0])
    >>> xs.tolist(), ys.tolist()
    ([1.0, 2.0, 3.0], [0.3333333333333333, 0.6666666666666666, 1.0])
    """
    xs = np.sort(np.asarray(values, dtype=float).ravel())
    if xs.size == 0:
        raise ValueError("ecdf needs at least one value")
    ys = np.arange(1, xs.size + 1) / xs.size
    return xs, ys


def fraction_below(values, threshold: float) -> float:
    """Fraction of the sample strictly below ``threshold``."""
    arr = np.asarray(values, dtype=float).ravel()
    if arr.size == 0:
        raise ValueError("fraction_below needs at least one value")
    return float(np.mean(arr < threshold))


def fraction_above(values, threshold: float) -> float:
    """Fraction of the sample strictly above ``threshold``."""
    arr = np.asarray(values, dtype=float).ravel()
    if arr.size == 0:
        raise ValueError("fraction_above needs at least one value")
    return float(np.mean(arr > threshold))


def quantile(values, q: float) -> float:
    """The ``q``-quantile of the sample (linear interpolation)."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must lie in [0,1], got {q}")
    arr = np.asarray(values, dtype=float).ravel()
    if arr.size == 0:
        raise ValueError("quantile needs at least one value")
    return float(np.quantile(arr, q))
