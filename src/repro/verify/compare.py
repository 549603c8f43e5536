"""Statistical tolerance machinery for cross-tier differential checks.

The three execution tiers implement one model but draw randomness
differently, so three strengths of agreement are meaningful:

* **bit-level** — identical per-task arrays (the scalar reference tier
  against itself across runs, and against the DES when both consume the
  same per-task seeded draw sequence under contention-free storage);
* **statistical** — two independent samples of the same distribution
  (scalar vs. vectorized): Welch mean gaps and a two-sample
  Kolmogorov-Smirnov statistic under generous multipliers;
* **loose** — a bounded ratio, for tiers whose models intentionally
  diverge (e.g. host crashes or storage contention exist only in the
  DES).

Every check yields a :class:`Check` record so reports are uniform and
machine-readable.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

__all__ = [
    "Check",
    "check_allclose",
    "check_array_equal",
    "check_ks",
    "check_mean_close",
    "check_ratio",
    "ks_statistic",
    "ks_threshold",
    "welch_se",
]

#: Welch z multiplier — generous so that a passing golden generation
#: stays deterministic-green forever, while a real semantic drift
#: (systematic mean shift) still trips it.
WELCH_MULT = 6.0
#: KS multiplier c in ``c * sqrt((n1+n2)/(n1*n2))`` (c=1.36 is the 5%
#: critical value; 2.5 corresponds to alpha ~ 4e-6).
KS_MULT = 2.5


@dataclass(frozen=True)
class Check:
    """Outcome of one tolerance check.

    ``observed`` and ``bound`` quantify how close the check was; a
    violated check has ``observed > bound`` (or a False predicate for
    exact checks, where both are informational).
    """

    name: str
    passed: bool
    observed: float
    bound: float
    detail: str = ""

    def to_dict(self) -> dict:
        """JSON-ready representation."""
        return asdict(self)


def welch_se(a: np.ndarray, b: np.ndarray) -> float:
    """Standard error of the mean difference of two samples."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    va = float(np.var(a, ddof=1)) if a.size > 1 else 0.0
    vb = float(np.var(b, ddof=1)) if b.size > 1 else 0.0
    return math.sqrt(va / max(a.size, 1) + vb / max(b.size, 1))


def ks_statistic(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample KS statistic ``sup |F_a - F_b|`` (vectorized)."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    if a.size == 0 or b.size == 0:
        return 0.0
    allv = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, allv, side="right") / a.size
    cdf_b = np.searchsorted(b, allv, side="right") / b.size
    return float(np.max(np.abs(cdf_a - cdf_b)))


def ks_threshold(n1: int, n2: int) -> float:
    """Critical KS distance for sample sizes ``n1``, ``n2``."""
    if n1 < 1 or n2 < 1:
        return 1.0
    return KS_MULT * math.sqrt((n1 + n2) / (n1 * n2))


# ----------------------------------------------------------------------
def check_mean_close(
    name: str,
    a: np.ndarray,
    b: np.ndarray,
    rel_slack: float = 0.0,
    abs_slack: float = 1e-9,
) -> Check:
    """Means of ``a`` and ``b`` agree within Welch noise plus slack.

    The bound is ``WELCH_MULT * SE + rel_slack * max(|mean|) +
    abs_slack`` — the slack terms absorb *intentional* small model gaps
    (e.g. storage contention priced only in the DES).
    """
    ma = float(np.mean(a))
    mb = float(np.mean(b))
    gap = abs(ma - mb)
    bound = (WELCH_MULT * welch_se(a, b)
             + rel_slack * max(abs(ma), abs(mb)) + abs_slack)
    return Check(
        name=name,
        passed=gap <= bound,
        observed=gap,
        bound=bound,
        detail=f"means {ma:.6g} vs {mb:.6g}",
    )


def check_ks(name: str, a: np.ndarray, b: np.ndarray) -> Check:
    """Two-sample KS distance below the critical threshold."""
    d = ks_statistic(a, b)
    bound = ks_threshold(np.asarray(a).size, np.asarray(b).size)
    return Check(
        name=name,
        passed=d <= bound,
        observed=d,
        bound=bound,
        detail=f"KS distance over {np.asarray(a).size}+{np.asarray(b).size} samples",
    )


def check_array_equal(name: str, a: np.ndarray, b: np.ndarray) -> Check:
    """Bit-level agreement of two integer/bool arrays."""
    a = np.asarray(a)
    b = np.asarray(b)
    mismatches = int(np.sum(a != b)) if a.shape == b.shape else max(a.size, b.size)
    return Check(
        name=name,
        passed=mismatches == 0,
        observed=float(mismatches),
        bound=0.0,
        detail=f"{mismatches} of {a.size} entries differ",
    )


def check_allclose(
    name: str,
    a: np.ndarray,
    b: np.ndarray,
    rtol: float = 1e-7,
    atol: float = 1e-6,
) -> Check:
    """Element-wise float agreement up to accumulation noise."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        return Check(name, False, float("inf"), atol, "shape mismatch")
    err = np.abs(a - b) - rtol * np.abs(b)
    worst = float(np.max(err)) if err.size else 0.0
    return Check(
        name=name,
        passed=bool(np.allclose(a, b, rtol=rtol, atol=atol)),
        observed=max(worst, 0.0),
        bound=atol,
        detail=f"max excess abs error over {a.size} entries",
    )


def check_ratio(
    name: str, a: np.ndarray, b: np.ndarray, lo: float = 0.5, hi: float = 3.0
) -> Check:
    """Mean ratio ``mean(a)/mean(b)`` inside ``[lo, hi]`` (loose mode)."""
    ma = float(np.mean(a))
    mb = float(np.mean(b))
    ratio = ma / mb if mb != 0 else float("inf")
    return Check(
        name=name,
        passed=lo <= ratio <= hi,
        observed=ratio,
        bound=hi,
        detail=f"means {ma:.6g} vs {mb:.6g}, allowed [{lo}, {hi}]",
    )
