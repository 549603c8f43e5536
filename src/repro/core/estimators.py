"""MNOF / MTBF estimation from observed failure histories.

The paper estimates both statistics from historical task events,
grouped by priority and optionally restricted to tasks below a length
cap (Table 7).  The crucial asymmetry it exploits:

* **MNOF** (mean number of failures per task) is an average of small
  integers — robust under heavy-tailed intervals;
* **MTBF** (mean observed interval) is dominated by the rare enormous
  intervals of a Pareto-like population — so Young's formula, fed the
  sample MTBF, picks intervals that are far too long for short tasks.

:class:`GroupedFailureEstimator` implements exactly the paper's
estimation procedure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GroupStats",
    "GroupedFailureEstimator",
    "mnof_from_counts",
    "mtbf_from_intervals",
]


def mnof_from_counts(failure_counts) -> float:
    """MNOF = mean of per-task failure counts.

    >>> mnof_from_counts([0, 1, 2, 1])
    1.0
    """
    arr = np.asarray(failure_counts, dtype=float)
    if arr.size == 0:
        raise ValueError("need at least one task to estimate MNOF")
    if np.any(arr < 0):
        raise ValueError("failure counts must be non-negative")
    return float(np.mean(arr))


def mtbf_from_intervals(intervals) -> float:
    """MTBF = mean of observed uninterrupted intervals.

    Returns ``inf`` when no interval was ever observed (a failure-free
    history gives Young's formula nothing to work with).
    """
    arr = np.asarray(intervals, dtype=float)
    if arr.size == 0:
        return math.inf
    if np.any(arr <= 0):
        raise ValueError("intervals must be strictly positive")
    return float(np.mean(arr))


@dataclass(frozen=True)
class GroupStats:
    """Estimated statistics of one (priority, length-cap) group."""

    priority: int
    length_cap: float
    n_tasks: int
    n_failures: int
    mnof: float
    mtbf: float


class GroupedFailureEstimator:
    """Per-priority MNOF/MTBF estimation with optional task-length caps.

    Feed the estimator one record per historical task — its priority,
    productive length, number of failures, and the observed
    uninterrupted intervals — then query group statistics the way the
    paper's evaluation does (Table 7, Figs. 9–13).
    """

    def __init__(self) -> None:
        self._tasks: list[tuple[int, float, int, tuple[float, ...]]] = []

    # ------------------------------------------------------------------
    def add_task(
        self,
        priority: int,
        te: float,
        n_failures: int,
        intervals,
    ) -> None:
        """Record one task's failure history.

        ``intervals`` are the observed uninterrupted execution lengths
        (one per failure; the final censored run may be included or not,
        matching whatever the trace records).
        """
        if te <= 0:
            raise ValueError(f"te must be positive, got {te}")
        if n_failures < 0:
            raise ValueError(f"n_failures must be >= 0, got {n_failures}")
        ivs = tuple(float(v) for v in np.asarray(intervals, dtype=float).ravel())
        if any(v <= 0 for v in ivs):
            raise ValueError("intervals must be strictly positive")
        self._tasks.append((int(priority), float(te), int(n_failures), ivs))

    @property
    def n_tasks(self) -> int:
        """Number of recorded task histories."""
        return len(self._tasks)

    def priorities(self) -> tuple[int, ...]:
        """Distinct priorities seen, ascending."""
        return tuple(sorted({p for p, _, _, _ in self._tasks}))

    # ------------------------------------------------------------------
    def group_stats(
        self, priority: int, length_cap: float = math.inf
    ) -> GroupStats:
        """MNOF & MTBF over tasks of ``priority`` with ``te <= length_cap``.

        Raises ``KeyError`` when the group is empty (the paper likewise
        drops priorities with no observed failures/completions).
        """
        counts: list[int] = []
        intervals: list[float] = []
        for p, te, k, ivs in self._tasks:
            if p == priority and te <= length_cap:
                counts.append(k)
                intervals.extend(ivs)
        if not counts:
            raise KeyError(
                f"no tasks with priority={priority} and te<={length_cap}"
            )
        return GroupStats(
            priority=priority,
            length_cap=length_cap,
            n_tasks=len(counts),
            n_failures=int(sum(counts)),
            mnof=mnof_from_counts(counts),
            mtbf=mtbf_from_intervals(intervals),
        )

    def table(self, length_caps=(1000.0, 3600.0, math.inf)) -> list[GroupStats]:
        """All (priority, cap) group statistics — the Table 7 layout."""
        out: list[GroupStats] = []
        for cap in length_caps:
            for p in self.priorities():
                try:
                    out.append(self.group_stats(p, cap))
                except KeyError:
                    continue
        return out

    def mnof_lookup(self, length_cap: float = math.inf) -> dict[int, float]:
        """priority → MNOF map for policy evaluation."""
        out: dict[int, float] = {}
        for p in self.priorities():
            try:
                out[p] = self.group_stats(p, length_cap).mnof
            except KeyError:
                continue
        return out

    def mtbf_lookup(self, length_cap: float = math.inf) -> dict[int, float]:
        """priority → MTBF map for policy evaluation."""
        out: dict[int, float] = {}
        for p in self.priorities():
            try:
                out[p] = self.group_stats(p, length_cap).mtbf
            except KeyError:
                continue
        return out
