"""Trace statistics: Fig. 4/8 CDFs and the Table 7 MNOF/MTBF grid.

These functions mine a :class:`~repro.trace.models.Trace` exactly the
way the paper mines the Google trace: uninterrupted-interval
populations per priority, job-level memory/length CDFs per structure,
and per-(priority, length-cap) MNOF & MTBF estimates.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.estimators import GroupStats, GroupedFailureEstimator
from repro.metrics.cdf import ecdf
from repro.trace.models import JobType, Trace

__all__ = [
    "build_estimator",
    "interval_cdf_by_priority",
    "job_length_cdf",
    "job_memory_cdf",
    "mnof_mtbf_table",
]


def build_estimator(trace: Trace, use_observed: bool = True) -> GroupedFailureEstimator:
    """Feed every task's historical failure record into a
    :class:`~repro.core.estimators.GroupedFailureEstimator`.

    ``use_observed=True`` (default) feeds the *recorded* interval
    series — true intervals polluted by detection/resubmission delays —
    which is what a deployed estimator sees (the paper's §4.1 point
    about unreliable failure timestamps).  Pass ``False`` for the
    idealized clean-timestamp estimator.
    """
    est = GroupedFailureEstimator()
    for task in trace.tasks():
        ivs = task.recorded_intervals if use_observed else task.failure_intervals
        est.add_task(task.priority, task.te, task.n_failures, ivs)
    return est


def interval_cdf_by_priority(trace: Trace) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Fig. 4: per-priority ECDF of uninterrupted task intervals.

    Returns ``{priority: (sorted_intervals, cdf)}`` for priorities that
    observed at least one failure interval.
    """
    pools: dict[int, list[float]] = {}
    for task in trace.tasks():
        if task.failure_intervals:
            pools.setdefault(task.priority, []).extend(task.failure_intervals)
    return {p: ecdf(v) for p, v in sorted(pools.items())}


def all_intervals(trace: Trace, priority: int | None = None) -> np.ndarray:
    """Flat array of observed failure intervals (optionally one priority)."""
    vals: list[float] = []
    for task in trace.tasks():
        if priority is None or task.priority == priority:
            vals.extend(task.failure_intervals)
    return np.asarray(vals, dtype=float)


def _cdf_by_structure(trace: Trace, value) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """ECDF of ``value(job)`` over ST / BoT / mixture jobs; a structure
    with no jobs gets two empty arrays."""
    out: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for group, job_type in (("ST", JobType.SEQUENTIAL),
                            ("BOT", JobType.BAG_OF_TASKS), ("mix", None)):
        vals = np.asarray([value(j) for j in trace
                           if job_type is None or j.job_type is job_type],
                          dtype=float)
        out[group] = ecdf(vals) if vals.size else (vals, vals)
    return out


def job_memory_cdf(trace: Trace) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Fig. 8(a): ECDF of job memory size for ST / BoT / mixture.

    Job memory is the largest task footprint (what placement must fit).
    """
    return _cdf_by_structure(trace, lambda j: j.max_mem_mb)


def job_length_cdf(trace: Trace) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Fig. 8(b): ECDF of job execution length for ST / BoT / mixture."""
    return _cdf_by_structure(trace, lambda j: j.length)


def mnof_mtbf_table(
    trace: Trace,
    length_caps: tuple[float, ...] = (1000.0, 3600.0, math.inf),
    priorities: tuple[int, ...] | None = None,
    by_type: bool = True,
) -> dict[str, list[GroupStats]]:
    """Table 7: MNOF & MTBF per (priority, length cap), per job type.

    Returns ``{"ST": [...], "BOT": [...], "mix": [...]}`` when
    ``by_type`` (groups with no tasks are omitted, like the paper drops
    priorities without failure events).
    """
    def _table(sub: Trace) -> list[GroupStats]:
        est = build_estimator(sub)
        prios = priorities if priorities is not None else est.priorities()
        rows: list[GroupStats] = []
        for cap in length_caps:
            for p in prios:
                try:
                    rows.append(est.group_stats(p, cap))
                except KeyError:
                    continue
        return rows

    if not by_type:
        return {"mix": _table(trace)}
    return {
        "ST": _table(trace.by_type(JobType.SEQUENTIAL)),
        "BOT": _table(trace.by_type(JobType.BAG_OF_TASKS)),
        "mix": _table(trace),
    }
