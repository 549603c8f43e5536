"""Workload-Processing Ratio (Eq. 9 of the paper).

``WPR(J) = workload processed / real wall-clock length`` — the valid
execution saved by checkpoints divided by the duration from submission
to completion, including every fault-tolerance and scheduling overhead.

For multi-task jobs the paper leaves aggregation implicit; we use the
task-time-weighted form ``Σ work_i / Σ Tw_i``, which
coincides with the paper's definition for sequential-task jobs and
preserves orderings for bag-of-task jobs.

Canonical clamping semantics
----------------------------
Every WPR in the codebase is ``clamp(work / wallclock)``:

* the ratio is clamped to ``[0, 1]`` — WPR is a fraction of useful
  time, and ``work == wallclock`` (a failure-free, overhead-free run)
  is the best case, so values above 1 can only be float noise;
* ``wallclock <= 0`` maps to ``0.0`` — "no time elapsed" means no
  workload was processed (only reachable for degenerate inputs).

:func:`wpr_ratio` / :func:`wpr_array` implement this in scalar and
vectorized form; the simulation tiers (``TaskOutcome.wpr``,
``SimulationResult.wpr``) and the validating wrappers below all
delegate to them, so there is exactly one definition.
"""

from __future__ import annotations

import numpy as np

__all__ = ["job_wpr", "task_wpr", "wpr_array", "wpr_from_arrays", "wpr_ratio"]


def wpr_ratio(work_processed: float, wallclock: float) -> float:
    """Canonical scalar WPR: ``work / wallclock`` clamped to ``[0, 1]``,
    with ``wallclock <= 0`` mapping to ``0.0`` (no validation)."""
    if wallclock <= 0:
        return 0.0
    return min(1.0, max(0.0, work_processed / wallclock))


def wpr_array(work: np.ndarray, wallclock: np.ndarray) -> np.ndarray:
    """Canonical vectorized WPR (same semantics as :func:`wpr_ratio`)."""
    work = np.asarray(work, dtype=float)
    wall = np.asarray(wallclock, dtype=float)
    out = np.zeros(np.broadcast_shapes(work.shape, wall.shape))
    mask = wall > 0
    np.divide(work, wall, out=out, where=mask)
    return np.clip(out, 0.0, 1.0)


def task_wpr(work_processed: float, wallclock: float) -> float:
    """WPR of a single task (validating wrapper over :func:`wpr_ratio`)."""
    if wallclock <= 0:
        raise ValueError(f"wallclock must be positive, got {wallclock}")
    if work_processed < 0:
        raise ValueError(f"work must be >= 0, got {work_processed}")
    if work_processed > wallclock * (1 + 1e-9):
        raise ValueError(
            f"work ({work_processed}) cannot exceed wallclock ({wallclock})"
        )
    return wpr_ratio(work_processed, wallclock)


def job_wpr(work_processed, wallclocks) -> float:
    """Task-time-weighted WPR of a job: ``Σ work_i / Σ Tw_i``."""
    w = np.asarray(work_processed, dtype=float)
    t = np.asarray(wallclocks, dtype=float)
    if w.shape != t.shape:
        raise ValueError(f"shape mismatch: work {w.shape} vs wallclock {t.shape}")
    if w.size == 0:
        raise ValueError("a job has at least one task")
    if np.any(t <= 0) or np.any(w < 0):
        raise ValueError("wallclocks must be positive and work non-negative")
    return float(min(1.0, w.sum() / t.sum()))


def wpr_from_arrays(work: np.ndarray, wall: np.ndarray, job_ids: np.ndarray) -> np.ndarray:
    """Vectorized per-job WPR from flat per-task arrays.

    ``job_ids`` groups tasks; the result is ordered by ascending job id.
    """
    work = np.asarray(work, dtype=float)
    wall = np.asarray(wall, dtype=float)
    ids = np.asarray(job_ids)
    if not (work.shape == wall.shape == ids.shape):
        raise ValueError("work, wall and job_ids must share one shape")
    if np.any(wall <= 0) or np.any(work < 0):
        raise ValueError("wallclocks must be positive and work non-negative")
    uniq, inverse = np.unique(ids, return_inverse=True)
    sums_w = np.bincount(inverse, weights=work, minlength=uniq.size)
    sums_t = np.bincount(inverse, weights=wall, minlength=uniq.size)
    return np.minimum(1.0, sums_w / sums_t)
