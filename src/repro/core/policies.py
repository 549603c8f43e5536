"""Checkpoint policies: task profile → number of equidistant intervals.

A policy encapsulates one of the formulas under comparison in the
paper's evaluation.  Each policy consumes a :class:`TaskProfile` —
the task's productive length plus whatever failure statistics the
deployment *believes* (true values for the Table 6 oracle runs,
per-priority estimates for the Fig. 9–13 runs) — and returns an integer
interval count ``x >= 1`` (``x - 1`` checkpoints).

Every policy also answers for a whole batch at once
(``interval_counts``, arrays in, int64 counts out); that is what
:func:`repro.core.placement.resolve_tasks` calls for every tier.  The
scalar ``interval_count`` is the per-task reference the tests hold the
batch form to.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, replace

import numpy as np

from repro.core.formulas import (
    daly_interval,
    interval_to_count,
    optimal_interval_count_int,
    young_interval,
)

__all__ = [
    "CheckpointPolicy",
    "DalyPolicy",
    "FixedCountPolicy",
    "FixedIntervalPolicy",
    "NoCheckpointPolicy",
    "OptimalCountPolicy",
    "TaskProfile",
    "YoungPolicy",
]


@dataclass(frozen=True)
class TaskProfile:
    """Inputs a checkpoint policy may consult.

    Parameters
    ----------
    te:
        Productive execution time, seconds.
    checkpoint_cost:
        Per-checkpoint cost ``C``, seconds.
    restart_cost:
        Per-failure restart cost ``R``, seconds.
    mnof:
        Believed expected number of failures ``E(Y)`` for this task.
    mtbf:
        Believed mean time between failures (Young's/Daly's input).
    priority:
        Task priority (carried through for reporting; not used by the
        formulas themselves).
    """

    te: float
    checkpoint_cost: float
    restart_cost: float = 0.0
    mnof: float = 0.0
    mtbf: float = float("inf")
    priority: int = 1

    def __post_init__(self) -> None:
        if self.te <= 0:
            raise ValueError(f"te must be positive, got {self.te}")
        if self.checkpoint_cost <= 0:
            raise ValueError(
                f"checkpoint cost must be positive, got {self.checkpoint_cost}"
            )
        if self.restart_cost < 0:
            raise ValueError(f"restart cost must be >= 0, got {self.restart_cost}")
        if self.mnof < 0:
            raise ValueError(f"mnof must be >= 0, got {self.mnof}")
        if self.mtbf <= 0:
            raise ValueError(f"mtbf must be positive, got {self.mtbf}")

    def with_remaining(self, remaining_te: float, remaining_mnof: float) -> "TaskProfile":
        """Profile for the remaining portion of a partially executed task
        (used by the adaptive runtime after each checkpoint)."""
        return replace(self, te=remaining_te, mnof=remaining_mnof)


class CheckpointPolicy(ABC):
    """Strategy interface for choosing the interval count."""

    #: short name used in experiment reports
    name: str = "abstract"

    @abstractmethod
    def interval_count(self, profile: TaskProfile) -> int:
        """Number of equidistant intervals (``>= 1``) for one task."""

    @abstractmethod
    def interval_counts(
        self,
        te: np.ndarray,
        checkpoint_cost: np.ndarray,
        restart_cost: np.ndarray,
        mnof: np.ndarray,
        mtbf: np.ndarray,
    ) -> np.ndarray:
        """Interval counts for a batch of tasks; equal to
        :meth:`interval_count` task by task."""

    def checkpoint_interval(self, profile: TaskProfile) -> float:
        """Interval length ``Te / x`` implied by this policy."""
        return profile.te / self.interval_count(profile)

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class OptimalCountPolicy(CheckpointPolicy):
    """The paper's Formula (3): ``x* = sqrt(Te * E(Y) / (2 C))``.

    Distribution-free; only needs the expected failure count (MNOF).
    """

    name = "formula3"

    def interval_count(self, profile: TaskProfile) -> int:
        return int(
            optimal_interval_count_int(
                profile.te, profile.mnof, profile.checkpoint_cost,
                profile.restart_cost,
            )
        )

    def interval_counts(self, te, checkpoint_cost, restart_cost, mnof, mtbf):
        return np.atleast_1d(
            optimal_interval_count_int(te, mnof, checkpoint_cost, restart_cost)
        )


class _MTBFFormulaPolicy(CheckpointPolicy):
    """An interval formula ``Tc = formula(C, MTBF)`` applied to a finite
    task: ``x = max(1, round(Te / Tc))``, and ``x = 1`` when no failure
    is expected (infinite MTBF)."""

    #: ``(checkpoint_cost, mtbf) -> interval``, vectorized
    formula = None

    def interval_count(self, profile: TaskProfile) -> int:
        if not np.isfinite(profile.mtbf):
            return 1
        tc = float(self.formula(profile.checkpoint_cost, profile.mtbf))
        return int(interval_to_count(profile.te, tc))

    def interval_counts(self, te, checkpoint_cost, restart_cost, mnof, mtbf):
        mtbf = np.asarray(mtbf, float)
        finite = np.isfinite(mtbf)
        tc = np.maximum(self.formula(np.asarray(checkpoint_cost, float),
                                     np.where(finite, mtbf, 1.0)), 1e-9)
        counts = np.maximum(np.round(np.asarray(te, float) / tc), 1.0)
        return np.atleast_1d(np.where(finite, counts.astype(np.int64), 1))


class YoungPolicy(_MTBFFormulaPolicy):
    """Young's formula ``Tc = sqrt(2 C Tf)`` applied to a finite task."""

    name = "young"
    formula = staticmethod(young_interval)


class DalyPolicy(_MTBFFormulaPolicy):
    """Daly's higher-order formula, applied like Young's."""

    name = "daly"
    formula = staticmethod(daly_interval)


class FixedIntervalPolicy(CheckpointPolicy):
    """Checkpoint every ``interval`` seconds of progress (ablation baseline)."""

    name = "fixed-interval"

    def __init__(self, interval: float):
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self.interval = float(interval)

    def interval_count(self, profile: TaskProfile) -> int:
        return int(interval_to_count(profile.te, self.interval))

    def interval_counts(self, te, checkpoint_cost, restart_cost, mnof, mtbf):
        te = np.asarray(te, float)
        return np.atleast_1d(
            np.maximum(np.round(te / self.interval), 1.0).astype(np.int64)
        )

    def __repr__(self) -> str:
        return f"FixedIntervalPolicy(interval={self.interval})"


class FixedCountPolicy(CheckpointPolicy):
    """Always use exactly ``count`` intervals (ablation baseline)."""

    name = "fixed-count"

    def __init__(self, count: int):
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        self.count = int(count)

    def interval_count(self, profile: TaskProfile) -> int:
        return self.count

    def interval_counts(self, te, checkpoint_cost, restart_cost, mnof, mtbf):
        te = np.asarray(te, float)
        return np.full(np.atleast_1d(te).shape, self.count, dtype=np.int64)

    def __repr__(self) -> str:
        return f"FixedCountPolicy(count={self.count})"


class NoCheckpointPolicy(FixedCountPolicy):
    """Never checkpoint (``x = 1``); the do-nothing baseline."""

    name = "none"

    def __init__(self) -> None:
        super().__init__(1)

    def __repr__(self) -> str:
        return "NoCheckpointPolicy()"
