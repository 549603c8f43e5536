"""Coordinated (gang) checkpointing — the paper's future-work extension.

The conclusion announces plans to "better suit high performance
computing applications like MPI programs with extremely large scales".
For a tightly coupled job, all ``m`` ranks checkpoint together and a
failure of *any* rank rolls the whole gang back to the last coordinated
checkpoint.  Theorem 1 extends directly: the gang's failure count is
the sum of the per-rank counts, so

    x*_gang = sqrt( Te · Σ_i E(Y_i) / (2 C_gang) )

where ``C_gang`` is the coordinated checkpoint cost (the slowest rank's
write, since ranks flush in parallel).  The naive alternative — sizing
intervals from a single rank's MNOF — under-checkpoints by a factor
``sqrt(m)``, and the penalty grows with scale; :func:`weak_scaling_table`
quantifies that.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.formulas import optimal_interval_count_int
from repro.core.simulate import TaskOutcome, simulate_task
from repro.failures.distributions import Exponential
from repro.failures.injector import FailureInjector, GangInjector

__all__ = [
    "WeakScalingRow",
    "gang_interval_count",
    "gang_mnof",
    "simulate_gang",
    "weak_scaling_table",
]


def gang_mnof(per_rank_mnof) -> float:
    """Expected gang failure count: the sum over ranks (failures are
    independent across ranks and any one interrupts everybody)."""
    arr = np.asarray(per_rank_mnof, dtype=float).ravel()
    if arr.size == 0:
        raise ValueError("a gang needs at least one rank")
    if np.any(arr < 0):
        raise ValueError("per-rank MNOF must be non-negative")
    return float(arr.sum())


def gang_interval_count(te: float, per_rank_mnof, checkpoint_cost: float,
                        restart_cost: float = 0.0) -> int:
    """Theorem 1 applied to the gang's aggregate failure process."""
    return int(
        optimal_interval_count_int(
            te, gang_mnof(per_rank_mnof), checkpoint_cost, restart_cost
        )
    )


def simulate_gang(
    te: float,
    intervals: int,
    checkpoint_cost: float,
    restart_cost: float,
    rank_scales,
    rng: np.random.Generator,
    restart_delay: float = 0.0,
) -> TaskOutcome:
    """Simulate one coordinated-checkpointing gang execution.

    ``rank_scales`` are the per-rank mean failure intervals (exponential
    renewal per rank); the gang's uptime segments are minima of fresh
    per-rank draws, then the standard segment arithmetic applies (all
    ranks progress and roll back in lockstep, so the gang behaves like
    one task with an aggregated failure clock).
    """
    scales = np.asarray(rank_scales, dtype=float).ravel()
    if scales.size == 0:
        raise ValueError("a gang needs at least one rank")
    if np.any(scales <= 0):
        raise ValueError("rank scales must be strictly positive")
    injector = GangInjector(
        [
            FailureInjector(Exponential(1.0 / s), rng)
            for s in scales
        ]
    )
    return simulate_task(
        te, intervals, checkpoint_cost, restart_cost, injector,
        restart_delay=restart_delay,
    )


@dataclass(frozen=True)
class WeakScalingRow:
    """One gang size of the weak-scaling comparison."""

    n_ranks: int
    x_gang_aware: int
    x_naive: int
    wpr_gang_aware: float
    wpr_naive: float

    @property
    def improvement(self) -> float:
        """WPR gained by sizing intervals for the aggregate failure rate."""
        return self.wpr_gang_aware - self.wpr_naive


def weak_scaling_table(
    rank_counts=(1, 4, 16, 64),
    te: float = 3600.0,
    rank_scale: float = 20_000.0,
    checkpoint_cost: float = 5.0,
    restart_cost: float = 10.0,
    n_samples: int = 200,
    seed: int = 0,
) -> list[WeakScalingRow]:
    """Gang-aware vs per-rank-naive checkpointing across gang sizes.

    Every rank fails with mean interval ``rank_scale``; the naive policy
    sizes intervals from one rank's MNOF (``te / rank_scale``), the
    gang-aware policy from the aggregate (``m ·`` that).  With more
    ranks, the naive plan under-checkpoints by ``sqrt(m)`` and its WPR
    decays — the classic exascale-checkpointing effect.
    """
    rows: list[WeakScalingRow] = []
    rank_mnof = te / rank_scale
    for m in rank_counts:
        scales = np.full(m, rank_scale)
        x_aware = max(1, gang_interval_count(
            te, np.full(m, rank_mnof), checkpoint_cost, restart_cost))
        x_naive = max(1, gang_interval_count(
            te, [rank_mnof], checkpoint_cost, restart_cost))
        wpr = {}
        # A fixed stream id per policy: ``hash(str)`` differs per process.
        for label, x, stream in (("aware", x_aware, 0), ("naive", x_naive, 1)):
            rng = np.random.default_rng((seed, m, stream))
            total_wall = 0.0
            for _ in range(n_samples):
                out = simulate_gang(
                    te, x, checkpoint_cost, restart_cost, scales, rng
                )
                total_wall += out.wallclock
            wpr[label] = te / (total_wall / n_samples)
        rows.append(
            WeakScalingRow(
                n_ranks=m,
                x_gang_aware=x_aware,
                x_naive=x_naive,
                wpr_gang_aware=wpr["aware"],
                wpr_naive=wpr["naive"],
            )
        )
    return rows
