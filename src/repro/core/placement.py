"""§4.2.2 — choosing between local-ramdisk and shared-disk checkpoints.

Given a task's length, MNOF and a :class:`~repro.storage.blcr.BLCRModel`
pricing both targets, the selector compares the expected total
fault-tolerance cost of each target (the non-``Te`` terms of Eq. (4))::

    cost(target) = C_t (X_t - 1) + R_t E(Y) + Te E(Y) / (2 X_t)

where ``X_t`` is the Theorem 1 optimal count under that target's
checkpoint and restart costs.  Local ramdisks have cheap checkpoints
but expensive restarts (migration type A must stage the image through
shared disk); plain NFS/DM-NFS is the reverse.

:func:`resolve_tasks` is every tier's one path from a batch of task
profiles to ``(storage target, C, R, x)``; :func:`select_storage` is
the scalar reference the tests hold it to.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.formulas import optimal_interval_count_int
from repro.core.policies import CheckpointPolicy
from repro.storage.blcr import BLCRModel, MigrationType
from repro.storage.costmodel import (
    checkpoint_cost_local,
    checkpoint_cost_nfs,
    restart_cost,
)

__all__ = [
    "StorageDecision",
    "by_priority",
    "expected_total_cost",
    "resolve_tasks",
    "select_storage",
    "select_storage_batch",
    "storage_costs",
]


def expected_total_cost(
    te: float,
    mnof: float,
    checkpoint_cost: float,
    restart_cost: float,
    interval_count: int | None = None,
) -> float:
    """Expected fault-tolerance overhead (Eq. (4) minus ``Te``).

    If ``interval_count`` is omitted, the Theorem 1 optimum for the
    given checkpoint cost is used (this is what Algorithm 1 line 1
    evaluates for each storage target).
    """
    if te <= 0:
        raise ValueError(f"te must be positive, got {te}")
    if mnof < 0:
        raise ValueError(f"mnof must be >= 0, got {mnof}")
    if checkpoint_cost <= 0 or restart_cost < 0:
        raise ValueError("costs must be positive (checkpoint) / non-negative (restart)")
    x = (
        int(interval_count)
        if interval_count is not None
        else int(optimal_interval_count_int(te, mnof, checkpoint_cost))
    )
    if x < 1:
        raise ValueError(f"interval count must be >= 1, got {x}")
    return checkpoint_cost * (x - 1) + restart_cost * mnof + te * mnof / (2.0 * x)


@dataclass(frozen=True)
class StorageDecision:
    """Outcome of the local-vs-shared comparison for one task."""

    target: MigrationType
    cost_local: float
    cost_shared: float
    intervals_local: int
    intervals_shared: int

    @property
    def checkpoint_target_is_local(self) -> bool:
        """True when the local ramdisk wins (migration type A)."""
        return self.target is MigrationType.A

    @property
    def saving(self) -> float:
        """Expected seconds saved by the chosen target over the other."""
        return abs(self.cost_local - self.cost_shared)


def select_storage(te: float, mnof: float, blcr: BLCRModel) -> StorageDecision:
    """Pick the cheaper checkpoint target for a task (Algorithm 1, l.1–2).

    Reproduces the paper's worked example: for ``Te=200 s``, 160 MB and
    ``E(Y)=2``, local costs ≈28.3 s vs shared ≈37.8 s, so the local
    ramdisk wins.
    """
    if te <= 0:
        raise ValueError(f"te must be positive, got {te}")
    if mnof < 0:
        raise ValueError(f"mnof must be >= 0, got {mnof}")
    xl = int(optimal_interval_count_int(
        te, mnof, blcr.checkpoint_cost_local, blcr.restart_cost_local))
    xs = int(optimal_interval_count_int(
        te, mnof, blcr.checkpoint_cost_shared, blcr.restart_cost_shared))
    cost_l = expected_total_cost(
        te, mnof, blcr.checkpoint_cost_local, blcr.restart_cost_local, xl
    )
    cost_s = expected_total_cost(
        te, mnof, blcr.checkpoint_cost_shared, blcr.restart_cost_shared, xs
    )
    target = MigrationType.A if cost_l < cost_s else MigrationType.B
    return StorageDecision(
        target=target,
        cost_local=cost_l,
        cost_shared=cost_s,
        intervals_local=xl,
        intervals_shared=xs,
    )


def _check_inputs(te: np.ndarray, mnof: np.ndarray, mem: np.ndarray) -> None:
    if np.any(te <= 0):
        raise ValueError("te must be strictly positive")
    if np.any(mem <= 0):
        raise ValueError("mem_mb must be strictly positive")
    if np.any(mnof < 0):
        raise ValueError("mnof must be >= 0")


def select_storage_batch(
    te: np.ndarray,
    mnof: np.ndarray,
    mem_mb: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized §4.2.2 selection for a batch of tasks.

    Returns ``(local_wins, checkpoint_cost, restart_cost)`` — boolean
    mask plus the per-task costs of the *chosen* target; bit-identical
    to :func:`select_storage` task by task.
    """
    te_arr = np.asarray(te, dtype=float)
    mnof_arr = np.asarray(mnof, dtype=float)
    mem_arr = np.asarray(mem_mb, dtype=float)
    _check_inputs(te_arr, mnof_arr, mem_arr)

    cl = np.asarray(checkpoint_cost_local(mem_arr))
    cs = np.asarray(checkpoint_cost_nfs(mem_arr))
    rl = np.asarray(restart_cost(mem_arr, "A"))
    rs = np.asarray(restart_cost(mem_arr, "B"))
    xl = np.asarray(optimal_interval_count_int(te_arr, mnof_arr, cl, rl), dtype=float)
    xs = np.asarray(optimal_interval_count_int(te_arr, mnof_arr, cs, rs), dtype=float)
    cost_l = cl * (xl - 1) + rl * mnof_arr + te_arr * mnof_arr / (2.0 * xl)
    cost_s = cs * (xs - 1) + rs * mnof_arr + te_arr * mnof_arr / (2.0 * xs)
    local_wins = cost_l < cost_s
    ckpt = np.where(local_wins, cl, cs)
    rst = np.where(local_wins, rl, rs)
    return local_wins, ckpt, rst


def storage_costs(
    mode: str,
    te: np.ndarray,
    mnof: np.ndarray,
    mem_mb: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-task ``(local, checkpoint_cost, restart_cost)`` under a mode:
    ``"local"`` (type A), ``"nfs"``/``"dmnfs"``/``"shared"`` (type B,
    uncontended quote), or ``"auto"`` (:func:`select_storage_batch`).
    """
    if mode == "auto":
        return select_storage_batch(te, mnof, mem_mb)
    if mode not in ("local", "nfs", "dmnfs", "shared"):
        raise ValueError(f"unknown storage mode {mode!r}")
    mem = np.asarray(mem_mb, dtype=float)
    _check_inputs(np.asarray(te, dtype=float), np.asarray(mnof, dtype=float),
                  mem)
    local = mode == "local"
    ckpt = checkpoint_cost_local(mem) if local else checkpoint_cost_nfs(mem)
    return (
        np.full(mem.shape, local),
        np.asarray(ckpt, dtype=float),
        np.asarray(restart_cost(mem, "A" if local else "B"), dtype=float),
    )


def resolve_tasks(
    mode: str,
    policy: CheckpointPolicy,
    te: np.ndarray,
    mem_mb: np.ndarray,
    mnof: np.ndarray,
    mtbf: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Resolve a batch of tasks to ``(local, C, R, x)``: storage by
    :func:`storage_costs`, then ``policy``'s interval counts.  Raises
    :class:`ValueError` on a non-positive te, mem_mb or mtbf, or a
    negative mnof.
    """
    mtbf_arr = np.asarray(mtbf, dtype=float)
    if np.any(mtbf_arr <= 0):
        raise ValueError("mtbf must be strictly positive")
    local, ckpt, rst = storage_costs(mode, te, mnof, mem_mb)
    intervals = np.asarray(
        policy.interval_counts(te, ckpt, rst, mnof, mtbf_arr), dtype=np.int64
    )
    return local, ckpt, rst, intervals


def by_priority(
    values: dict[int, float], priority: np.ndarray, default: float
) -> np.ndarray:
    """Per-task array of ``values[priority]`` (``default`` when absent),
    looked up once per distinct priority."""
    groups, inverse = np.unique(np.asarray(priority, dtype=np.int64),
                                return_inverse=True)
    per_group = np.asarray(
        [values.get(int(p), default) for p in groups], dtype=float
    )
    return per_group[inverse]
