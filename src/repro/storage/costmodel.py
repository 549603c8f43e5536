"""Calibration tables and interpolators for BLCR checkpoint/restart costs.

All constants below are the paper's own measurements on Gideon-II
(25 repetitions per point):

* Fig. 7 — per-checkpoint cost grows linearly with memory size, and the
  total cost linearly with the number of checkpoints.  For memory sizes
  in [10, 240] MB the per-checkpoint cost spans [0.016, 0.99] s on a
  local ramdisk and [0.25, 2.52] s on NFS.
* Table 2 — simultaneous checkpointing: local-ramdisk cost is flat in
  the parallel degree, NFS cost grows roughly linearly (congestion /
  synchronization on the NFS server).
* Table 3 — DM-NFS keeps the cost flat (<2 s) because each checkpoint
  picks a random per-host NFS server.
* Table 4 — single checkpoint *operation* time over shared disk vs
  memory size (the blocking time of one `cr_checkpoint` call).
* Table 5 — restart cost vs memory size for migration type A (checkpoint
  on the failed host's local ramdisk — restart must fetch it via shared
  disk) and type B (checkpoint already on shared disk).

Interpolation is linear inside the measured range and linearly
extrapolated outside it (clamped at a small positive floor), which
matches the paper's "cost is linear in memory size" characterization.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = [
    "CHECKPOINT_OP_TABLE",
    "LOCAL_CONTENTION_AVG",
    "LOCAL_COST_RANGE",
    "MEM_RANGE_MB",
    "NFS_CONTENTION_AVG",
    "NFS_COST_RANGE",
    "RESTART_TABLE_A",
    "RESTART_TABLE_B",
    "checkpoint_cost_local",
    "checkpoint_cost_nfs",
    "checkpoint_op_time",
    "contention_factor_nfs",
    "dmnfs_cost",
    "restart_cost",
]

#: Memory range covered by the Fig. 7 measurements, MB.
MEM_RANGE_MB: tuple[float, float] = (10.0, 240.0)
#: Per-checkpoint cost endpoints over local ramdisk, seconds (Fig. 7a).
LOCAL_COST_RANGE: tuple[float, float] = (0.016, 0.99)
#: Per-checkpoint cost endpoints over NFS, seconds (Fig. 7b).
NFS_COST_RANGE: tuple[float, float] = (0.25, 2.52)

#: Table 4 — checkpoint operation time over shared disk, (MB, seconds).
CHECKPOINT_OP_TABLE: tuple[tuple[float, float], ...] = (
    (10.3, 0.33),
    (22.3, 0.42),
    (42.3, 0.60),
    (46.3, 0.66),
    (82.4, 1.46),
    (86.4, 1.75),
    (90.4, 2.09),
    (94.4, 2.34),
    (162.0, 3.68),
    (174.0, 4.95),
    (212.0, 5.47),
    (240.0, 6.83),
)

#: Table 5 — restart cost vs memory size, seconds.
_RESTART_MEM = (10.0, 20.0, 40.0, 80.0, 160.0, 240.0)
RESTART_TABLE_A: tuple[float, ...] = (0.71, 0.84, 1.23, 1.87, 3.22, 5.69)
RESTART_TABLE_B: tuple[float, ...] = (0.37, 0.49, 0.54, 0.86, 1.45, 2.40)

#: Table 2 — average checkpoint cost at 160 MB vs parallel degree.
LOCAL_CONTENTION_AVG: tuple[float, ...] = (0.632, 0.81, 0.74, 0.59, 0.58)
NFS_CONTENTION_AVG: tuple[float, ...] = (1.67, 2.665, 5.38, 6.25, 8.95)
#: Table 3 — DM-NFS average cost vs parallel degree (flat).
DMNFS_CONTENTION_AVG: tuple[float, ...] = (1.67, 1.49, 1.63, 1.75, 1.74)

#: No checkpoint is ever free; floor applied after extrapolation.
_MIN_COST = 1e-3


def _linear(mem_mb, lo_cost: float, hi_cost: float):
    """Linear in memory over :data:`MEM_RANGE_MB`, extrapolated outside.

    Accepts scalars or arrays (broadcasting); scalars come back as float.
    """
    lo_mem, hi_mem = MEM_RANGE_MB
    slope = (hi_cost - lo_cost) / (hi_mem - lo_mem)
    mem = np.asarray(mem_mb, dtype=float)
    out = np.maximum(_MIN_COST, lo_cost + slope * (mem - lo_mem))
    return float(out) if out.ndim == 0 else out


def checkpoint_cost_local(mem_mb):
    """Per-checkpoint cost on a local ramdisk, seconds (Fig. 7a).

    Vectorized: accepts scalars or arrays of memory sizes.
    """
    if np.any(np.asarray(mem_mb) <= 0):
        raise ValueError(f"memory size must be positive, got {mem_mb}")
    return _linear(mem_mb, *LOCAL_COST_RANGE)


def checkpoint_cost_nfs(mem_mb):
    """Per-checkpoint cost on plain NFS, seconds, no contention (Fig. 7b).

    Vectorized: accepts scalars or arrays of memory sizes.
    """
    if np.any(np.asarray(mem_mb) <= 0):
        raise ValueError(f"memory size must be positive, got {mem_mb}")
    return _linear(mem_mb, *NFS_COST_RANGE)


def checkpoint_op_time(mem_mb: float) -> float:
    """Blocking time of a single checkpoint operation over shared disk
    (Table 4), linearly interpolated in memory size."""
    if mem_mb <= 0:
        raise ValueError(f"memory size must be positive, got {mem_mb}")
    xs = np.array([m for m, _ in CHECKPOINT_OP_TABLE])
    ys = np.array([t for _, t in CHECKPOINT_OP_TABLE])
    if mem_mb <= xs[0]:
        slope = (ys[1] - ys[0]) / (xs[1] - xs[0])
        return max(_MIN_COST, float(ys[0] + slope * (mem_mb - xs[0])))
    if mem_mb >= xs[-1]:
        slope = (ys[-1] - ys[-2]) / (xs[-1] - xs[-2])
        return float(ys[-1] + slope * (mem_mb - xs[-1]))
    return float(np.interp(mem_mb, xs, ys))


def contention_factor_nfs(parallel_degree: int) -> float:
    """Multiplier on the NFS checkpoint cost when ``parallel_degree``
    tasks checkpoint the same server simultaneously (Table 2).

    Degree 1 → 1.0; beyond the measured range (5) the linear trend of
    the measurements continues.
    """
    if parallel_degree < 1:
        raise ValueError(f"parallel degree must be >= 1, got {parallel_degree}")
    ys = NFS_CONTENTION_AVG
    if parallel_degree <= len(ys):
        return ys[parallel_degree - 1] / ys[0]
    # Extend the measured linear trend of Table 2.
    return (ys[-1] + _nfs_trend_slope() * (parallel_degree - len(ys))) / ys[0]


@functools.cache
def _nfs_trend_slope() -> float:
    """Least-squares slope of Table 2's NFS row.

    Fitted on first use rather than at import, so runs that never see
    more than five simultaneous writers never run numpy's least-squares
    fit (and never page in its code).
    """
    xs = np.arange(1, len(NFS_CONTENTION_AVG) + 1, dtype=float)
    return float(np.polyfit(xs, np.asarray(NFS_CONTENTION_AVG), 1)[0])


def dmnfs_cost(mem_mb: float, colliding: int = 1) -> float:
    """DM-NFS per-checkpoint cost: the plain-NFS single-writer cost,
    with contention applied only among the ``colliding`` tasks that
    happened to pick the *same* backing server (Table 3 shows the
    average stays flat because collisions are rare)."""
    return checkpoint_cost_nfs(mem_mb) * contention_factor_nfs(max(1, colliding))


def restart_cost(mem_mb, migration_type: str):
    """Restart cost after a failure, seconds (Table 5).

    ``migration_type`` is ``"A"`` (checkpoints lived on the failed
    host's local ramdisk; restart fetches them through the shared disk)
    or ``"B"`` (checkpoints already on shared disk).  Vectorized over
    memory sizes; extrapolates linearly outside [10, 240] MB.
    """
    mem = np.asarray(mem_mb, dtype=float)
    if np.any(mem <= 0):
        raise ValueError(f"memory size must be positive, got {mem_mb}")
    tables = {"A": RESTART_TABLE_A, "B": RESTART_TABLE_B}
    try:
        ys = np.asarray(tables[migration_type.upper()])
    except (KeyError, AttributeError):
        raise ValueError(
            f"migration type must be 'A' or 'B', got {migration_type!r}"
        ) from None
    xs = np.asarray(_RESTART_MEM)
    out = np.interp(mem, xs, ys)
    lo_slope = (ys[1] - ys[0]) / (xs[1] - xs[0])
    hi_slope = (ys[-1] - ys[-2]) / (xs[-1] - xs[-2])
    out = np.where(mem < xs[0], np.maximum(_MIN_COST, ys[0] + lo_slope * (mem - xs[0])), out)
    out = np.where(mem > xs[-1], ys[-1] + hi_slope * (mem - xs[-1]), out)
    return float(out) if out.ndim == 0 else out
