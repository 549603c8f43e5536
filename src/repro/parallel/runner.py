"""Deterministic chunked execution of Monte-Carlo task batches.

The paper's headline sweeps simulate hundreds of thousands of tasks;
this module scales the batch kernels of :mod:`repro.core.simulate`
across cores without giving up the reproducibility discipline the
verify subsystem pins.  The three public wrappers
(:func:`simulate_tasks_sharded`, :func:`simulate_tasks_scaled_sharded`,
:func:`simulate_tasks_replay_sharded`) validate their batch once, name
their kernel, per-task arrays and chunk size, and hand the rest to one
chunk loop, :func:`_run_chunked`:

* a batch is split into fixed-size chunks **by ``chunk_size`` only** —
  never by worker count — so the work decomposition is a pure function
  of the inputs;
* for a seeded kernel, chunk ``i`` simulates on its own independent RNG
  stream, spawned as ``np.random.SeedSequence(seed).spawn(n_chunks)[i]``;
* per-chunk :class:`~repro.core.simulate.SimulationResult` arrays are
  merged back in input order.

Because no step depends on *where* a chunk ran, ``digest()`` of the
merged result is bit-for-bit identical for any ``workers`` value —
``workers=1`` (the serial fallback, no pool involved) and ``workers=8``
produce the same bytes.  Changing ``chunk_size`` legitimately changes
the draw order, exactly like changing the seed.

Replay-mode sharding (:func:`simulate_tasks_replay_sharded`) consumes
no randomness at all, so it is additionally bit-identical to the
*unsharded* :func:`~repro.core.simulate.simulate_tasks_replay` for any
chunk size.

The shared process pool (:func:`get_pool`) also serves the grid
runner (:mod:`repro.parallel.sweep`).  :func:`_execute` maps any
module-level function over a list of payloads, serially or on that
pool; the DES host-group shards (:mod:`repro.des.sharding`) run through
it too, so this module knows nothing of the DES.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
from collections.abc import Sequence

import numpy as np

from repro.core import simulate
from repro.core.simulate import SimulationResult, _validate_batch

__all__ = [
    "AUTO_LAW_HEAVY",
    "AUTO_MIN_CHUNKS",
    "DEFAULT_CHUNK_SIZE",
    "auto_chunk_size",
    "batch_processes",
    "default_workers",
    "get_pool",
    "merge_results",
    "plan_chunks",
    "shutdown_pool",
    "simulate_tasks_replay_sharded",
    "simulate_tasks_scaled_sharded",
    "simulate_tasks_sharded",
    "spawn_chunk_seeds",
]

#: Default tasks per chunk.  Large enough that per-chunk overhead
#: (pickling, pool dispatch, and the per-block distribution grouping,
#: which is paid once per chunk per block) is amortized, small enough
#: that a 100k-task batch still fans out over a multi-core host.
DEFAULT_CHUNK_SIZE = 32768

#: Distinct-law count above which a batch counts as *law-heavy* for
#: :func:`auto_chunk_size` (per-task frailty workloads have one law per
#: task; catalog workloads have one per priority, far below this).
AUTO_LAW_HEAVY = 64

#: Minimum chunk count :func:`auto_chunk_size` preserves for law-heavy
#: batches: larger chunks amortize the per-chunk-per-block law
#: regrouping (the dominant overhead — BENCH_parallel.json's autotune
#: section measures 0.87 s at 7 chunks vs 0.69 s at 4 vs 0.53 s at 1
#: on a 200k-task per-task-law batch), while 4 chunks keep the batch
#: shardable over the worker counts the sweeps use.
AUTO_MIN_CHUNKS = 4


def auto_chunk_size(n_tasks: int, n_laws: int) -> int:
    """The default chunk size for a batch of ``n_tasks`` over ``n_laws``.

    A pure function of the batch shape — like :func:`plan_chunks`, it
    must never depend on worker count, or digests would stop being
    worker-invariant.  Catalog-style batches (few laws) stay at
    :data:`DEFAULT_CHUNK_SIZE` — they are insensitive to chunking.
    Law-heavy batches (per-task frailty laws) pay the per-block law
    regrouping once per chunk, so the plan caps at
    :data:`AUTO_MIN_CHUNKS` chunks.  Calibrated against the autotune
    section of ``BENCH_parallel.json``.
    """
    if n_tasks < 0:
        raise ValueError(f"n_tasks must be >= 0, got {n_tasks}")
    if n_laws <= AUTO_LAW_HEAVY:
        return DEFAULT_CHUNK_SIZE
    return max(DEFAULT_CHUNK_SIZE, -(-n_tasks // AUTO_MIN_CHUNKS))

#: Start method: ``fork`` where the platform offers it (cheap, no
#: re-import), ``spawn`` otherwise.
_START_METHOD = (
    "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
)


def default_workers() -> int:
    """A sensible worker count for this host (``os.cpu_count()``)."""
    return max(1, os.cpu_count() or 1)


# ----------------------------------------------------------------------
# The persistent worker pool.  Spawning a pool per call dominated small
# batches (BENCH_parallel.json: a 4-cell sweep was *slower* on 2 workers
# than serial); one process-wide pool, grown on demand and reused across
# every sweep/campaign/batch call, pays the spawn cost once per process.
# ----------------------------------------------------------------------
_POOL: "multiprocessing.pool.Pool | None" = None
_POOL_PROCS = 0


def get_pool(n_procs: int) -> "multiprocessing.pool.Pool":
    """The shared process pool, (re)created only when it must grow.

    A pool larger than a call's job count is harmless (idle workers
    sleep), so callers simply request their worker count and share
    whatever size is already running.  Never call from inside a pool
    worker — daemonic processes cannot have children (the serial
    fallback in :func:`_execute` guarantees workers never need one).
    """
    global _POOL, _POOL_PROCS
    if n_procs < 1:
        raise ValueError(f"n_procs must be >= 1, got {n_procs}")
    if _POOL is None or _POOL_PROCS < n_procs:
        shutdown_pool()
        ctx = multiprocessing.get_context(_START_METHOD)
        _POOL = ctx.Pool(processes=n_procs)
        _POOL_PROCS = n_procs
    return _POOL


def shutdown_pool() -> None:
    """Tear down the shared pool (idempotent; re-created on next use).

    Registered via :mod:`atexit`; also the reset hook for tests that
    monkeypatch worker-visible state under the ``fork`` start method
    (forked workers snapshot the parent at pool creation).
    """
    global _POOL, _POOL_PROCS
    if _POOL is not None:
        _POOL.terminate()
        _POOL.join()
        _POOL = None
        _POOL_PROCS = 0


atexit.register(shutdown_pool)


def plan_chunks(n_tasks: int, chunk_size: int = DEFAULT_CHUNK_SIZE) -> list[slice]:
    """Split ``n_tasks`` into contiguous chunk slices.

    The plan depends only on ``(n_tasks, chunk_size)`` — worker count
    must never influence it, or digests would stop being
    worker-invariant.
    """
    if n_tasks < 0:
        raise ValueError(f"n_tasks must be >= 0, got {n_tasks}")
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    return [
        slice(lo, min(lo + chunk_size, n_tasks))
        for lo in range(0, n_tasks, chunk_size)
    ]


def batch_processes(n_tasks: int, chunk_size: int, workers: int) -> int:
    """The processes a batch of ``n_tasks`` in ``chunk_size`` chunks
    runs on at ``workers``: one per chunk, at most ``workers``, and a
    one-chunk batch runs in the calling process."""
    return _processes(len(plan_chunks(n_tasks, chunk_size)), workers)


def spawn_chunk_seeds(seed, n_chunks: int) -> list[np.random.SeedSequence]:
    """One independent :class:`~numpy.random.SeedSequence` per chunk.

    ``seed`` is any SeedSequence entropy (int or sequence of ints).
    Spawning guarantees the per-chunk streams are statistically
    independent and — unlike ad-hoc ``seed + i`` schemes — never
    collide with each other or with the parent stream.
    """
    return np.random.SeedSequence(seed).spawn(n_chunks)


def merge_results(parts: Sequence[SimulationResult],
                  lanes: int = 1) -> SimulationResult:
    """Concatenate per-chunk results back into input order.

    A lane call (``lanes`` > 1, see
    :func:`~repro.core.simulate._simulate_blocked_core`) returns each
    chunk's rows lane by lane; the merge keeps the batch lane-major.
    """
    if not parts:
        raise ValueError("cannot merge zero result chunks")
    if len(parts) == 1:
        return parts[0]

    def cat(name):
        return np.concatenate([getattr(p, name).reshape(lanes, -1)
                               for p in parts], axis=1).ravel()

    return SimulationResult(
        te=cat("te"),
        wallclock=cat("wallclock"),
        n_failures=cat("n_failures"),
        intervals=cat("intervals"),
        completed=cat("completed"),
    )


# ----------------------------------------------------------------------
# The chunk loop.
# ----------------------------------------------------------------------
def _run_chunk(payload) -> SimulationResult:
    """Run one chunk: ``(kernel, per-task array slices, seed, kwargs)``.

    A seeded chunk gets ``rng=np.random.default_rng(seed)``.  Module
    level so it pickles under any start method.
    """
    kernel, arrays, seed_seq, kwargs = payload
    if seed_seq is not None:
        kwargs = {**kwargs, "rng": np.random.default_rng(seed_seq)}
    return kernel(*arrays, **kwargs)


def _processes(n_payloads: int, workers: int) -> int:
    """The processes :func:`_execute` maps ``n_payloads`` over."""
    return max(1, min(workers, n_payloads))


def _execute(fn, payloads: list, workers: int) -> list:
    """Map the module-level ``fn`` over ``payloads``, serially or on
    the shared pool, preserving order."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    n_procs = _processes(len(payloads), workers)
    if n_procs == 1:
        return [fn(p) for p in payloads]
    return get_pool(n_procs).map(fn, payloads)


def _run_chunked(kernel, arrays, kwargs, chunk_size, workers, seed=None):
    """Run ``kernel`` over ``arrays`` chunk by chunk and merge in order.

    ``arrays`` are the validated per-task arrays ``(te, x, C, R,
    source)``, sliced along their first axis by :func:`plan_chunks`;
    an ``(n, L)`` ``R`` makes it a call of ``L`` lanes.  ``kwargs`` go
    to every chunk unchanged.  With a ``seed`` (SeedSequence entropy)
    chunk ``i`` draws from ``spawn_chunk_seeds(seed, n_chunks)[i]``.
    An empty batch runs as one empty chunk.
    """
    restart = arrays[3]
    lanes = restart.shape[1] if restart.ndim == 2 else 1
    chunks = plan_chunks(len(arrays[0]), chunk_size) or [slice(0, 0)]
    seeds = ([None] * len(chunks) if seed is None
             else spawn_chunk_seeds(seed, len(chunks)))
    payloads = [
        (kernel, tuple(a[sl] for a in arrays), seed_seq, kwargs)
        for sl, seed_seq in zip(chunks, seeds)
    ]
    return merge_results(_execute(_run_chunk, payloads, workers), lanes)


# ----------------------------------------------------------------------
# Sharded entry points.  Each looks its kernel up on
# ``repro.core.simulate`` at call time, so a patched module attribute
# (a profiler's or a test's) is the function every chunk runs.
# ----------------------------------------------------------------------
def simulate_tasks_sharded(
    te,
    intervals,
    checkpoint_cost,
    restart_cost,
    dist_ids,
    distributions,
    seed,
    *,
    workers: int = 1,
    chunk_size: "int | None" = None,
    restart_delay: float = 0.0,
    max_segments: int = 100_000,
) -> SimulationResult:
    """Sharded catalog-driven Monte-Carlo (blocked fast path per chunk).

    ``seed`` is SeedSequence entropy, not a Generator: the runner owns
    stream construction so that chunk streams can be spawned
    deterministically.  See the module docstring for the determinism
    contract.  ``chunk_size=None`` (default) picks
    :func:`auto_chunk_size` from the batch shape — still a pure
    function of the inputs, so the digest is as reproducible as with
    an explicit size.
    """
    arrays = _validate_batch(te, intervals, checkpoint_cost, restart_cost,
                             dist_ids, restart_delay)
    if chunk_size is None:
        chunk_size = auto_chunk_size(arrays[0].size, len(distributions))
    return _run_chunked(
        simulate.simulate_tasks_blocked, arrays,
        dict(distributions=distributions, restart_delay=restart_delay,
             max_segments=max_segments),
        chunk_size, workers, seed=seed,
    )


def simulate_tasks_scaled_sharded(
    te,
    intervals,
    checkpoint_cost,
    restart_cost,
    interval_scale,
    seed,
    *,
    workers: int = 1,
    chunk_size: "int | None" = None,
    restart_delay: float = 0.0,
    max_segments: int = 100_000,
) -> SimulationResult:
    """Sharded per-task-exponential-scale Monte-Carlo (frailty redraw).

    ``chunk_size=None`` autotunes like a law-heavy batch: every task
    carries its own scale, the shape :func:`auto_chunk_size` gives
    large chunks.  An ``(n, L)`` ``restart_cost`` runs ``L`` lanes, as
    :func:`~repro.core.simulate.simulate_tasks_scaled` does; chunking
    splits the tasks, never the lanes.
    """
    arrays = _validate_batch(te, intervals, checkpoint_cost, restart_cost,
                             np.asarray(interval_scale, dtype=float),
                             restart_delay)
    if chunk_size is None:
        chunk_size = auto_chunk_size(arrays[0].size, arrays[0].size)
    return _run_chunked(
        simulate.simulate_tasks_scaled, arrays,
        dict(restart_delay=restart_delay, max_segments=max_segments),
        chunk_size, workers, seed=seed,
    )


def simulate_tasks_replay_sharded(
    te,
    intervals,
    checkpoint_cost,
    restart_cost,
    interval_matrix,
    *,
    workers: int = 1,
    chunk_size: "int | None" = None,
    restart_delay: float = 0.0,
) -> SimulationResult:
    """Sharded trace-replay simulation.

    Replay consumes no randomness, so the sharded result is bit-for-bit
    identical to the unsharded :func:`simulate_tasks_replay` for every
    ``(workers, chunk_size)`` combination — chunking here is purely a
    parallel speedup; ``chunk_size=None`` keeps the insensitive
    :data:`DEFAULT_CHUNK_SIZE`.
    """
    mat = np.asarray(interval_matrix, dtype=float)
    if mat.ndim != 2:
        raise ValueError(
            f"interval_matrix must be (n_tasks, max_failures); got {mat.shape}"
        )
    *params, rows = _validate_batch(te, intervals, checkpoint_cost,
                                    restart_cost, np.arange(mat.shape[0]),
                                    restart_delay)
    if rows.size != mat.shape[0]:
        raise ValueError(
            f"interval_matrix must be (n_tasks, max_failures); got {mat.shape} "
            f"for {rows.size} tasks"
        )
    if chunk_size is None:
        chunk_size = DEFAULT_CHUNK_SIZE
    return _run_chunked(
        simulate.simulate_tasks_replay, (*params, mat),
        dict(restart_delay=restart_delay), chunk_size, workers,
    )
