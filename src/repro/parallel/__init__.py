"""Deterministic parallel execution: chunked batches and grid sweeps.

* :mod:`repro.parallel.runner` — the sharded Monte-Carlo entry points.
  One chunk loop splits a task batch into fixed-size chunks, gives a
  seeded kernel one ``np.random.SeedSequence.spawn`` stream per chunk,
  runs the chunks serially or on the shared ``multiprocessing`` pool,
  and merges the per-chunk results back in input order.  Digests are
  bit-for-bit identical for any worker count.
* :mod:`repro.parallel.sweep` — the ``repro sweep`` experiment-grid
  runner (``--axis`` overrides over a base ``RunSpec``), parallelized
  over grid points on the same pool with the same determinism
  guarantee.
  Imported lazily by the CLI; import it explicitly
  (``import repro.parallel.sweep``) when using it as a library.
"""

from repro.parallel.runner import (
    DEFAULT_CHUNK_SIZE,
    default_workers,
    merge_results,
    plan_chunks,
    simulate_tasks_replay_sharded,
    simulate_tasks_scaled_sharded,
    simulate_tasks_sharded,
    spawn_chunk_seeds,
)

__all__ = [
    "DEFAULT_CHUNK_SIZE",
    "default_workers",
    "merge_results",
    "plan_chunks",
    "simulate_tasks_replay_sharded",
    "simulate_tasks_scaled_sharded",
    "simulate_tasks_sharded",
    "spawn_chunk_seeds",
]
