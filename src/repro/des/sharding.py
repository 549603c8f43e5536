"""Host-group sharding of the discrete-event cluster simulation.

The DES tier historically ran one pure-Python event loop per scenario —
the only execution tier ``ExecutionSpec.workers`` could not scale.
This module decomposes a *contention-free* cluster run into independent
sub-simulations and maps :func:`run_shard` over them with
:func:`repro.parallel.runner._execute`, the function the vectorized
tier's chunks run through, so a DES batch fans out over a process pool
(or runs serially at ``workers=1``) with bit-identical results either
way.

Why the decomposition is exact
------------------------------
The cluster model couples concurrently running tasks through exactly
three mechanisms:

1. **shared checkpoint devices** — NFS/DM-NFS congestion pricing makes
   one task's checkpoint cost depend on who else is writing;
2. **host-crash physics** — a host monitor kills every task on its
   VMs, so co-placement decides who dies;
3. **VM capacity** — tasks queue for VMs, which shifts *when* a task
   runs but (per-host ramdisk, no crashes) never *what happens to it*:
   failure draws are keyed ``default_rng((seed, task_id))``, interval
   plans are pure functions of the task profile, and local checkpoint
   costs are quoted uncontended.

With local storage and no host monitors, (1) and (2) are absent and
(3) only moves absolute timestamps.  The verify subsystem's
*comparable wallclock* — ``(finish - submit) - queue_wait - placement -
detection`` — is therefore invariant under any partition of the hosts
and jobs, per task and to float-accumulation precision; failure counts
and completion flags are invariant bit-for-bit.  That is the
equivalence ``tests/test_des_sharding.py`` pins against the unsharded
runner on every contention-free verify scenario.

Shared-storage or host-crash configurations **refuse to shard**
(:func:`shard_refusal_reason` returns the reason, and
:func:`run_des_sharded` raises :class:`ShardingError`): splitting them
would silently change the physics the ``stats``/``loose`` compare
modes exist to measure.

Determinism contract
--------------------
The shard plan (:func:`plan_host_groups`) is a pure function of
``(n_hosts, n_jobs)`` — never of the worker count — mirroring the
chunk-plan rule of :mod:`repro.parallel.runner`.  Each shard rebuilds
its sub-cluster with the *same root seed* as the unsharded run;
because every task's failure stream is keyed by ``(seed, task_id)``
(the DES analogue of the vectorized tier's per-chunk ``SeedSequence``
spawning), shards consume identical draws no matter where they
execute.  The run computes every task's stream state once
(:func:`~repro.failures.streams.task_stream_states`) and ships each
shard its rows as one ``uint64`` array.  Results merge in ``task_id``
order.  Digests, summaries, and the aggregated ``extra`` statistics
are consequently identical for every ``workers`` value.
"""

from __future__ import annotations

import dataclasses
from itertools import accumulate

import numpy as np

from repro.cluster.config import ClusterConfig
from repro.cluster.platform import CloudPlatform
from repro.failures.streams import task_stream_states
from repro.trace.models import Trace

__all__ = [
    "ShardingError",
    "plan_host_groups",
    "run_des_sharded",
    "run_shard",
    "shard_refusal_reason",
    "shard_workers",
]


class ShardingError(RuntimeError):
    """A workload that cannot shard was asked to."""


def shard_refusal_reason(cluster: ClusterConfig) -> str | None:
    """Why this cluster configuration cannot shard (``None`` = it can).

    A pure function of the configuration: the decision must not depend
    on anything outside the spec digest, or records computed at
    different worker counts would stop being byte-identical.
    """
    if cluster.storage != "local":
        return (
            f"storage mode {cluster.storage!r} couples tasks through "
            "shared checkpoint devices (congestion pricing); host-group "
            "shards would lose cross-group contention"
        )
    if cluster.host_mtbf is not None:
        return (
            "host-crash physics (host_mtbf set) couple every task on a "
            "host; host-group shards would change who dies together"
        )
    return None


def shard_workers(spec, workers: int) -> int:
    """Worker count a sharded run of ``spec`` dispatches its shards on.

    The sweep's overhead-aware rule
    (:func:`~repro.parallel.sweep.effective_workers` over
    :func:`~repro.parallel.sweep.estimate_spec_cost` of the spec as a
    DES cell): a run estimated below the serial-fallback cost runs its
    shards in-process, because pool dispatch would cost more than the
    run.  Results never depend on it.
    """
    from repro.parallel.sweep import effective_workers, estimate_spec_cost

    if workers <= 1:
        return 1
    if spec.execution.tier != "des":
        spec = spec.evolve(**{"execution.tier": "des"})
    return effective_workers(workers, [estimate_spec_cost(spec)])


def plan_host_groups(
    n_hosts: int, n_jobs: int
) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The shard plan: ``[(host_ids, job_indices), ...]``.

    ``min(n_hosts, n_jobs)`` groups; hosts split into contiguous
    near-equal runs, jobs dealt round-robin by trace position (so every
    group is non-empty and arrival order interleaves evenly).  A pure
    function of ``(n_hosts, n_jobs)`` only — worker count must never
    influence the plan.
    """
    if n_hosts < 1:
        raise ValueError(f"n_hosts must be >= 1, got {n_hosts}")
    if n_jobs < 0:
        raise ValueError(f"n_jobs must be >= 0, got {n_jobs}")
    n_groups = min(n_hosts, n_jobs)
    if n_groups == 0:
        return []
    base, extra = divmod(n_hosts, n_groups)
    plan = []
    lo = 0
    for g in range(n_groups):
        hi = lo + base + (1 if g < extra else 0)
        plan.append((
            tuple(range(lo, hi)),
            tuple(range(g, n_jobs, n_groups)),
        ))
        lo = hi
    return plan


def _sub_cluster(cluster: ClusterConfig, host_ids: tuple[int, ...]) -> ClusterConfig:
    """The shard's cluster: the selected hosts with their exact VM counts.

    Host ids renumber to ``0..len(host_ids)-1``; heterogeneous VM
    patterns are preserved per *original* host by materializing the
    counts into an explicit pattern.  ``dataclasses.replace`` copies
    every other field, so a future ``ClusterConfig`` knob cannot
    silently diverge between shards and the unsharded run.
    """
    return dataclasses.replace(
        cluster,
        n_hosts=len(host_ids),
        vms_per_host_pattern=tuple(
            cluster.vms_on_host(h) for h in host_ids
        ),
    )


def run_shard(payload: dict) -> dict:
    """Execute one shard job (the pool-worker body).

    ``payload`` is the self-contained, picklable description built by
    :func:`run_des_sharded`; the return value carries compact per-task
    arrays plus the shard's whole-run statistics.
    """
    from repro.verify.runner import comparable_task_arrays
    from repro.verify.scenarios import make_policy

    cluster: ClusterConfig = payload["cluster"]
    platform = CloudPlatform(
        config=cluster,
        catalog=payload["catalog"],
        seed=payload["seed"],
    )
    res = platform.run_trace(
        Trace(tuple(payload["jobs"])),
        policy=make_policy(payload["policy"], payload["policy_param"]),
        mnof_by_priority=payload["mnof_by_priority"],
        mtbf_by_priority=payload["mtbf_by_priority"],
        _stream_states=payload["stream_states"],
    )
    records = sorted(res.task_records, key=lambda r: r.task_id)
    task_ids = np.asarray([rec.task_id for rec in records], dtype=np.int64)
    wall, fails, completed = comparable_task_arrays(records, cluster)
    return {
        "task_ids": task_ids,
        "wallclock": wall,
        "n_failures": fails,
        "completed": completed,
        "makespan": float(res.makespan),
        "n_events": float(res.n_events),
        "peak_queue_length": float(res.peak_queue_length),
    }


def run_des_sharded(workload, workers: int = 1):
    """The DES tier, decomposed by host group and fanned out.

    Returns the same :class:`~repro.verify.runner.TierResult` shape as
    the unsharded runner.  ``extra`` aggregates across shards —
    ``makespan`` is the latest task completion anywhere (identical to
    the unsharded definition), ``n_events`` sums the per-shard event
    counts, ``peak_queue_length`` is the deepest per-shard queue, and
    ``n_shards`` records the plan size.  All of it is worker-count
    invariant because the plan is.

    Raises :class:`ShardingError` for configurations that refuse to
    shard — callers gate on :func:`shard_refusal_reason`.
    """
    from repro.parallel.runner import _execute
    from repro.verify.runner import TierResult, run_des_unsharded

    reason = shard_refusal_reason(workload.cluster)
    if reason is not None:
        raise ShardingError(
            f"{workload.spec.name}: cannot shard — {reason}"
        )
    trace_jobs = tuple(workload.trace)
    plan = plan_host_groups(workload.cluster.n_hosts, len(trace_jobs))
    if not plan:
        # Degenerate (empty trace): nothing to decompose.
        return run_des_unsharded(workload)
    policy = workload.spec.policy
    states = task_stream_states(
        workload.seed, [t.task_id for job in trace_jobs for t in job.tasks])
    first_row = list(accumulate((job.n_tasks for job in trace_jobs),
                                initial=0))
    payloads = [
        {
            "cluster": _sub_cluster(workload.cluster, host_ids),
            "catalog": workload.catalog,
            "seed": workload.seed,
            "jobs": tuple(trace_jobs[j] for j in job_idx),
            "policy": policy.name,
            "policy_param": policy.param,
            "mnof_by_priority": workload.mnof_by_priority,
            "mtbf_by_priority": workload.mtbf_by_priority,
            "stream_states": np.concatenate(
                [states[first_row[j]:first_row[j + 1]] for j in job_idx]),
        }
        for host_ids, job_idx in plan
    ]
    parts = _execute(run_shard, payloads,
                     shard_workers(workload.spec, workers))

    task_ids = np.concatenate([p["task_ids"] for p in parts])
    order = np.argsort(task_ids, kind="stable")
    task_ids = task_ids[order]
    n = task_ids.size
    if n != workload.n_tasks or not np.array_equal(
        task_ids, np.arange(n, dtype=np.int64)
    ):
        raise RuntimeError(
            f"sharded DES returned records for {n} tasks "
            f"({workload.n_tasks} expected) or non-contiguous task ids"
        )
    wall = np.concatenate([p["wallclock"] for p in parts])[order]
    fails = np.concatenate([p["n_failures"] for p in parts])[order]
    completed = np.concatenate([p["completed"] for p in parts])[order]

    from repro.core.simulate import SimulationResult

    result = SimulationResult(
        te=workload.te.copy(),
        wallclock=wall,
        n_failures=fails,
        intervals=workload.intervals.copy(),
        completed=completed,
    )
    return TierResult(
        tier="des",
        wallclock=wall,
        n_failures=fails,
        wpr=result.wpr,
        completed=completed,
        summary=result.summary(),
        digest=result.digest(),
        extra={
            "makespan": max(p["makespan"] for p in parts),
            "n_events": float(sum(p["n_events"] for p in parts)),
            "peak_queue_length": max(p["peak_queue_length"] for p in parts),
            "n_shards": float(len(parts)),
        },
    )
