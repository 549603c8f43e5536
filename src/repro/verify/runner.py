"""The differential runner: one workload through all three tiers.

Tier A (**scalar**) is the reference.  Task ``i`` draws its uptimes
from ``default_rng((seed, i))`` — the stream the DES platform seeds
its failure injector with, so the two tiers consume identical uptime
draw sequences.  The streams' states are computed in batch, as rows
of ``uint64`` words (:func:`repro.failures.streams.task_stream_states`)
that :func:`repro.failures.streams.seek` writes into one reused
generator; each task's first rounds are drawn in one call, and all
tasks run those rounds at once on the shared round loop
(:func:`repro.core.simulate._simulate_blocked_core`).  Tasks still
running after them, and tasks whose law is a ``Mixture``, are rerun
from their stream's start by :func:`repro.core.simulate.simulate_task`
with a :class:`~repro.failures.injector.FailureInjector`; results are
those of that per-task loop, bit for bit.  Tier B
(**vector**) is the sharded Monte-Carlo runner
(:func:`repro.parallel.simulate_tasks_sharded`, blocked fast path,
per-chunk ``SeedSequence``-spawned streams — worker-count invariant).
Tier C (**des**) is the full
:class:`~repro.cluster.platform.CloudPlatform` run over the scenario's
trace and cluster config.

The DES wallclock includes endogenous overheads the analytic model
charges differently (queue wait, placement, failure detection), so the
runner derives a *comparable wallclock* per task::

    comparable = (finish - submit) - queue_wait
                 - placement_overhead * (1 + n_failures)
                 - failure_detection_delay * n_failures

which under contention-free storage equals the scalar tier's wallclock
to float-accumulation precision — per task, not just on average.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.cluster.platform import CloudPlatform
from repro.core.simulate import (
    SimulationResult,
    _simulate_blocked_core,
    _validate_batch,
    simulate_task,
)
from repro.failures.injector import FailureInjector
from repro.failures.streams import (
    _BATCH_LAWS,
    _ROUNDS,
    seek,
    task_stream_states,
)
from repro.parallel.runner import simulate_tasks_sharded
from repro.verify.compare import (
    Check,
    check_allclose,
    check_array_equal,
    check_ks,
    check_mean_close,
    check_ratio,
)
from repro.spec import RunSpec
from repro.verify.scenarios import Workload, build_workload, make_policy

__all__ = ["ScenarioResult", "TierResult", "comparable_task_arrays",
           "run_des", "run_des_unsharded", "run_scalar", "run_scenario",
           "run_vector"]

#: tolerated intentional model gap between tiers in ``stats`` mode
#: (storage congestion pricing, selector mixing): 15% on wallclock
#: means, 25% + 0.3 failures on failure-count means.
STATS_WALL_SLACK = 0.15
STATS_FAIL_REL = 0.25
STATS_FAIL_ABS = 0.3

#: Tasks the scalar tier seeds and draws at once (bounds its memory).
_CHUNK = 4096


@dataclass
class TierResult:
    """Per-task outcome arrays plus summary statistics for one tier."""

    tier: str
    wallclock: np.ndarray
    n_failures: np.ndarray
    wpr: np.ndarray
    completed: np.ndarray
    summary: dict[str, float]
    digest: str | None = None
    extra: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        """JSON-ready representation (summary only, not raw arrays)."""
        out = {"tier": self.tier, "summary": self.summary, "extra": self.extra}
        if self.digest is not None:
            out["digest"] = self.digest
        return out


@dataclass
class ScenarioResult:
    """Everything one scenario produced: tiers, checks, verdict."""

    spec: RunSpec
    #: the derived workload seed (the base seed is in ``spec``)
    seed: int
    tiers: dict[str, TierResult]
    checks: list[Check]
    elapsed_s: float

    @property
    def passed(self) -> bool:
        """Whether every cross-tier check held."""
        return all(c.passed for c in self.checks)

    @property
    def n_violations(self) -> int:
        """Number of violated checks."""
        return sum(not c.passed for c in self.checks)

    def to_dict(self) -> dict:
        """JSON-ready report fragment."""
        return {
            "scenario": self.spec.name,
            "description": self.spec.description,
            "axes": list(self.spec.tags),
            "compare": self.spec.execution.compare,
            "seed": self.seed,
            "n_tasks": int(self.tiers["scalar"].wallclock.size),
            "passed": self.passed,
            "elapsed_s": round(self.elapsed_s, 3),
            "tiers": {k: v.to_dict() for k, v in self.tiers.items()},
            "checks": [c.to_dict() for c in self.checks],
        }


# ----------------------------------------------------------------------
def _summarize(result: SimulationResult) -> dict[str, float]:
    return result.summary()


def comparable_task_arrays(records, cfg):
    """Per-task ``(wallclock, n_failures, completed)`` from DES records.

    ``records`` are :class:`~repro.cluster.records.TaskRecord`\\ s in the
    caller's chosen order; ``wallclock`` is the *comparable* form — raw
    duration minus queue wait, placement, and detection overheads (the
    module docstring's formula).  This is the single definition both
    the unsharded runner and :mod:`repro.des.sharding` use, so the
    sharded-vs-unsharded equivalence can never drift from a one-sided
    edit.
    """
    n = len(records)
    wall = np.empty(n)
    fails = np.empty(n, dtype=np.int64)
    completed = np.empty(n, dtype=bool)
    for i, rec in enumerate(records):
        fails[i] = rec.n_failures
        completed[i] = rec.completed
        if rec.finish_time is None:
            wall[i] = np.nan
            continue
        raw = rec.finish_time - rec.submit_time
        wall[i] = (
            raw
            - rec.queue_wait
            - cfg.placement_overhead * (1 + rec.n_failures)
            - cfg.failure_detection_delay * rec.n_failures
        )
    return wall, fails, completed


def run_scalar(workload: Workload) -> TierResult:
    """Tier A: the scalar reference, task streams seeded like the DES.

    Task ``i`` draws its uptimes from ``default_rng((seed, i))``, whose
    state words :func:`~repro.failures.streams.task_stream_states`
    computes in batches of :data:`_CHUNK` tasks, and which one reused
    generator reaches by :func:`~repro.failures.streams.seek`.  Each
    task's first :data:`_ROUNDS` uptimes (one ``sample`` call, equal to
    that many single draws for every law in :data:`_BATCH_LAWS`) feed
    the batch round loop; a task that has not finished by then, or whose law is
    not in :data:`_BATCH_LAWS`, is rerun from its stream's start by
    :func:`~repro.core.simulate.simulate_task`.  Neither constant
    changes a result.
    """
    n = workload.n_tasks
    budget = workload.cluster.max_failures_per_task
    dists = workload.distributions
    wall = np.empty(n)
    fails = np.empty(n, dtype=np.int64)
    completed = np.empty(n, dtype=bool)

    rng = np.random.default_rng(0)  # every use seeks it to a task's stream

    for lo in range(0, n, _CHUNK):
        ids = np.arange(lo, min(lo + _CHUNK, n))
        states = task_stream_states(workload.seed, ids)
        laws = [dists[d] for d in workload.dist_ids[ids].tolist()]
        batch = np.array([type(law) in _BATCH_LAWS for law in laws],
                         dtype=bool)
        rows = np.flatnonzero(batch)
        redo = np.flatnonzero(~batch)
        if rows.size:
            heads = np.empty((rows.size, _ROUNDS))
            for col, row in enumerate(rows.tolist()):
                seek(rng, states[row])
                heads[col] = laws[row].sample(rng, _ROUNDS)
            uptimes = heads.T  # round-major, as the round loop reads it
            if budget < _ROUNDS:
                uptimes[budget:] = np.inf  # the injector's exhausted budget
            task = ids[rows]
            out = _simulate_blocked_core(
                *_validate_batch(workload.te[task], workload.intervals[task],
                                 workload.checkpoint_cost[task],
                                 workload.restart_cost[task],
                                 np.arange(rows.size), 0.0),
                lambda live, s, ends: uptimes[s:s + ends[-1], live],
                0.0, max_segments=_ROUNDS,
            )
            wall[task] = out.wallclock
            fails[task] = out.n_failures
            completed[task] = out.completed
            redo = np.concatenate([redo, rows[~out.completed]])
        for row in redo.tolist():
            i = lo + row
            seek(rng, states[row])
            res = simulate_task(
                te=float(workload.te[i]),
                intervals=int(workload.intervals[i]),
                checkpoint_cost=float(workload.checkpoint_cost[i]),
                restart_cost=float(workload.restart_cost[i]),
                injector=FailureInjector(laws[row], rng, max_failures=budget),
            )
            wall[i] = res.wallclock
            fails[i] = res.n_failures
            completed[i] = res.completed
    result = SimulationResult(
        te=workload.te.copy(),
        wallclock=wall,
        n_failures=fails,
        intervals=workload.intervals.copy(),
        completed=completed,
    )
    return TierResult(
        tier="scalar",
        wallclock=wall,
        n_failures=fails,
        wpr=result.wpr,
        completed=completed,
        summary=_summarize(result),
        digest=result.digest(),
    )


def run_vector(workload: Workload, workers: int = 1) -> TierResult:
    """Tier B: the vectorized Monte-Carlo batch via the sharded runner.

    Executes through :func:`repro.parallel.simulate_tasks_sharded`
    (blocked fast path, per-chunk spawned streams), so the tier's
    results are bit-for-bit identical for every ``workers`` value.
    """
    result = simulate_tasks_sharded(
        te=workload.te,
        intervals=workload.intervals,
        checkpoint_cost=workload.checkpoint_cost,
        restart_cost=workload.restart_cost,
        dist_ids=workload.dist_ids,
        distributions=workload.distributions,
        seed=(workload.seed, 0x7EC7),
        workers=workers,
    )
    return TierResult(
        tier="vector",
        wallclock=result.wallclock,
        n_failures=result.n_failures,
        wpr=result.wpr,
        completed=result.completed,
        summary=_summarize(result),
        digest=result.digest(),
    )


def run_des(workload: Workload, workers: int = 1) -> TierResult:
    """Tier C: the discrete-event cluster simulation.

    Contention-free workloads (local checkpoint storage, no host-crash
    monitors) execute through :func:`repro.des.sharding.run_des_sharded`
    — decomposed by host group, fanned out over ``workers`` processes.
    The shard plan is a pure function of the workload, so the result
    (digest, summary, and aggregated ``extra``) is identical for every
    ``workers`` value; ``tests/test_des_sharding.py`` pins the per-task
    equivalence against :func:`run_des_unsharded`.  Workloads with
    shared storage or host crashes keep the single event loop — their
    physics cannot decompose.
    """
    from repro.des.sharding import run_des_sharded, shard_refusal_reason

    if shard_refusal_reason(workload.cluster) is None:
        return run_des_sharded(workload, workers=workers)
    return run_des_unsharded(workload)


def run_des_unsharded(workload: Workload) -> TierResult:
    """The single-event-loop DES run (reference for shard equivalence)."""
    platform = CloudPlatform(
        config=workload.cluster,
        catalog=workload.catalog,
        seed=workload.seed,
    )
    policy = workload.spec.policy
    res = platform.run_trace(
        workload.trace,
        policy=make_policy(policy.name, policy.param),
        mnof_by_priority=workload.mnof_by_priority,
        mtbf_by_priority=workload.mtbf_by_priority,
    )
    cfg = workload.cluster
    records = sorted(res.task_records, key=lambda r: r.task_id)
    if len(records) != workload.n_tasks:
        raise RuntimeError(
            f"DES returned {len(records)} task records for "
            f"{workload.n_tasks} tasks"
        )
    wall, fails, completed = comparable_task_arrays(records, cfg)
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
        summary=_summarize(result),
        digest=result.digest(),
        extra={
            "makespan": float(res.makespan),
            "n_events": float(res.n_events),
            "peak_queue_length": float(res.peak_queue_length),
        },
    )


# ----------------------------------------------------------------------
def _cross_tier_checks(
    spec: RunSpec,
    scalar: TierResult,
    vector: TierResult,
    des: TierResult,
) -> list[Check]:
    """Build the scenario's check list per its compare mode."""
    checks: list[Check] = [
        # Scalar vs vectorized: independent samples of one model.
        check_mean_close("scalar-vs-vector:mean-wallclock",
                         scalar.wallclock, vector.wallclock),
        check_mean_close("scalar-vs-vector:mean-failures",
                         scalar.n_failures, vector.n_failures),
        check_mean_close("scalar-vs-vector:mean-wpr",
                         scalar.wpr, vector.wpr, abs_slack=1e-3),
        check_ks("scalar-vs-vector:ks-wallclock",
                 scalar.wallclock, vector.wallclock),
        check_array_equal("scalar-vs-vector:completion",
                          scalar.completed, vector.completed),
    ]
    ex = spec.execution
    if ex.compare == "exact":
        checks += [
            check_array_equal("scalar-vs-des:failure-counts",
                              scalar.n_failures, des.n_failures),
            check_allclose("scalar-vs-des:comparable-wallclock",
                           des.wallclock, scalar.wallclock,
                           rtol=1e-7, atol=1e-5),
            check_array_equal("scalar-vs-des:completion",
                              scalar.completed, des.completed),
        ]
    elif ex.compare == "stats":
        checks += [
            check_mean_close("scalar-vs-des:mean-wallclock",
                             scalar.wallclock, des.wallclock,
                             rel_slack=STATS_WALL_SLACK),
            check_mean_close("scalar-vs-des:mean-failures",
                             scalar.n_failures, des.n_failures,
                             rel_slack=STATS_FAIL_REL,
                             abs_slack=STATS_FAIL_ABS),
            check_array_equal("scalar-vs-des:completion",
                              scalar.completed, des.completed),
        ]
    else:  # loose: DES physics (host crashes) diverge by design
        checks += [
            check_ratio("scalar-vs-des:wallclock-ratio",
                        des.wallclock, scalar.wallclock,
                        lo=ex.loose_lo, hi=ex.loose_hi),
            check_ratio("scalar-vs-des:failure-ratio",
                        np.asarray(des.n_failures, float) + 1.0,
                        np.asarray(scalar.n_failures, float) + 1.0,
                        lo=ex.loose_lo, hi=ex.loose_hi),
        ]
    return checks


def run_scenario(spec: RunSpec, workers: int = 1) -> ScenarioResult:
    """Run one scenario spec through all three tiers and cross-check them.

    The spec's own ``execution.tier`` is ignored (every tier runs) and
    its ``execution.base_seed`` seeds the workload.  ``workers``
    parallelizes the vectorized tier's batch; every worker count
    produces identical results (see :mod:`repro.parallel`).
    """
    t0 = time.perf_counter()
    workload = build_workload(spec)
    scalar = run_scalar(workload)
    vector = run_vector(workload, workers=workers)
    des = run_des(workload, workers=workers)
    checks = _cross_tier_checks(spec, scalar, vector, des)
    return ScenarioResult(
        spec=spec,
        seed=workload.seed,
        tiers={"scalar": scalar, "vector": vector, "des": des},
        checks=checks,
        elapsed_s=time.perf_counter() - t0,
    )
