"""Shared evaluation pipeline for the policy-comparison experiments.

The paper's large-scale runs (Table 6, Figs. 9–13) all follow one
recipe, which :func:`evaluate_policy` implements over the Monte-Carlo
tier.  Each evaluation is one replay-tier :class:`~repro.spec.RunSpec`
(:func:`policy_run_spec` builds it; :func:`repro.api.run` executes it
with caching):

1. flatten the trace into per-task arrays;
2. attach believed failure statistics — either *oracle* (each task's
   own historical failure count / mean interval, Table 6) or
   *priority* (group estimates mined from the trace history, the
   deployable setting of Figs. 9–13) — steps 1 and 2 run once per
   evaluation trace and process, cached beside the trace itself;
3. pick each task's storage target under ``storage.mode`` (the
   §4.2.2 comparison for ``auto``), which fixes its checkpoint and
   restart costs;
4. ask the policy for per-task interval counts — steps 3 and 4 are one
   batched :func:`repro.core.placement.resolve_tasks` call, the same
   path the workload builder and the DES platform take;
5. execute — replaying the historical failure intervals, so that both
   policies face *exactly the same* failure sequence (the paper's
   trace-driven ``kill -9`` methodology);
6. aggregate per job: WPR (task-time weighted) and wall-clock length
   (sum of task wall-clocks for sequential jobs, max for bags-of-tasks).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from functools import lru_cache

import numpy as np

from repro.core.placement import by_priority, resolve_tasks, storage_costs
from repro.core.simulate import SimulationResult
from repro.metrics.wpr import wpr_from_arrays
from repro.parallel.runner import (
    simulate_tasks_replay_sharded,
    simulate_tasks_scaled_sharded,
)
from repro.spec import (
    ExecutionSpec,
    FailureSpec,
    PolicySpec,
    RunSpec,
    SpecError,
    StorageSpec,
    WorkloadSpec,
)
from repro.trace.models import JobType, Trace
from repro.trace.sampler import failed_job_sample
from repro.trace.stats import build_estimator
from repro.trace.synthesizer import TraceConfig, synthesize_trace

__all__ = [
    "FlatTasks",
    "PolicyRun",
    "clear_trace_cache",
    "default_trace",
    "evaluate_lanes",
    "evaluate_policy",
    "flatten_trace",
    "lane_key",
    "policy_run_spec",
    "storage_costs",
    "trace_cache_stats",
]

#: Default job count for the headline experiments (the paper uses 300k
#: jobs for Table 6 / Fig. 9-10 and ~10k for the one-day runs; our
#: default keeps full experiment suites under a minute while remaining
#: statistically tight — override per experiment for bigger runs).
DEFAULT_N_JOBS = 4000


@lru_cache(maxsize=8)
def _default_trace_cached(
    n_jobs: int, seed: int, only_failed_jobs: bool
) -> Trace:
    trace = synthesize_trace(TraceConfig(n_jobs=n_jobs), seed=seed)
    if only_failed_jobs:
        sampled = failed_job_sample(trace, 0.5)
        if len(sampled) > 0:
            return sampled
    return trace


def default_trace(
    n_jobs: int = DEFAULT_N_JOBS,
    seed: int = 2013,
    only_failed_jobs: bool = True,
) -> Trace:
    """The shared evaluation trace (memoized).

    ``only_failed_jobs`` applies the paper's §5.1 sample rule: keep
    jobs at least half of whose tasks suffered a failure.

    The memoization is deliberately two-layered: the expensive
    synthesis + sampling lives behind ``_default_trace_cached`` (a
    process-wide ``lru_cache``), while this wrapper hands every caller
    a *fresh* :class:`~repro.trace.models.Trace` over the cached
    (frozen) job tuple, so no caller can poison the shared cache — the
    jobs and tasks are frozen dataclasses, and even forcibly rebinding
    attributes on the returned wrapper (``object.__setattr__``) only
    touches the caller's private copy.  :func:`trace_cache_stats`
    reports on the inner layer; long-lived processes can drop it with
    :func:`clear_trace_cache`.
    """
    return Trace(jobs=_default_trace_cached(n_jobs, seed, only_failed_jobs).jobs)


def trace_cache_stats() -> dict[str, int]:
    """Hit/miss/size counters of the shared evaluation-trace cache.

    Keys mirror :func:`functools.lru_cache`'s ``cache_info``:
    ``hits``, ``misses``, ``currsize``, ``maxsize``.
    """
    info = _default_trace_cached.cache_info()
    return {
        "hits": info.hits,
        "misses": info.misses,
        "currsize": info.currsize,
        "maxsize": info.maxsize,
    }


def clear_trace_cache() -> None:
    """Drop every memoized evaluation trace and its per-task inputs.

    Traces and arrays already handed out stay valid (callers hold
    their own wrappers over frozen job tuples and read-only arrays);
    this only releases the process-wide memory so long-lived workers
    can bound their footprint.
    """
    _default_trace_cached.cache_clear()
    _flat_cached.cache_clear()
    _estimates_cached.cache_clear()


@dataclass
class FlatTasks:
    """Per-task arrays extracted from a trace (one entry per task)."""

    te: np.ndarray
    mem_mb: np.ndarray
    priority: np.ndarray
    job_index: np.ndarray
    job_is_bot: np.ndarray
    hist_failures: np.ndarray
    hist_intervals: np.ndarray  # (n_tasks, max_failures) padded with inf
    interval_scale: np.ndarray  # per-task true mean interval (0 = unknown)

    @property
    def n_tasks(self) -> int:
        """Number of tasks."""
        return int(self.te.size)

    @property
    def n_jobs(self) -> int:
        """Number of jobs."""
        return int(self.job_is_bot.size)


def flatten_trace(trace: Trace) -> FlatTasks:
    """Flatten a trace into contiguous per-task arrays."""
    te, mem, prio, jidx, hist_n, scales = [], [], [], [], [], []
    interval_rows: list[tuple[float, ...]] = []
    job_is_bot = np.asarray(
        [j.job_type is JobType.BAG_OF_TASKS for j in trace], dtype=bool
    )
    for i, job in enumerate(trace):
        for task in job.tasks:
            te.append(task.te)
            mem.append(task.mem_mb)
            prio.append(task.priority)
            jidx.append(i)
            hist_n.append(task.n_failures)
            scales.append(task.interval_scale)
            interval_rows.append(task.failure_intervals)
    max_f = max((len(r) for r in interval_rows), default=0)
    mat = np.full((len(te), max(max_f, 1)), np.inf)
    for i, row in enumerate(interval_rows):
        if row:
            mat[i, : len(row)] = row
    return FlatTasks(
        te=np.asarray(te, dtype=float),
        mem_mb=np.asarray(mem, dtype=float),
        priority=np.asarray(prio, dtype=np.int64),
        job_index=np.asarray(jidx, dtype=np.int64),
        job_is_bot=job_is_bot,
        hist_failures=np.asarray(hist_n, dtype=np.int64),
        hist_intervals=mat,
        interval_scale=np.asarray(scales, dtype=float),
    )


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@lru_cache(maxsize=8)
def _flat_cached(n_jobs: int, seed: int, only_failed_jobs: bool) -> FlatTasks:
    """:func:`flatten_trace` of a :func:`default_trace`, arrays read-only."""
    flat = flatten_trace(default_trace(n_jobs, seed, only_failed_jobs))
    for f in fields(flat):
        _read_only(getattr(flat, f.name))
    return flat


@lru_cache(maxsize=32)
def _estimates_cached(
    n_jobs: int, seed: int, only_failed_jobs: bool,
    estimation: str, length_cap: float,
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_estimates` over :func:`_flat_cached`, arrays read-only."""
    mnof, mtbf = _estimates(_flat_cached(n_jobs, seed, only_failed_jobs),
                            default_trace(n_jobs, seed, only_failed_jobs),
                            estimation, length_cap)
    return _read_only(mnof), _read_only(mtbf)


@dataclass
class PolicyRun:
    """Outcome of evaluating one policy over a trace."""

    policy_name: str
    estimation: str
    flat: FlatTasks
    sim: SimulationResult
    job_wpr: np.ndarray
    job_wall: np.ndarray
    job_is_bot: np.ndarray
    job_priority: np.ndarray

    def mean_wpr(self) -> float:
        """Average job WPR."""
        return float(np.mean(self.job_wpr))

    def lowest_wpr(self) -> float:
        """Worst job WPR."""
        return float(np.min(self.job_wpr))

    def wpr_by_type(self, bot: bool) -> np.ndarray:
        """Job WPRs restricted to BoT (``bot=True``) or ST jobs."""
        return self.job_wpr[self.job_is_bot == bot]

    def wall_by_type(self, bot: bool) -> np.ndarray:
        """Job wall-clocks restricted to one structure."""
        return self.job_wall[self.job_is_bot == bot]


def _estimates(
    flat: FlatTasks,
    trace: Trace,
    estimation: str,
    length_cap: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-task (mnof, mtbf) arrays under the chosen estimation mode."""
    if estimation == "oracle":
        mnof = flat.hist_failures.astype(float)
        finite = np.isfinite(flat.hist_intervals)
        n_obs = finite.sum(axis=1)
        sums = np.where(finite, flat.hist_intervals, 0.0).sum(axis=1)
        mtbf = np.where(n_obs > 0, sums / np.maximum(n_obs, 1), np.inf)
        return mnof, mtbf
    if estimation == "priority":
        est = build_estimator(trace)
        mnof_map = est.mnof_lookup(length_cap)
        mtbf_map = est.mtbf_lookup(length_cap)
        return (by_priority(mnof_map, flat.priority, 0.0),
                by_priority(mtbf_map, flat.priority, math.inf))
    raise ValueError(f"estimation must be 'oracle' or 'priority', got {estimation!r}")


def policy_run_spec(
    policy: str,
    *,
    policy_param: float = 0.0,
    n_jobs: int = DEFAULT_N_JOBS,
    trace_seed: int = 2013,
    only_failed_jobs: bool = True,
    estimation: str = "priority",
    failure_mode: str = "replay",
    length_cap: float | None = None,
    storage: str = "auto",
    seed: int = 99,
    restart_delay: float = 0.0,
    workers: int = 1,
    name: str | None = None,
) -> RunSpec:
    """Build the replay-tier :class:`RunSpec` for one policy evaluation.

    The keywords name the spec fields the paper-artifact experiments
    vary; ``seed`` is ``execution.base_seed`` (the redraw-mode failure
    seed).
    """
    return RunSpec(
        name=name or f"{policy}-{storage}-j{n_jobs}-t{trace_seed}",
        workload=WorkloadSpec(
            source="history",
            n_jobs=n_jobs,
            trace_seed=trace_seed,
            only_failed_jobs=only_failed_jobs,
        ),
        failures=FailureSpec(mode=failure_mode),
        storage=StorageSpec(mode=storage),
        policy=PolicySpec(name=policy, param=policy_param,
                          estimation=estimation, length_cap=length_cap),
        execution=ExecutionSpec(tier="replay", base_seed=seed,
                                workers=workers,
                                restart_delay=restart_delay),
    )


def evaluate_policy(spec: RunSpec, *, trace: Trace | None = None) -> PolicyRun:
    """Run one replay-tier policy evaluation (see module docstring).

    Build the spec with :func:`policy_run_spec` (or any replay-tier
    :class:`~repro.spec.RunSpec`); ``trace=`` overrides the
    materialized evaluation trace for samples no spec describes (the
    RL-filtered jobs of Figs. 11–13, a trace synthesized from a
    perturbed frailty catalog), so it is the experiments' path, not
    :func:`repro.api.run`'s::

        evaluate_policy(policy_run_spec("optimal", estimation="oracle"))
        evaluate_policy(spec, trace=filter_by_length(base, 1000.0))

    Without ``trace=``, the flattened trace and the per-task estimates
    come from a process-wide cache next to :func:`default_trace`'s,
    keyed on the workload's trace fields and on ``(estimation,
    length_cap)``; their arrays are read-only, since every cell over
    the same trace shares them (:func:`clear_trace_cache` drops them).
    A ``trace=`` override is flattened and estimated afresh.

    Engine semantics: ``failures.mode`` is ``"replay"`` (each task
    re-experiences its historical intervals — identical failures
    across policies) or ``"redraw"`` (fresh intervals from the frailty
    ground truth; a ``trace`` override without per-task
    ``interval_scale`` cannot redraw and raises :class:`SpecError`).
    ``policy.length_cap`` restricts the
    priority-group estimation to tasks at most that long (the paper's
    RL-capped estimation for Figs. 11–13).  ``storage.mode`` picks the
    checkpoint backend per :func:`~repro.core.placement.storage_costs`.
    ``execution.workers`` fans the Monte-Carlo batch out over a process
    pool via :mod:`repro.parallel` — results are bit-for-bit identical
    for every worker count.

    It is :func:`evaluate_lanes` with one lane.
    """
    return evaluate_lanes([spec], trace=trace)[0]


#: The spec fields the lanes of one :func:`evaluate_lanes` pass may
#: differ in (besides the name): neither changes a task's uptimes.
_LANE_FIELDS = {"storage.mode": "auto", "policy.estimation": "priority"}


def lane_key(spec: RunSpec) -> str:
    """What the lanes of one :func:`evaluate_lanes` pass share: the
    digest of the spec with its name and :data:`_LANE_FIELDS`
    blanked."""
    return spec.evolve(name="lanes", **_LANE_FIELDS).spec_digest()


def evaluate_lanes(specs: list[RunSpec], *,
                   trace: Trace | None = None) -> list[PolicyRun]:
    """Evaluate replay-tier specs that differ only in ``storage.mode``
    and ``policy.estimation`` on one kernel pass, one lane per spec.

    Each spec is resolved as :func:`evaluate_policy` describes.  The
    lanes then share every uptime, so they must agree on each task's
    interval count, and on its checkpoint cost wherever it takes a
    checkpoint (a task of one interval never reads its cost): that
    holds for a policy that takes no checkpoint, whatever storage and
    estimation decide.  Each lane charges its own restart costs.
    Returns one :class:`PolicyRun` per spec, in order, each
    bit-identical to ``evaluate_policy(spec)``; specs that differ
    beyond those fields, or lanes that disagree, raise
    :class:`SpecError`.
    """
    from repro.verify.scenarios import make_policy

    spec = specs[0]
    w, pol, ex = spec.workload, spec.policy, spec.execution
    if ex.tier != "replay":
        raise SpecError(
            f"{spec.name}: evaluate_policy runs the 'replay' tier; this "
            f"spec targets {ex.tier!r} — use repro.api.run(spec)"
        )
    for other in specs[1:]:
        if lane_key(other) != lane_key(spec):
            raise SpecError(
                f"{other.name}: lanes of one pass may differ only in "
                f"{' and '.join(_LANE_FIELDS)}; it differs from "
                f"{spec.name} elsewhere"
            )
    policy = make_policy(pol.name, pol.param)
    length_cap = pol.length_cap if pol.length_cap is not None else math.inf
    restart_delay, seed, workers = ex.restart_delay, ex.base_seed, ex.workers
    if trace is None:
        # Every cell over one trace shares its per-task inputs; the
        # wrapper is the caller's own (as in default_trace).
        trace_key = (w.n_jobs, w.trace_seed, w.only_failed_jobs)
        flat = replace(_flat_cached(*trace_key))
    else:
        flat = flatten_trace(trace)
    lanes = []
    for lane in specs:
        estimation = lane.policy.estimation
        if trace is None:
            mnof, mtbf = _estimates_cached(*trace_key, estimation, length_cap)
        else:
            mnof, mtbf = _estimates(flat, trace, estimation, length_cap)
        _local, ckpt_cost, rst_cost, counts = resolve_tasks(
            lane.storage.mode, policy, flat.te, flat.mem_mb, mnof, mtbf)
        lanes.append((ckpt_cost, rst_cost, counts))
    ckpt_cost, _, counts = lanes[0]
    ckpt = counts > 1
    for lane, (c, _, x) in zip(specs[1:], lanes[1:]):
        if not (np.array_equal(x, counts)
                and np.array_equal(c[ckpt], ckpt_cost[ckpt])):
            raise SpecError(
                f"{lane.name}: its interval counts, or its checkpoint "
                f"costs where it checkpoints, differ from {spec.name}'s; "
                "lanes must share them"
            )
    # One column of restart costs per lane; one lane keeps its vector.
    rst_cost = (np.stack([r for _, r, _ in lanes], axis=1)
                if len(lanes) > 1 else lanes[0][1])
    if spec.failures.mode == "replay":
        sim = simulate_tasks_replay_sharded(
            flat.te, counts, ckpt_cost, rst_cost, flat.hist_intervals,
            restart_delay=restart_delay, workers=workers,
        )
    elif np.all(flat.interval_scale > 0):
        # Redraw with the frailty ground truth: fresh exponential
        # intervals with each task's private scale (blocked + sharded).
        sim = simulate_tasks_scaled_sharded(
            flat.te, counts, ckpt_cost, rst_cost, flat.interval_scale,
            seed=seed, restart_delay=restart_delay, workers=workers,
        )
    else:
        raise SpecError(
            f"{spec.name}: failures.mode='redraw' needs every task's "
            "interval_scale, and this trace has tasks whose scales are "
            "missing; use failures.mode='replay'"
        )

    # Job wall-clock: sum of task wall-clocks for ST, max for BoT.
    n, n_jobs = flat.n_tasks, flat.n_jobs
    runs = []
    for i, lane in enumerate(specs):
        rows = slice(i * n, (i + 1) * n)
        lane_sim = SimulationResult(
            te=sim.te[rows], wallclock=sim.wallclock[rows],
            n_failures=sim.n_failures[rows], intervals=sim.intervals[rows],
            completed=sim.completed[rows])
        wall = lane_sim.wallclock
        wall_sum = np.bincount(flat.job_index, weights=wall, minlength=n_jobs)
        wall_max = np.zeros(n_jobs)
        np.maximum.at(wall_max, flat.job_index, wall)
        job_priority = np.zeros(n_jobs, dtype=np.int64)
        job_priority[flat.job_index] = flat.priority
        runs.append(PolicyRun(
            policy_name=policy.name,
            estimation=lane.policy.estimation,
            flat=flat,
            sim=lane_sim,
            job_wpr=wpr_from_arrays(flat.te, wall, flat.job_index),
            job_wall=np.where(flat.job_is_bot, wall_max, wall_sum),
            job_is_bot=flat.job_is_bot,
            job_priority=job_priority,
        ))
    return runs
