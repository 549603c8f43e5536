"""Named, seeded verify scenarios and their concrete workload builder.

A scenario is a registered :class:`~repro.spec.RunSpec` (at
``tier="scalar"``, ``base_seed=0``): which failure laws drive which
priorities, how task lengths/memory are drawn, which checkpoint policy
and storage backend apply, how jobs arrive, and how strictly the
execution tiers must agree (``execution.compare``).  ``repro verify``,
``repro run --scenario NAME`` and :func:`repro.api.run` all execute
these specs directly; ``get_scenario(name).evolve(**{"execution.tier":
"des"})`` is the same scenario on another tier.  The builder
(:func:`build_workload`) turns a scalar/vector/DES-tier spec into a
:class:`Workload` — per-task parameter arrays (length, memory,
priority, submit time, planned interval count and costs) that the
scalar and vectorized tiers read directly, plus the
:class:`~repro.cluster.config.ClusterConfig` for the DES tier — as a
pure function of the spec (its ``execution.base_seed`` included).  The
DES tier's :class:`~repro.trace.models.Trace` is built from those
arrays on first access to :attr:`Workload.trace`, so the scalar and
vectorized tiers never pay for the per-task ``Task``/``Job`` objects.

Cross-tier alignment contract
-----------------------------
The DES seeds each task's failure injector as
``default_rng((seed, task_id))`` and quotes uncontended checkpoint
costs on contention-free storage.  The scalar tier draws each task's
uptimes from the same ``default_rng((seed, task_id))`` stream, only
with the streams' states computed in batch
(:func:`repro.failures.streams.task_stream_states`), so it consumes
the *identical* uptime draw sequence.  Under
``compare="exact"`` the differential runner therefore demands per-task
bit-level agreement of failure counts and float-accumulation-level
agreement of overhead-adjusted wallclocks.  ``"stats"`` scenarios
(storage contention reprices checkpoints) and ``"loose"`` scenarios
(host crashes exist only in the DES model) relax this to statistical
and bounded-ratio agreement respectively; the scalar-vs-vectorized
comparison is statistical everywhere because the vectorized tier draws
from one batched stream.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.cluster.config import ClusterConfig
from repro.core.placement import by_priority, resolve_tasks
from repro.core.policies import (
    CheckpointPolicy,
    DalyPolicy,
    FixedCountPolicy,
    FixedIntervalPolicy,
    NoCheckpointPolicy,
    OptimalCountPolicy,
    YoungPolicy,
)
from repro.failures.catalog import ExplicitCatalog, google_like_catalog
from repro.failures.distributions import (
    Distribution,
    Exponential,
    LogNormal,
    Mixture,
    Pareto,
    Weibull,
)
from repro.spec import (
    DISTRIBUTION_FAMILIES,
    POLICY_NAMES,
    ExecutionSpec,
    FailureLawSpec,
    FailureSpec,
    PolicySpec,
    RunSpec,
    SpecError,
    StorageSpec,
    WorkloadSpec,
)
from repro.trace.models import Job, JobType, Task, Trace
from repro.trace.synthesizer import TraceConfig, synthesize_trace

__all__ = [
    "SCENARIOS",
    "Workload",
    "build_workload",
    "get_scenario",
    "list_scenarios",
    "make_distribution",
    "make_policy",
    "register_scenario",
]


def make_distribution(family: str, mean: float, shape: float = 0.0) -> Distribution:
    """Construct a named interval law with expected value ``mean``.

    ``family`` must be one of
    :data:`repro.spec.DISTRIBUTION_FAMILIES`; anything else raises
    :class:`~repro.spec.SpecError` listing the valid names.
    """
    if mean <= 0:
        raise SpecError(f"mean must be positive, got {mean}")
    if family == "exponential":
        return Exponential(1.0 / mean)
    if family == "weibull":
        k = shape if shape > 0 else 1.5
        lam = mean / math.gamma(1.0 + 1.0 / k)
        return Weibull(k, lam)
    if family == "pareto":
        alpha = shape if shape > 1.0 else 2.5
        return Pareto(xm=mean * (alpha - 1.0) / alpha, alpha=alpha)
    if family == "lognormal":
        sigma = shape if shape > 0 else 1.0
        return LogNormal(math.log(mean) - 0.5 * sigma**2, sigma)
    if family == "mixture":
        # Exponential body + Pareto tail, the calibrated catalog's shape.
        return Mixture(
            [Exponential(1.0 / mean), Pareto(xm=3.0 * mean, alpha=1.15)],
            [0.75, 0.25],
        )
    raise SpecError(
        f"unknown distribution family {family!r}; "
        f"valid: {', '.join(DISTRIBUTION_FAMILIES)}"
    )


def make_policy(policy: str, param: float = 0.0) -> CheckpointPolicy:
    """Construct the checkpoint policy named by a spec or scenario.

    ``policy`` must be one of :data:`repro.spec.POLICY_NAMES`; anything
    else raises :class:`~repro.spec.SpecError` listing the valid names.
    """
    if policy == "optimal":
        return OptimalCountPolicy()
    if policy == "young":
        return YoungPolicy()
    if policy == "daly":
        return DalyPolicy()
    if policy == "fixed-interval":
        return FixedIntervalPolicy(param)
    if policy == "fixed-count":
        return FixedCountPolicy(int(param))
    if policy == "none":
        return NoCheckpointPolicy()
    raise SpecError(
        f"unknown policy {policy!r}; valid: {', '.join(POLICY_NAMES)}"
    )


@dataclass
class Workload:
    """A spec materialized into tier-ready inputs.

    The per-task arrays are all the scalar and vectorized tiers read.
    :attr:`trace` is the DES tier's input, built on first access (a
    ``google`` workload arrives with its synthesized trace instead).
    """

    spec: RunSpec
    seed: int
    # per-task arrays (task_id order)
    te: np.ndarray
    mem_mb: np.ndarray
    priority: np.ndarray
    submit: np.ndarray
    intervals: np.ndarray
    checkpoint_cost: np.ndarray
    restart_cost: np.ndarray
    dist_ids: np.ndarray
    distributions: dict[int, Distribution]
    # DES-side inputs
    cluster: ClusterConfig
    catalog: object
    mnof_by_priority: dict[int, float]
    mtbf_by_priority: dict[int, float]

    @property
    def n_tasks(self) -> int:
        """Number of tasks in the workload."""
        return int(self.te.size)

    @cached_property
    def trace(self) -> Trace:
        """The DES tier's trace: one single-task sequential job per task,
        ``job_id == task_id``, submitted at ``submit``."""
        jobs = []
        for i, (te, mem, priority, submit) in enumerate(zip(
            self.te.tolist(), self.mem_mb.tolist(),
            self.priority.tolist(), self.submit.tolist(),
        )):
            task = Task(task_id=i, job_id=i, index=0, te=te, mem_mb=mem,
                        priority=priority)
            jobs.append(Job(job_id=i, job_type=JobType.SEQUENTIAL,
                            submit_time=submit, tasks=(task,)))
        return Trace(tuple(jobs))


# ----------------------------------------------------------------------
def _arrival_times(
    w: WorkloadSpec, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Submission times under the workload's arrival pattern."""
    if w.arrival == "batch":
        return np.zeros(n)
    if w.arrival == "steady":
        return np.cumsum(rng.exponential(1.0 / w.arrival_rate, size=n))
    # bursty: simultaneous batches, exponential gaps between batches
    n_bursts = (n + w.burst_size - 1) // w.burst_size
    gaps = rng.exponential(w.burst_size / w.arrival_rate, size=n_bursts)
    starts = np.cumsum(gaps)
    return np.repeat(starts, w.burst_size)[:n]


def _build_synthetic(spec: RunSpec, seed: int) -> Workload:
    """Materialize a law-driven (``source="synthetic"``) workload."""
    rng = np.random.default_rng((seed, 0xB11D))
    w = spec.workload
    n = w.n_tasks

    if w.te_mode == "fixed":
        te = np.full(n, float(w.te_mean))
    else:
        te = np.clip(
            rng.lognormal(math.log(w.te_mean), w.te_sigma, size=n),
            w.te_min,
            w.te_max,
        )
    mem = np.clip(
        rng.lognormal(math.log(w.mem_mean), w.mem_sigma, size=n),
        w.mem_min,
        w.mem_max,
    )
    laws = spec.failures.laws
    priority = np.asarray([law.priority for law in laws],
                          dtype=np.int64)[np.arange(n) % len(laws)]
    distributions = {
        law.priority: make_distribution(law.family, law.mean, law.shape)
        for law in laws
    }
    mnof_map: dict[int, float] = {}
    mtbf_map: dict[int, float] = {}
    for law in laws:
        dist_mean = distributions[law.priority].mean()
        mtbf_map[law.priority] = (
            dist_mean if np.isfinite(dist_mean) and dist_mean > 0 else law.mean
        )
        mnof_map[law.priority] = w.te_mean / law.mean

    submit = _arrival_times(w, n, rng)
    # What Task/Job/Trace would reject, checked without building them
    # (written so that NaN fails too).
    if not np.all(te > 0):
        raise ValueError(f"te must be positive, got {te[~(te > 0)][0]}")
    if not np.all(mem > 0):
        raise ValueError(f"mem_mb must be positive, got {mem[~(mem > 0)][0]}")
    if not np.all(submit >= 0):
        raise ValueError(
            f"submit_time must be >= 0, got {submit[~(submit >= 0)][0]}"
        )
    if np.any(submit[1:] < submit[:-1]):
        raise ValueError("jobs must be sorted by submit_time")
    catalog = ExplicitCatalog(distributions)
    return _finalize(
        spec, seed, te, mem, priority, submit, priority.copy(),
        distributions, None, catalog, mnof_map, mtbf_map,
    )


def _build_from_trace(spec: RunSpec, seed: int) -> Workload:
    """Materialize a synthesized Google-like trace (``source="google"``).

    Every synthesized task carries its private frailty scale, which the
    DES injects as an exponential law seeded per task — so the scalar
    tier mirrors it with per-task distributions keyed by ``task_id``.
    """
    catalog = google_like_catalog()
    w = spec.workload
    tcfg = TraceConfig(
        n_jobs=w.trace_jobs,
        arrival_rate=w.arrival_rate,
        arrival_pattern=w.trace_arrival,
        burst_size=w.trace_burst_size,
        mem_max=w.mem_max,
        length_max=w.te_max,
    )
    trace = synthesize_trace(tcfg, catalog=catalog, seed=seed)
    rows = sorted(((t, job.submit_time) for job in trace for t in job.tasks),
                  key=lambda row: row[0].task_id)
    tasks = [t for t, _ in rows]
    submit = np.asarray([s for _, s in rows])
    te = np.asarray([t.te for t in tasks])
    mem = np.asarray([t.mem_mb for t in tasks])
    priority = np.asarray([t.priority for t in tasks], dtype=np.int64)
    dist_ids = np.asarray([t.task_id for t in tasks], dtype=np.int64)
    distributions = {
        t.task_id: Exponential(1.0 / t.interval_scale) for t in tasks
    }
    priorities = sorted(set(int(p) for p in priority))
    mnof_map = {p: catalog.expected_mnof(p) for p in priorities}
    mtbf_map = {p: min(catalog.base(p), 1e9) for p in priorities}
    return _finalize(
        spec, seed, te, mem, priority, submit, dist_ids, distributions,
        trace, catalog, mnof_map, mtbf_map,
    )


def _finalize(
    spec: RunSpec,
    seed: int,
    te: np.ndarray,
    mem: np.ndarray,
    priority: np.ndarray,
    submit: np.ndarray,
    dist_ids: np.ndarray,
    distributions: dict[int, Distribution],
    trace: Trace | None,
    catalog: object,
    mnof_map: dict[int, float],
    mtbf_map: dict[int, float],
) -> Workload:
    """Plan every task with the one batched
    :func:`~repro.core.placement.resolve_tasks` call the DES platform
    also makes, and assemble the :class:`Workload`.  The checkpoint cost
    is the uncontended quote (the DES adds congestion pricing on shared
    backends, which the ``stats`` compare mode tolerates).  A given
    ``trace`` fills :attr:`Workload.trace`'s cache; ``None`` leaves it
    to be built from the arrays on first access."""
    storage = spec.storage.mode
    _local, ckpt, rest, x = resolve_tasks(
        storage,
        make_policy(spec.policy.name, spec.policy.param),
        te,
        mem,
        by_priority(mnof_map, priority, 0.0),
        by_priority(mtbf_map, priority, math.inf),
    )
    ex = spec.execution
    cluster = ClusterConfig(
        n_hosts=ex.n_hosts,
        vms_per_host=ex.vms_per_host,
        vms_per_host_pattern=ex.vms_per_host_pattern,
        storage=storage,
        failure_detection_delay=ex.failure_detection_delay,
        placement_overhead=ex.placement_overhead,
        host_mtbf=spec.failures.host_mtbf,
        host_repair_time=spec.failures.host_repair_time,
    )
    workload = Workload(
        spec=spec,
        seed=seed,
        te=te,
        mem_mb=mem,
        priority=priority,
        submit=submit,
        intervals=x,
        checkpoint_cost=ckpt,
        restart_cost=rest,
        dist_ids=dist_ids,
        distributions=distributions,
        cluster=cluster,
        catalog=catalog,
        mnof_by_priority=mnof_map,
        mtbf_by_priority=mtbf_map,
    )
    if trace is not None:
        vars(workload)["trace"] = trace
    return workload


def build_workload(spec: RunSpec) -> Workload:
    """Materialize ``spec`` deterministically.

    The workload seed mixes ``execution.base_seed`` with the spec name
    (``crc32(f"{base_seed}:{name}")``), so every registered scenario
    draws its own stream under one base seed.
    """
    if spec.workload.source == "history":
        raise SpecError(
            f"{spec.name}: 'history' workloads run on the replay tier "
            "(repro.experiments), not through build_workload"
        )
    base_seed = spec.execution.base_seed
    seed = zlib.crc32(f"{base_seed}:{spec.name}".encode()) & 0x7FFFFFFF
    if spec.workload.source == "google":
        return _build_from_trace(spec, seed)
    return _build_synthetic(spec, seed)


# ----------------------------------------------------------------------
# The registry.
# ----------------------------------------------------------------------
SCENARIOS: dict[str, RunSpec] = {}


def register_scenario(spec: RunSpec) -> RunSpec:
    """Add ``spec`` to the global registry (names are unique)."""
    if spec.name in SCENARIOS:
        raise ValueError(f"scenario {spec.name!r} registered twice")
    SCENARIOS[spec.name] = spec
    return spec


def get_scenario(name: str) -> RunSpec:
    """Look up a scenario by name."""
    try:
        return SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; known: {sorted(SCENARIOS)}"
        ) from None


def list_scenarios(quick_only: bool = False) -> list[RunSpec]:
    """Registered scenarios in registration order."""
    specs = list(SCENARIOS.values())
    if quick_only:
        specs = [s for s in specs if s.execution.quick]
    return specs


def _exp(priority: int, mean: float) -> FailureLawSpec:
    return FailureLawSpec(priority=priority, family="exponential", mean=mean)


# -- failure-rate / priority axis --------------------------------------
register_scenario(RunSpec(
    name="exp-baseline-local",
    description="Exponential failures, priority 5, local ramdisk, Formula (3); "
                "the reference point every other scenario perturbs.",
    tags=("distribution:exponential", "storage:local", "policy:optimal"),
    workload=WorkloadSpec(n_tasks=64),
    failures=FailureSpec(laws=(_exp(5, 600.0),)),
    execution=ExecutionSpec(quick=True),
))
register_scenario(RunSpec(
    name="exp-per-priority-spread",
    description="Five priorities with Fig. 4-style geometric interval growth; "
                "per-priority failure rates diverge by two orders of magnitude.",
    tags=("distribution:exponential", "priority:spread"),
    workload=WorkloadSpec(n_tasks=80),
    failures=FailureSpec(laws=(_exp(1, 200.0), _exp(3, 500.0), _exp(5, 1200.0),
                               _exp(8, 5000.0), _exp(12, 40000.0))),
))
register_scenario(RunSpec(
    name="exp-high-failure-rate",
    description="Low priority under heavy preemption: several failures per task.",
    tags=("distribution:exponential", "priority:low", "rate:high"),
    workload=WorkloadSpec(n_tasks=48, te_mean=400.0),
    failures=FailureSpec(laws=(_exp(1, 150.0),)),
    execution=ExecutionSpec(quick=True),
))
register_scenario(RunSpec(
    name="exp-rare-failures",
    description="Top priority, near-failure-free: the x=1 degenerate regime.",
    tags=("distribution:exponential", "priority:high", "rate:rare"),
    workload=WorkloadSpec(n_tasks=64),
    failures=FailureSpec(laws=(_exp(12, 50000.0),)),
))

# -- distribution-family axis ------------------------------------------
register_scenario(RunSpec(
    name="weibull-infant-mortality",
    description="Weibull k=0.7 (decreasing hazard) — early-failure clustering.",
    tags=("distribution:weibull", "hazard:decreasing"),
    workload=WorkloadSpec(n_tasks=64),
    failures=FailureSpec(laws=(FailureLawSpec(5, "weibull", 700.0, 0.7),)),
))
register_scenario(RunSpec(
    name="weibull-wearout",
    description="Weibull k=1.8 (increasing hazard) — wear-out style failures.",
    tags=("distribution:weibull", "hazard:increasing"),
    workload=WorkloadSpec(n_tasks=64),
    failures=FailureSpec(laws=(FailureLawSpec(5, "weibull", 700.0, 1.8),)),
    execution=ExecutionSpec(quick=True),
))
register_scenario(RunSpec(
    name="pareto-moderate-tail",
    description="Pareto alpha=2.5 intervals (finite variance heavy tail).",
    tags=("distribution:pareto", "tail:moderate"),
    workload=WorkloadSpec(n_tasks=64),
    failures=FailureSpec(laws=(FailureLawSpec(4, "pareto", 800.0, 2.5),)),
))
register_scenario(RunSpec(
    name="pareto-heavy-tail",
    description="Pareto alpha=1.4 intervals — infinite-variance preemption gaps "
                "(the Fig. 5 pooled-population regime).",
    tags=("distribution:pareto", "tail:heavy"),
    workload=WorkloadSpec(n_tasks=64),
    failures=FailureSpec(laws=(FailureLawSpec(3, "pareto", 900.0, 1.4),)),
))
register_scenario(RunSpec(
    name="lognormal-intervals",
    description="LogNormal sigma=1.2 intervals — multiplicative interval noise.",
    tags=("distribution:lognormal",),
    workload=WorkloadSpec(n_tasks=64),
    failures=FailureSpec(laws=(FailureLawSpec(6, "lognormal", 700.0, 1.2),)),
))
register_scenario(RunSpec(
    name="mixture-body-tail",
    description="Exponential body + Pareto tail mixture, the calibrated "
                "catalog's pooled per-priority shape.",
    tags=("distribution:mixture", "tail:pareto"),
    workload=WorkloadSpec(n_tasks=64),
    failures=FailureSpec(laws=(FailureLawSpec(5, "mixture", 400.0),)),
))

# -- storage axis -------------------------------------------------------
register_scenario(RunSpec(
    name="storage-nfs-contended",
    description="One shared NFS server under simultaneous checkpoint writers; "
                "the DES prices Table 2 congestion the analytic tiers cannot.",
    tags=("storage:nfs", "contention:high"),
    workload=WorkloadSpec(n_tasks=40),
    failures=FailureSpec(laws=(_exp(4, 500.0),)),
    storage=StorageSpec(mode="nfs"),
    execution=ExecutionSpec(n_hosts=4, compare="stats"),
))
register_scenario(RunSpec(
    name="storage-dmnfs",
    description="DM-NFS (one server per host, random pick): contention is rare, "
                "so costs stay near the uncontended shared quote (Table 3).",
    tags=("storage:dmnfs", "contention:low"),
    workload=WorkloadSpec(n_tasks=48),
    failures=FailureSpec(laws=(_exp(4, 500.0),)),
    storage=StorageSpec(mode="dmnfs"),
    execution=ExecutionSpec(n_hosts=16, compare="stats"),
))
register_scenario(RunSpec(
    name="storage-auto-selection",
    description="Per-task §4.2.2 local-vs-shared selection; tasks split across "
                "migration types A and B.",
    tags=("storage:auto", "selector:4.2.2"),
    workload=WorkloadSpec(n_tasks=56),
    failures=FailureSpec(laws=(_exp(2, 250.0), _exp(7, 2500.0))),
    storage=StorageSpec(mode="auto"),
    execution=ExecutionSpec(compare="stats"),
))

# -- restart-delay / overhead axis -------------------------------------
register_scenario(RunSpec(
    name="restart-delay-long",
    description="Slow failure detection (30 s) and heavy placement (5 s): the "
                "per-failure delay term dominates the wallclock.",
    tags=("delay:detection", "delay:placement"),
    workload=WorkloadSpec(n_tasks=48),
    failures=FailureSpec(laws=(_exp(3, 400.0),)),
    execution=ExecutionSpec(failure_detection_delay=30.0,
                            placement_overhead=5.0),
))
register_scenario(RunSpec(
    name="restart-delay-zero",
    description="Instant detection and placement — the pure model with zero "
                "exogenous delays.",
    tags=("delay:none",),
    workload=WorkloadSpec(n_tasks=48),
    failures=FailureSpec(laws=(_exp(3, 400.0),)),
    execution=ExecutionSpec(failure_detection_delay=0.0,
                            placement_overhead=0.0),
))
register_scenario(RunSpec(
    name="checkpoint-costly-mem",
    description="Large memory images (180-240 MB): checkpoints near the top of "
                "the Fig. 7 cost range, few intervals are optimal.",
    tags=("memory:large", "cost:high"),
    workload=WorkloadSpec(n_tasks=40, mem_mean=210.0, mem_sigma=0.08,
                          mem_min=180.0, mem_max=240.0),
    failures=FailureSpec(laws=(_exp(5, 600.0),)),
))
register_scenario(RunSpec(
    name="checkpoint-cheap-mem",
    description="Tiny memory images: near-free checkpoints, many intervals.",
    tags=("memory:small", "cost:low"),
    workload=WorkloadSpec(n_tasks=56, mem_mean=12.0, mem_sigma=0.1,
                          mem_min=10.0, mem_max=16.0),
    failures=FailureSpec(laws=(_exp(5, 600.0),)),
))

# -- policy axis --------------------------------------------------------
register_scenario(RunSpec(
    name="policy-young",
    description="Young's sqrt(2*C*MTBF) interval applied to finite tasks.",
    tags=("policy:young",),
    workload=WorkloadSpec(n_tasks=48),
    failures=FailureSpec(laws=(_exp(4, 800.0),)),
    policy=PolicySpec(name="young"),
))
register_scenario(RunSpec(
    name="policy-daly",
    description="Daly's higher-order interval as the checkpoint policy.",
    tags=("policy:daly",),
    workload=WorkloadSpec(n_tasks=48),
    failures=FailureSpec(laws=(_exp(4, 800.0),)),
    policy=PolicySpec(name="daly"),
))
register_scenario(RunSpec(
    name="policy-fixed-interval",
    description="Naive fixed 120 s checkpoint interval (ablation baseline).",
    tags=("policy:fixed-interval",),
    workload=WorkloadSpec(n_tasks=48),
    failures=FailureSpec(laws=(_exp(4, 700.0),)),
    policy=PolicySpec(name="fixed-interval", param=120.0),
))
register_scenario(RunSpec(
    name="policy-no-checkpoint",
    description="Never checkpoint: every failure restarts from scratch.",
    tags=("policy:none", "rollback:full"),
    workload=WorkloadSpec(n_tasks=48),
    failures=FailureSpec(laws=(_exp(6, 1500.0),)),
    policy=PolicySpec(name="none"),
    execution=ExecutionSpec(quick=True),
))

# -- task-shape axis ----------------------------------------------------
register_scenario(RunSpec(
    name="long-tasks",
    description="Two-hour tasks under moderate failure rates: deep checkpoint "
                "grids and multi-failure executions.",
    tags=("te:long",),
    workload=WorkloadSpec(n_tasks=24, te_mode="fixed", te_mean=7200.0),
    failures=FailureSpec(laws=(_exp(5, 2500.0),)),
))
register_scenario(RunSpec(
    name="short-tasks",
    description="One-minute tasks where overheads rival productive work.",
    tags=("te:short",),
    workload=WorkloadSpec(n_tasks=80, te_mode="fixed", te_mean=60.0),
    failures=FailureSpec(laws=(_exp(5, 300.0),)),
    execution=ExecutionSpec(quick=True),
))

# -- cluster-shape / arrival axis --------------------------------------
register_scenario(RunSpec(
    name="hetero-hosts",
    description="Heterogeneous deployment: VM counts cycle 2/7/3/5 per host, "
                "skewing the greedy scheduler's placement order.",
    tags=("hosts:heterogeneous", "scheduler:greedy"),
    workload=WorkloadSpec(n_tasks=60),
    failures=FailureSpec(laws=(_exp(5, 600.0),)),
    execution=ExecutionSpec(n_hosts=6, vms_per_host_pattern=(2, 7, 3, 5)),
))
register_scenario(RunSpec(
    name="tight-capacity-queueing",
    description="Six VMs for 48 simultaneous tasks: deep FIFO queueing; "
                "service-time agreement must survive saturation.",
    tags=("capacity:tight", "queue:deep"),
    workload=WorkloadSpec(n_tasks=48),
    failures=FailureSpec(laws=(_exp(5, 700.0),)),
    execution=ExecutionSpec(n_hosts=2, vms_per_host=3),
))
register_scenario(RunSpec(
    name="bursty-arrivals",
    description="Flash crowds: bursts of 12 simultaneous submissions.",
    tags=("arrival:bursty",),
    workload=WorkloadSpec(n_tasks=60, arrival="bursty", burst_size=12,
                          arrival_rate=0.3),
    failures=FailureSpec(laws=(_exp(5, 600.0),)),
))
register_scenario(RunSpec(
    name="steady-arrivals",
    description="Poisson arrivals at 0.2 jobs/s — the classic open system.",
    tags=("arrival:steady",),
    workload=WorkloadSpec(n_tasks=48, arrival="steady", arrival_rate=0.2),
    failures=FailureSpec(laws=(_exp(5, 600.0),)),
))

# -- synthesized Google-like traces ------------------------------------
register_scenario(RunSpec(
    name="google-trace-steady",
    description="Synthesized Google-like trace (frailty ground truth, mixed "
                "ST/BoT jobs) with Poisson arrivals, local storage.",
    tags=("workload:google-like", "arrival:steady", "frailty:per-task"),
    workload=WorkloadSpec(source="google", trace_jobs=30, arrival_rate=0.5,
                          mem_max=800.0, te_max=20000.0),
))
register_scenario(RunSpec(
    name="google-trace-bursty",
    description="Synthesized Google-like trace arriving in bursts of 10 — the "
                "new bursty synthesizer mode end-to-end.",
    tags=("workload:google-like", "arrival:bursty", "frailty:per-task"),
    workload=WorkloadSpec(source="google", trace_jobs=24,
                          trace_arrival="bursty", trace_burst_size=10,
                          arrival_rate=0.5, mem_max=800.0, te_max=20000.0),
    execution=ExecutionSpec(quick=True),
))

# -- host-crash axis (DES-only physics -> loose bounds) ----------------
register_scenario(RunSpec(
    name="host-crashes-shared",
    description="Host crashes (MTBF 4000 s) with shared checkpoints: images "
                "survive the crash, tasks restart elsewhere (§2 liveness).",
    tags=("hosts:crashing", "storage:dmnfs", "liveness:restart"),
    workload=WorkloadSpec(n_tasks=40),
    failures=FailureSpec(laws=(_exp(5, 800.0),), host_mtbf=4000.0,
                         host_repair_time=60.0),
    storage=StorageSpec(mode="dmnfs"),
    execution=ExecutionSpec(compare="loose", loose_lo=0.7, loose_hi=3.0),
))
register_scenario(RunSpec(
    name="host-crashes-local-wipe",
    description="Host crashes with local ramdisk checkpoints: the image dies "
                "with the host and the task restarts from scratch — §1's "
                "reliability argument for shared disks.",
    tags=("hosts:crashing", "storage:local", "rollback:wipe"),
    workload=WorkloadSpec(n_tasks=40),
    failures=FailureSpec(laws=(_exp(5, 800.0),), host_mtbf=900.0,
                         host_repair_time=60.0),
    storage=StorageSpec(mode="local"),
    execution=ExecutionSpec(compare="loose", loose_lo=0.7, loose_hi=6.0),
))
