"""Google-like trace synthesis, calibrated to the paper's Figures 4/5/8.

Targets reproduced (shape, not bit-exact values):

* **Fig. 8** — most jobs are short with small memory: task lengths are
  lognormal (median a few hundred seconds, tail to hours), memory
  footprints lognormal (median tens of MB, tail to ~1 GB); BoT jobs
  have more, shorter tasks than ST jobs.
* **Fig. 4** — uninterrupted intervals grow with priority: the failure
  catalog (:func:`repro.failures.catalog.google_like_catalog`) draws
  each task's historical intervals from its priority's law.
* **Fig. 5 / Table 7** — the interval population is exponential-bodied
  with a Pareto tail, making MTBF estimates blow up while MNOF stays
  stable per priority.

The historical failure record of each task is produced by running the
task's renewal process until its productive work is covered (progress
preserved across failures — the trace view of a task that is resumed
after each kill/evict event); the final censored run is not recorded,
matching what failure events in a real trace expose.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.failures.catalog import PriorityFailureModel, google_like_catalog
from repro.trace.models import Job, JobType, Task, Trace

__all__ = ["TraceConfig", "synthesize_trace"]


@dataclass(frozen=True)
class TraceConfig:
    """Knobs of the synthetic Google-like workload.

    Defaults reproduce the paper's characterizations; experiments
    override only what they sweep.
    """

    #: number of jobs to generate
    n_jobs: int = 1000
    #: probability a job is a bag-of-tasks (vs sequential)
    bot_fraction: float = 0.5
    #: mean arrival rate, jobs per second (Poisson arrivals)
    arrival_rate: float = 0.1
    #: arrival process shape: ``"poisson"`` (independent exponential
    #: gaps) or ``"bursty"`` (jobs arrive in simultaneous batches of
    #: ``burst_size`` with exponential gaps between batches, preserving
    #: the long-run ``arrival_rate`` — the flash-crowd pattern that
    #: stresses scheduler queueing and checkpoint-storage contention)
    arrival_pattern: str = "poisson"
    #: jobs per burst when ``arrival_pattern == "bursty"``
    burst_size: int = 8
    #: lognormal parameters of task length, seconds
    length_log_mean: float = np.log(300.0)
    length_log_sigma: float = 1.1
    #: hard bounds on task length, seconds
    length_min: float = 30.0
    length_max: float = 259200.0
    #: fraction of long-running service tasks (the Google trace mixes
    #: short batch tasks with multi-day services; these long tasks are
    #: what blows up the per-priority sample MTBF, §5.2 / Table 7)
    long_task_fraction: float = 0.12
    #: lognormal parameters of long-task length, seconds
    long_log_mean: float = np.log(40000.0)
    long_log_sigma: float = 0.9
    #: lognormal parameters of task memory, MB
    mem_log_mean: float = np.log(60.0)
    mem_log_sigma: float = 0.9
    #: hard bounds on task memory, MB
    mem_min: float = 10.0
    mem_max: float = 1000.0
    #: mean number of tasks in a BoT job (geometric, >= 2)
    bot_tasks_mean: float = 6.0
    #: mean number of tasks in an ST job (geometric, >= 1)
    st_tasks_mean: float = 2.0
    #: priority sampling weights for priorities 1..12 (renormalized);
    #: mass concentrated on low priorities like the Google trace
    priority_weights: tuple[float, ...] = (
        0.22, 0.20, 0.12, 0.08, 0.06, 0.05, 0.07, 0.05, 0.04, 0.06, 0.03, 0.02,
    )
    #: per-task cap on historical failures (guards degenerate draws)
    max_failures_per_task: int = 500
    #: lognormal parameters of the failure-detection + resubmission
    #: delay added to each *observed* failure timestamp gap, seconds.
    #: The paper (§4.1) argues exactly this pollution makes MTBF hard
    #: to estimate from traces while leaving failure counts intact.
    resubmit_delay_log_mean: float = np.log(600.0)
    resubmit_delay_log_sigma: float = 1.0

    def __post_init__(self) -> None:
        if self.n_jobs < 1:
            raise ValueError(f"n_jobs must be >= 1, got {self.n_jobs}")
        if not 0.0 <= self.bot_fraction <= 1.0:
            raise ValueError(f"bot_fraction must lie in [0,1], got {self.bot_fraction}")
        if self.arrival_rate <= 0:
            raise ValueError(f"arrival_rate must be positive, got {self.arrival_rate}")
        if self.arrival_pattern not in ("poisson", "bursty"):
            raise ValueError(
                f"arrival_pattern must be 'poisson' or 'bursty', "
                f"got {self.arrival_pattern!r}"
            )
        if self.burst_size < 1:
            raise ValueError(f"burst_size must be >= 1, got {self.burst_size}")
        if len(self.priority_weights) != 12:
            raise ValueError("priority_weights must have 12 entries")
        if self.length_min <= 0 or self.length_min >= self.length_max:
            raise ValueError("need 0 < length_min < length_max")
        if self.mem_min <= 0 or self.mem_min >= self.mem_max:
            raise ValueError("need 0 < mem_min < mem_max")


def _sample_history(
    te: float,
    scale: float,
    rng: np.random.Generator,
    max_failures: int,
) -> tuple[int, tuple[float, ...]]:
    """Historical failure record: exponential intervals with the task's
    private ``scale``, drawn until the productive work is covered
    (progress preserved across failures)."""
    remaining = te
    intervals: list[float] = []
    for _ in range(max_failures):
        iv = float(rng.exponential(scale))
        if iv >= remaining:
            break
        intervals.append(iv)
        remaining -= iv
    return len(intervals), tuple(intervals)


def synthesize_trace(
    config: TraceConfig | None = None,
    catalog: PriorityFailureModel | None = None,
    seed: int = 0,
) -> Trace:
    """Generate a deterministic Google-like trace.

    Parameters
    ----------
    config:
        Workload shape knobs (defaults: :class:`TraceConfig`).
    catalog:
        Per-priority failure model (defaults: the calibrated
        :func:`~repro.failures.catalog.google_like_catalog`).
    seed:
        Seed of the single RNG stream that drives every draw, so the
        trace is a pure function of ``(config, catalog, seed)``.
    """
    cfg = config if config is not None else TraceConfig()
    cat = catalog if catalog is not None else google_like_catalog()
    rng = np.random.default_rng(seed)

    weights = np.asarray(cfg.priority_weights, dtype=float)
    weights = weights / weights.sum()

    jobs: list[Job] = []
    task_id = 0
    t_submit = 0.0
    for job_id in range(cfg.n_jobs):
        if cfg.arrival_pattern == "bursty":
            # Bursts of simultaneous submissions; gaps keep the rate.
            if job_id % cfg.burst_size == 0:
                t_submit += float(
                    rng.exponential(cfg.burst_size / cfg.arrival_rate)
                )
        else:
            t_submit += float(rng.exponential(1.0 / cfg.arrival_rate))
        is_bot = bool(rng.random() < cfg.bot_fraction)
        job_type = JobType.BAG_OF_TASKS if is_bot else JobType.SEQUENTIAL
        mean_tasks = cfg.bot_tasks_mean if is_bot else cfg.st_tasks_mean
        floor = 2 if is_bot else 1
        # Geometric task count with the requested mean, floored.
        p = min(1.0, 1.0 / max(mean_tasks - floor + 1, 1.0))
        n_tasks = floor + int(rng.geometric(p)) - 1
        priority = int(rng.choice(np.arange(1, 13), p=weights))

        tasks: list[Task] = []
        for idx in range(n_tasks):
            if rng.random() < cfg.long_task_fraction:
                raw = rng.lognormal(cfg.long_log_mean, cfg.long_log_sigma)
            else:
                raw = rng.lognormal(cfg.length_log_mean, cfg.length_log_sigma)
            # min/max on the scalar draw: np.clip's value for these
            # finite draws, without its per-call array round trip.
            te = float(min(max(raw, cfg.length_min), cfg.length_max))
            mem = float(min(
                max(rng.lognormal(cfg.mem_log_mean, cfg.mem_log_sigma),
                    cfg.mem_min),
                cfg.mem_max,
            ))
            scale = cat.sample_task_scale(priority, te, rng)
            n_fail, intervals = _sample_history(
                te, scale, rng, cfg.max_failures_per_task
            )
            delays = rng.lognormal(
                cfg.resubmit_delay_log_mean, cfg.resubmit_delay_log_sigma,
                size=n_fail,
            )
            observed = tuple(
                iv + float(d) for iv, d in zip(intervals, delays)
            )
            tasks.append(
                Task(
                    task_id=task_id,
                    job_id=job_id,
                    index=idx,
                    te=te,
                    mem_mb=mem,
                    priority=priority,
                    n_failures=n_fail,
                    failure_intervals=intervals,
                    interval_scale=scale,
                    observed_intervals=observed,
                )
            )
            task_id += 1
        jobs.append(
            Job(
                job_id=job_id,
                job_type=job_type,
                submit_time=t_submit,
                tasks=tuple(tasks),
            )
        )
    return Trace(tuple(jobs))
