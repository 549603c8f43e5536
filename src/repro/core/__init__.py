"""The paper's primary contribution: optimal checkpoint-interval policies.

* :mod:`repro.core.formulas` — Theorem 1 / Eq. 4 closed forms, Young's
  and Daly's baseline formulas, Corollary 1 helpers.
* :mod:`repro.core.policies` — policy objects mapping a task profile to
  a number of equidistant checkpointing intervals.
* :mod:`repro.core.estimators` — MNOF/MTBF estimation from observed
  failure histories (per-priority grouping, length caps, online/EWMA).
* :mod:`repro.core.adaptive` — Algorithm 1 (adaptive checkpointing) and
  the Theorem 2 recomputation rule.
* :mod:`repro.core.placement` — §4.2.2 local-vs-shared storage selector.
* :mod:`repro.core.simulate` — vectorized Monte-Carlo execution of
  checkpointed tasks under renewal failures (the fast evaluation tier).
"""

from repro.core.formulas import (
    daly_interval,
    expected_failures_exponential,
    expected_wallclock,
    interval_to_count,
    optimal_interval_count,
    optimal_interval_count_int,
    optimal_expected_wallclock,
    young_interval,
)
from repro.core.policies import (
    CheckpointPolicy,
    DalyPolicy,
    FixedCountPolicy,
    FixedIntervalPolicy,
    NoCheckpointPolicy,
    OptimalCountPolicy,
    TaskProfile,
    YoungPolicy,
)
from repro.core.estimators import (
    GroupStats,
    GroupedFailureEstimator,
    mnof_from_counts,
    mtbf_from_intervals,
)
from repro.core.adaptive import AdaptiveCheckpointer, CheckpointPlan, theorem2_next_count
from repro.core.placement import StorageDecision, expected_total_cost, select_storage
from repro.core.simulate import (
    SimulationResult,
    TaskOutcome,
    simulate_task,
    simulate_task_async_checkpoints,
    simulate_task_two_phase,
    simulate_tasks_blocked,
    simulate_tasks_replay,
)

__all__ = [
    "AdaptiveCheckpointer",
    "CheckpointPlan",
    "CheckpointPolicy",
    "DalyPolicy",
    "FixedCountPolicy",
    "FixedIntervalPolicy",
    "GroupStats",
    "GroupedFailureEstimator",
    "NoCheckpointPolicy",
    "OptimalCountPolicy",
    "SimulationResult",
    "StorageDecision",
    "TaskOutcome",
    "TaskProfile",
    "YoungPolicy",
    "daly_interval",
    "expected_failures_exponential",
    "expected_total_cost",
    "expected_wallclock",
    "interval_to_count",
    "mnof_from_counts",
    "mtbf_from_intervals",
    "optimal_expected_wallclock",
    "optimal_interval_count",
    "optimal_interval_count_int",
    "select_storage",
    "simulate_task",
    "simulate_task_async_checkpoints",
    "simulate_task_two_phase",
    "simulate_tasks_blocked",
    "simulate_tasks_replay",
    "theorem2_next_count",
    "young_interval",
]
