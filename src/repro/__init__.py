"""repro — reproduction of Di et al., "Optimization of Cloud Task
Processing with Checkpoint-Restart Mechanism" (SC'13).

The package implements the paper's distribution-free optimal
checkpointing formula (Theorem 1), the adaptive runtime (Algorithm 1 /
Theorem 2), the local-vs-shared storage selector (§4.2.2), and every
substrate its evaluation needs: a BLCR-calibrated cost model, a
Google-like trace synthesizer, a per-priority failure catalog, a
vectorized Monte-Carlo execution tier, and a discrete-event cluster
simulator.

Quickstart::

    from repro import optimal_interval_count

    # Te = 18 s, E(Y) = 2 failures expected, C = 2 s  ->  x* = 3
    x = optimal_interval_count(te=18.0, mnof=2.0, c=2.0)

See README.md ("Architecture", "Install & run") for the package
layout and the commands that reproduce each table and figure; the
reports' notes quote the paper's values.
"""

from repro._version import __version__
from repro.spec import RunSpec, SpecError, load_spec
from repro.store import ResultStore, RunRecord, StoreError
from repro.core import (
    AdaptiveCheckpointer,
    CheckpointPolicy,
    DalyPolicy,
    FixedCountPolicy,
    FixedIntervalPolicy,
    GroupedFailureEstimator,
    NoCheckpointPolicy,
    OptimalCountPolicy,
    TaskProfile,
    YoungPolicy,
    expected_wallclock,
    optimal_interval_count,
    optimal_interval_count_int,
    select_storage,
    simulate_task,
    young_interval,
)
from repro.failures import google_like_catalog
from repro.storage import BLCRModel, MigrationType
from repro.trace import TraceConfig, synthesize_trace

__all__ = [
    "AdaptiveCheckpointer",
    "BLCRModel",
    "CheckpointPolicy",
    "DalyPolicy",
    "FixedCountPolicy",
    "FixedIntervalPolicy",
    "GroupedFailureEstimator",
    "MigrationType",
    "CampaignSpec",
    "NoCheckpointPolicy",
    "OptimalCountPolicy",
    "ResultStore",
    "RunRecord",
    "RunSpec",
    "SpecError",
    "StoreError",
    "TaskProfile",
    "TraceConfig",
    "YoungPolicy",
    "__version__",
    "expected_wallclock",
    "google_like_catalog",
    "load_campaign",
    "load_spec",
    "optimal_interval_count",
    "optimal_interval_count_int",
    "run",
    "select_storage",
    "simulate_task",
    "synthesize_trace",
    "young_interval",
]


def __getattr__(name: str):
    # ``repro.run`` / ``repro.RunResult`` load the facade lazily so the
    # spec vocabulary stays importable without the execution tiers;
    # the campaign layer loads lazily for the same reason.
    if name in ("run", "RunResult"):
        from repro import api

        return getattr(api, name)
    if name in ("CampaignSpec", "load_campaign"):
        from repro import campaign

        return getattr(campaign, name)
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
