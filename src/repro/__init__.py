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

#: public name -> the module that defines it.  Loaded on first access
#: (PEP 562), so ``import repro.spec`` or ``import repro.store`` stays
#: stdlib-only and the execution tiers load only when asked for.
_EXPORTS = {
    "RunSpec": "repro.spec",
    "SpecError": "repro.spec",
    "load_spec": "repro.spec",
    "ResultStore": "repro.store",
    "RunRecord": "repro.store",
    "StoreError": "repro.store",
    "run": "repro.api",
    "RunResult": "repro.api",
    "CampaignSpec": "repro.campaign",
    "load_campaign": "repro.campaign",
    "AdaptiveCheckpointer": "repro.core",
    "CheckpointPolicy": "repro.core",
    "DalyPolicy": "repro.core",
    "FixedCountPolicy": "repro.core",
    "FixedIntervalPolicy": "repro.core",
    "GroupedFailureEstimator": "repro.core",
    "NoCheckpointPolicy": "repro.core",
    "OptimalCountPolicy": "repro.core",
    "TaskProfile": "repro.core",
    "YoungPolicy": "repro.core",
    "expected_wallclock": "repro.core",
    "optimal_interval_count": "repro.core",
    "optimal_interval_count_int": "repro.core",
    "select_storage": "repro.core",
    "simulate_task": "repro.core",
    "young_interval": "repro.core",
    "google_like_catalog": "repro.failures",
    "BLCRModel": "repro.storage",
    "MigrationType": "repro.storage",
    "TraceConfig": "repro.trace",
    "synthesize_trace": "repro.trace",
}

__all__ = sorted([*_EXPORTS, "__version__"])


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module), name)


def __dir__() -> list[str]:
    return sorted([*globals(), *_EXPORTS])
