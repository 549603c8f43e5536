"""Cross-tier differential verification (`repro verify`).

The package's credibility claim is that its three execution tiers —
the scalar reference (:func:`repro.core.simulate.simulate_task`), the
vectorized batch (:func:`repro.core.simulate.simulate_tasks_blocked`)
and the DES cluster simulator (:class:`repro.cluster.platform.CloudPlatform`)
— implement one execution model.  This subsystem makes that claim
continuously testable:

* :mod:`repro.verify.scenarios` — a registry of 25+ named, seeded
  :class:`~repro.spec.RunSpec` scenarios spanning the paper's axes
  (per-priority failure rates; exponential/Weibull/Pareto/lognormal/
  mixture interval laws; local vs. shared vs. auto-selected BLCR
  storage; restart/detection delays; Young/Daly/Formula-(3)/fixed
  policies; heterogeneous hosts; bursty vs. steady arrivals; host
  crashes);
* :mod:`repro.verify.runner` — the differential runner executing each
  scenario through all three tiers with a common seeded RNG scheme and
  cross-checking wallclock/WPR/failure-count distributions;
* :mod:`repro.verify.compare` — the tolerance machinery (bit-level,
  Welch/KS statistical, bounded-ratio);
* :mod:`repro.verify.golden` — golden regression files in
  ``tests/golden/`` pinning the scalar tier bit-level and the other
  tiers under tolerances, regenerated via ``repro verify
  --update-golden``.
"""

from repro.verify.compare import Check
from repro.verify.runner import ScenarioResult, TierResult, run_scenario
from repro.verify.scenarios import (
    SCENARIOS,
    Workload,
    build_workload,
    get_scenario,
    list_scenarios,
    register_scenario,
)

__all__ = [
    "Check",
    "SCENARIOS",
    "ScenarioResult",
    "TierResult",
    "Workload",
    "build_workload",
    "get_scenario",
    "list_scenarios",
    "register_scenario",
    "run_scenario",
]
