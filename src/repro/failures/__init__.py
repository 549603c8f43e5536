"""Failure models: interval distributions, fitting, renewal processes.

Cloud task failures are modeled as a renewal process on the task's
*uninterrupted execution time*: after each (re)start, the next failure
strikes after an interval drawn from a priority-dependent distribution.
The paper characterizes Google-trace intervals as Pareto overall, with
an exponential body below 1000 s (Fig. 5), and strongly
priority-dependent interval lengths (Fig. 4).

Public surface:

* :mod:`repro.failures.distributions` — interval distributions with a
  uniform ``sample / pdf / cdf / mean / fit`` API.
* :mod:`repro.failures.fitting` — maximum-likelihood fitting across a
  catalog of candidate families plus Kolmogorov–Smirnov ranking
  (reproduces Fig. 5).
* :mod:`repro.failures.injector` — failure schedules for the DES tier.
* :mod:`repro.failures.streams` — every task's ``default_rng((seed,
  task_id))`` stream state, seeded in one NumPy batch, and the DES
  injector that draws from it.
* :mod:`repro.failures.catalog` — per-priority failure models
  calibrated to the paper's Table 7 / Fig. 4 shapes.
"""

from repro.failures.distributions import (
    Distribution,
    Empirical,
    Exponential,
    Geometric,
    Laplace,
    LogNormal,
    Mixture,
    Normal,
    Pareto,
    Weibull,
    distribution_from_name,
)
from repro.failures.fitting import (
    FitResult,
    ad_statistic,
    best_fit,
    fit_all,
    ks_statistic,
)
from repro.failures.injector import FailureInjector, TraceReplayInjector
from repro.failures.streams import task_stream_states
from repro.failures.catalog import PriorityFailureModel, google_like_catalog

__all__ = [
    "Distribution",
    "Empirical",
    "Exponential",
    "FailureInjector",
    "FitResult",
    "Geometric",
    "Laplace",
    "LogNormal",
    "Mixture",
    "Normal",
    "Pareto",
    "PriorityFailureModel",
    "TraceReplayInjector",
    "Weibull",
    "ad_statistic",
    "best_fit",
    "distribution_from_name",
    "fit_all",
    "google_like_catalog",
    "ks_statistic",
    "task_stream_states",
]
