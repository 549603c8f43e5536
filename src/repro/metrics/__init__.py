"""Evaluation metrics: WPR, CDFs, per-priority summaries, comparisons.

* :mod:`repro.metrics.wpr` — the Workload-Processing Ratio (Eq. 9) at
  task and job granularity.
* :mod:`repro.metrics.cdf` — sample tail fractions and quantiles:
  ``fraction_below``/``fraction_above`` feed the Fig. 9 and Fig. 11
  reports, ``quantile`` the Fig. 4 and Fig. 8 trace summaries.
* :mod:`repro.metrics.summary` — min/avg/max grouping (Fig. 10) and
  pairwise wall-clock comparisons (Figs. 12–14).
"""

from repro.metrics.wpr import job_wpr, task_wpr, wpr_array, wpr_from_arrays, wpr_ratio
from repro.metrics.cdf import ecdf, fraction_above, fraction_below, quantile
from repro.metrics.summary import (
    MinAvgMax,
    compare_wallclock,
    group_min_avg_max,
    WallclockComparison,
)

__all__ = [
    "MinAvgMax",
    "WallclockComparison",
    "compare_wallclock",
    "ecdf",
    "fraction_above",
    "fraction_below",
    "group_min_avg_max",
    "job_wpr",
    "quantile",
    "task_wpr",
    "wpr_array",
    "wpr_from_arrays",
    "wpr_ratio",
]
