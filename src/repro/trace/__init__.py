"""Google-like workload trace substrate.

The paper replays a one-month Google production trace (jobs made of
sequential tasks or bags-of-tasks, with per-task memory footprints,
lengths, priorities 1–12, and kill/evict failure events).  That trace
is proprietary, so :mod:`repro.trace.synthesizer` generates a
statistically matched stand-in (its module docstring lists the
calibration targets); the remaining modules provide the models and
statistics the evaluation needs:

* :mod:`repro.trace.models` — :class:`Job`, :class:`Task`,
  :class:`JobType` dataclasses.
* :mod:`repro.trace.synthesizer` — :class:`TraceConfig` +
  :func:`synthesize_trace`.
* :mod:`repro.trace.stats` — Fig. 4/8 CDFs, Table 7 MNOF/MTBF tables,
  estimator construction.
* :mod:`repro.trace.sampler` — §5.1 sample-job selection rules.
"""

from repro.trace.models import Job, JobType, Task, Trace
from repro.trace.synthesizer import TraceConfig, synthesize_trace
from repro.trace.stats import (
    build_estimator,
    interval_cdf_by_priority,
    job_length_cdf,
    job_memory_cdf,
    mnof_mtbf_table,
)
from repro.trace.sampler import failed_job_sample, filter_by_length

__all__ = [
    "Job",
    "JobType",
    "Task",
    "Trace",
    "TraceConfig",
    "build_estimator",
    "failed_job_sample",
    "filter_by_length",
    "interval_cdf_by_priority",
    "job_length_cdf",
    "job_memory_cdf",
    "mnof_mtbf_table",
    "synthesize_trace",
]
