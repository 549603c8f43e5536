"""Experiment harness: one module per table/figure of the paper.

Every experiment is a function returning a
:class:`~repro.experiments.registry.ExperimentReport` with the same
rows/series the paper reports; :mod:`repro.experiments.registry` maps
experiment ids (``fig9``, ``tab6``, ...) to those functions, and
``repro experiments`` (see :mod:`repro.cli`) renders them as text.

``repro experiments --list`` prints the experiment index (README.md,
"Install & run"); the reports' notes quote the paper's values.
"""

from repro.experiments.registry import (
    EXPERIMENTS,
    ExperimentReport,
    get_experiment,
    run_experiment,
)

__all__ = ["EXPERIMENTS", "ExperimentReport", "get_experiment", "run_experiment"]
