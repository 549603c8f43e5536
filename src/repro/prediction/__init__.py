"""Workload prediction — the job parser's estimation stage (§2).

The paper's processing pipeline starts with a job parser that predicts
each task's workload from its input parameters, citing sparse
polynomial regression (Huang et al., NIPS'10) and history-based
estimation (Di & Wang, TPDS'13).  Formula (3) consumes that predicted
``Te``, so prediction quality feeds directly into checkpoint placement.
``examples/workload_prediction.py`` fits both predictors on synthetic
service history and sweeps a task-length misprediction through Eq. (4).
No experiment or benchmark uses them: the ablation benches measure
MNOF misprediction, not task-length misprediction.

* :class:`~repro.prediction.polynomial.PolynomialRegressionPredictor` —
  ridge-regularized polynomial regression on task input features with
  greedy sparse term selection.
* :class:`~repro.prediction.history.HistoryPredictor` — per-key running
  statistics of previously observed lengths (mean / EWMA / quantile).
* :func:`~repro.prediction.metrics.prediction_report` — error metrics
  (MAPE, bias, quantile coverage).
"""

from repro.prediction.history import HistoryPredictor
from repro.prediction.metrics import PredictionReport, prediction_report
from repro.prediction.polynomial import PolynomialRegressionPredictor

__all__ = [
    "HistoryPredictor",
    "PolynomialRegressionPredictor",
    "PredictionReport",
    "prediction_report",
]
