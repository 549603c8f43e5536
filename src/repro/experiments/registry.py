"""Experiment registry: id → callable, plus the report container.

Experiment modules register their entry points with
:func:`register`; the CLI and benchmark harness look them up by the
paper's artifact ids (``fig4`` ... ``fig14``, ``tab2`` ... ``tab7``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

__all__ = [
    "EXPERIMENTS",
    "ExperimentReport",
    "get_experiment",
    "register",
    "run_experiment",
]


@dataclass
class ExperimentReport:
    """Uniform output of every experiment.

    ``data`` holds machine-checkable values (benchmarks assert on
    them); ``text`` is the human-readable reproduction of the paper's
    table/figure.
    """

    exp_id: str
    title: str
    text: str
    data: dict[str, Any] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def render(self) -> str:
        """Full textual report."""
        parts = [f"== {self.exp_id}: {self.title} ==", self.text]
        if self.notes:
            parts.append("notes:")
            parts.extend(f"  - {n}" for n in self.notes)
        return "\n".join(parts)


EXPERIMENTS: dict[str, Callable[..., ExperimentReport]] = {}


def register(exp_id: str):
    """Decorator adding an experiment function under ``exp_id``."""

    def deco(fn: Callable[..., ExperimentReport]):
        if exp_id in EXPERIMENTS:
            raise ValueError(f"experiment {exp_id!r} registered twice")
        EXPERIMENTS[exp_id] = fn
        return fn

    return deco


def _load_all() -> None:
    """Import every experiment module so registrations run."""
    from repro.experiments import (  # noqa: F401
        calibration,
        dynamic,
        policy_eval,
        traces,
        validation,
    )


def get_experiment(exp_id: str) -> Callable[..., ExperimentReport]:
    """Look up an experiment by id (loading modules lazily)."""
    if not EXPERIMENTS:
        _load_all()
    try:
        return EXPERIMENTS[exp_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {exp_id!r}; known: {sorted(EXPERIMENTS)}"
        ) from None


def run_experiment(exp_id: str, **kwargs: Any) -> ExperimentReport:
    """Run one experiment and return its report."""
    return get_experiment(exp_id)(**kwargs)
