"""Registry hook: the verification matrix as a first-class experiment.

``repro-experiments verify`` (or ``run_experiment("verify")``) runs the
quick scenario subset through all three tiers and reports the
cross-tier check outcomes in the standard
:class:`~repro.experiments.registry.ExperimentReport` container, so the
benchmark harness and export tooling treat verification like any other
reproduced artifact.
"""

from __future__ import annotations

from repro.experiments.registry import ExperimentReport, register
from repro.verify.runner import run_scenario
from repro.verify.scenarios import list_scenarios

__all__ = ["run_verify_experiment"]


@register("verify")
def run_verify_experiment(seed: int = 0, quick: bool = True) -> ExperimentReport:
    """Run the (quick) scenario matrix and summarize check outcomes."""
    specs = list_scenarios(quick_only=quick)
    lines = [
        f"{'scenario':28s} {'mode':5s} {'checks':>6s} {'failed':>6s} "
        f"{'mean Tw (scalar/vector/des)':>30s}"
    ]
    data: dict[str, object] = {"scenarios": {}}
    total_failed = 0
    for spec in specs:
        result = run_scenario(spec.evolve(**{"execution.base_seed": seed}))
        failed = result.n_violations
        total_failed += failed
        walls = tuple(
            round(result.tiers[t].summary["mean_wallclock"], 2)
            for t in ("scalar", "vector", "des")
        )
        lines.append(
            f"{spec.name:28s} {spec.execution.compare:5s} "
            f"{len(result.checks):6d} "
            f"{failed:6d} {str(walls):>30s}"
        )
        data["scenarios"][spec.name] = {  # type: ignore[index]
            "passed": result.passed,
            "n_checks": len(result.checks),
            "n_violations": failed,
            "mean_wallclock": dict(zip(("scalar", "vector", "des"), walls)),
        }
    data["total_violations"] = total_failed
    data["passed"] = total_failed == 0
    return ExperimentReport(
        exp_id="verify",
        title="Cross-tier differential verification matrix",
        text="\n".join(lines),
        data=data,
        notes=[
            "scalar tier is the reference; vector/DES compared under "
            "statistical tolerances (see repro.verify.compare)",
            "golden regression pins live in tests/golden/ "
            "(checked by `repro verify`, not here)",
        ],
    )
