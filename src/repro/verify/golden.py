"""Golden regression files: pinned cross-tier results under version control.

One JSON file per scenario lives in ``tests/golden/``.  The scalar
reference tier is pinned **bit-level** (a SHA-256 digest of its
per-task outcome arrays): any refactor of the hot paths that changes a
single ULP of a single task trips it.  The vectorized and DES tiers are
pinned under **tolerances** — their draw order is an implementation
detail the roadmap's perf work is explicitly allowed to change, but
their distributions are not.

Since golden schema version 2 each tier section is the
:meth:`~repro.store.RunRecord.pinned_dict` of a
:class:`~repro.store.RunRecord` — the same versioned payload the
result store, the sweep reports, and the campaign reports use — so a
golden file also snapshots the exact spec (the registered scenario at
that tier) that produced the pin (vector/DES records carry
``digest: null``: their draw order is not part of the pin).
A file of an older version fails the ``golden:version`` check.

``repro verify --update-golden`` regenerates the files; the payload
records enough summary statistics to make diffs reviewable.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro._version import __version__
from repro.store import MODEL_VERSION, RunRecord, canonical_spec_dict
from repro.verify.compare import Check
from repro.verify.runner import ScenarioResult

__all__ = [
    "GOLDEN_VERSION",
    "compare_with_golden",
    "default_golden_dir",
    "golden_path",
    "golden_payload",
    "load_golden",
    "tier_records",
    "write_golden",
]

GOLDEN_VERSION = 2

#: vectorized/DES tier drift allowed against the pinned summary —
#: generous enough for a draw-order change, tight enough that a model
#: change (systematically longer wallclocks, more failures) trips it.
TOL_WALL_REL = 0.10
TOL_FAIL_REL = 0.20
TOL_FAIL_ABS = 0.3
TOL_WPR_ABS = 0.05
TOL_COMPLETION_ABS = 0.02
TOL_EVENTS_REL = 0.10
TOL_MAKESPAN_REL = 0.10


def default_golden_dir() -> Path:
    """``tests/golden`` of the source checkout this package runs from.

    Resolved relative to the package directory (``src/repro/verify`` →
    repo root), which holds for the editable/`PYTHONPATH=src` layouts
    the test suite and CI use.
    """
    return Path(__file__).resolve().parents[3] / "tests" / "golden"


def golden_path(name: str, golden_dir: Path | None = None) -> Path:
    """Golden file path for scenario ``name``."""
    base = golden_dir if golden_dir is not None else default_golden_dir()
    return Path(base) / f"{name}.json"


def tier_records(result: ScenarioResult) -> dict[str, RunRecord]:
    """One :class:`~repro.store.RunRecord` per executed tier.

    Each record snapshots the scenario spec moved to that tier
    (canonicalized exactly like every
    other store record, so a verify-written store slot is
    byte-compatible with what ``repro run --store`` would have
    written) and carries the tier's real result digest — what a golden
    file *pins* is decided by :func:`golden_payload`, not here.
    """
    import time

    records: dict[str, RunRecord] = {}
    for tier, tr in result.tiers.items():
        spec = result.spec.evolve(**{"execution.tier": tier})
        records[tier] = RunRecord(
            spec_digest=spec.spec_digest(),
            name=spec.name,
            tier=tier,
            seed=result.seed,
            digest=tr.digest,
            summary={k: float(v) for k, v in tr.summary.items()},
            extra={k: float(v) for k, v in tr.extra.items()},
            elapsed_s=round(result.elapsed_s, 3),
            spec=canonical_spec_dict(spec),
            provenance={"code_version": __version__,
                        "model_version": MODEL_VERSION, "workers": 1,
                        "workers_effective": 1},
            created_at=round(time.time(), 3),
        )
    return records


def golden_payload(result: ScenarioResult) -> dict:
    """JSON payload pinned for one scenario (tier sections are pinned
    :class:`~repro.store.RunRecord` dicts).

    The vector/DES record digests are nulled in the *golden* payload —
    their draw order is an implementation detail pinned under
    tolerances, not bytes — while the store path
    (``repro verify --store``) keeps them.
    """
    records = tier_records(result)
    payload = {
        "version": GOLDEN_VERSION,
        "scenario": result.spec.name,
        "compare": result.spec.execution.compare,
        "seed": result.seed,
        "scalar": records["scalar"].pinned_dict(),
        "vector": records["vector"].pinned_dict(),
        "des": records["des"].pinned_dict(),
    }
    payload["vector"]["digest"] = None
    payload["des"]["digest"] = None
    return payload


def write_golden(result: ScenarioResult, golden_dir: Path | None = None) -> Path:
    """Write (or overwrite) the scenario's golden file."""
    path = golden_path(result.spec.name, golden_dir)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(golden_payload(result), indent=2, sort_keys=True) + "\n"
    )
    return path


def load_golden(name: str, golden_dir: Path | None = None) -> dict | None:
    """Load a scenario's golden payload (``None`` when absent).

    The payload is returned as written: a file whose ``version`` is not
    :data:`GOLDEN_VERSION` fails :func:`compare_with_golden`'s
    ``golden:version`` check and must be regenerated.
    """
    path = golden_path(name, golden_dir)
    if not path.exists():
        return None
    return json.loads(path.read_text())


def _tol_check(
    name: str, current: float, pinned: float, rel: float, abs_: float
) -> Check:
    gap = abs(current - pinned)
    bound = rel * max(abs(pinned), abs(current)) + abs_
    return Check(
        name=name,
        passed=gap <= bound,
        observed=gap,
        bound=bound,
        detail=f"current {current:.6g} vs golden {pinned:.6g}",
    )


def compare_with_golden(
    result: ScenarioResult, golden: dict | None
) -> list[Check]:
    """Checks of the current run against the pinned golden payload."""
    name = result.spec.name
    if golden is None:
        return [
            Check(
                name="golden:present",
                passed=False,
                observed=1.0,
                bound=0.0,
                detail=f"no golden file for {name!r}; run "
                       "`repro verify --update-golden`",
            )
        ]
    checks: list[Check] = []
    if golden.get("version") != GOLDEN_VERSION:
        checks.append(Check(
            name="golden:version",
            passed=False,
            observed=float(golden.get("version", -1)),
            bound=float(GOLDEN_VERSION),
            detail="golden schema version mismatch; regenerate",
        ))
        return checks
    if golden.get("seed") != result.seed:
        checks.append(Check(
            name="golden:seed",
            passed=False,
            observed=float(result.seed),
            bound=float(golden.get("seed", -1)),
            detail="run seed differs from the pinned seed; rerun with the "
                   "golden base seed or regenerate",
        ))
        return checks

    scalar = result.tiers["scalar"]
    checks.append(Check(
        name="golden:scalar-digest",
        passed=scalar.digest == golden["scalar"]["digest"],
        observed=0.0 if scalar.digest == golden["scalar"]["digest"] else 1.0,
        bound=0.0,
        detail="bit-level scalar-tier determinism pin",
    ))
    for tier, tols in (
        ("vector", (TOL_WALL_REL, TOL_FAIL_REL)),
        ("des", (TOL_WALL_REL, TOL_FAIL_REL)),
    ):
        cur = result.tiers[tier].summary
        pin = golden[tier]["summary"]
        wall_rel, fail_rel = tols
        checks.append(_tol_check(
            f"golden:{tier}-mean-wallclock",
            cur["mean_wallclock"], pin["mean_wallclock"], wall_rel, 1e-9,
        ))
        checks.append(_tol_check(
            f"golden:{tier}-mean-failures",
            cur["mean_failures"], pin["mean_failures"], fail_rel, TOL_FAIL_ABS,
        ))
        checks.append(_tol_check(
            f"golden:{tier}-mean-wpr",
            cur["mean_wpr"], pin["mean_wpr"], 0.0, TOL_WPR_ABS,
        ))
        checks.append(_tol_check(
            f"golden:{tier}-completion-rate",
            cur["completion_rate"], pin["completion_rate"],
            0.0, TOL_COMPLETION_ABS,
        ))
    # The DES-only shape quantities: event count and makespan drift
    # under the same regression tolerance (rerun *equality* of both is
    # covered separately by the determinism tests).
    des_extra = result.tiers["des"].extra
    pin_extra = golden["des"].get("extra", {})
    for key, rel in (("n_events", TOL_EVENTS_REL),
                     ("makespan", TOL_MAKESPAN_REL)):
        if key in pin_extra:
            checks.append(_tol_check(
                f"golden:des-{key}",
                float(des_extra[key]), float(pin_extra[key]), rel, 1e-9,
            ))
    return checks
