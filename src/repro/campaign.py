"""``repro.campaign`` — declarative, resumable experiment campaigns.

A campaign is the production form of the paper's headline grids: many
base :class:`~repro.spec.RunSpec`\\ s crossed with dotted-path axes,
executed through one content-addressed
:class:`~repro.store.ResultStore`, and summarized in one canonical
shared report.  :func:`load_campaign` reads a JSON or TOML campaign
file the way :func:`~repro.spec.load_spec` reads a spec file, so a
campaign file is the complete, reviewable description of a
million-cell study.

The execution contract mirrors the spec/result split the rest of the
API uses:

* **Expansion is deterministic.**  ``expand()`` applies the
  campaign-wide ``overrides`` to every base spec and then crosses the
  ``axes`` via :func:`repro.parallel.sweep.expand_grid` — base specs
  in file order, first axis outermost.  The resulting *grid order*
  fixes the report's cell order forever.
* **Execution is resumable for free.**  Every cell's identity is its
  ``spec_digest()``.  Cells whose digest already has a readable record
  in the store are skipped; missing cells dispatch longest-first
  through :func:`repro.parallel.sweep.run_specs`, and each worker
  persists its :class:`~repro.store.RunRecord` the moment the cell
  finishes — kill the campaign at any point and a re-run recomputes
  only what is missing.
* **The report is canonical.**  ``build_report`` serializes the
  per-cell :meth:`~repro.store.RunRecord.pinned_dict` payloads (no
  timings, no provenance) with sorted keys, so an interrupted-and-
  resumed campaign produces a report byte-identical to a from-scratch
  run.  Timing/caching statistics go to the separate ``stats``
  payload, never into the report.

The module doubles as the ``repro campaign`` CLI::

    repro campaign run examples/specs/campaign-policy-grid.toml
    repro campaign status campaign.toml       # cached/missing cells
    repro campaign report campaign.toml       # rebuild from the store
    repro campaign prune campaign.toml        # drop foreign records
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.spec import RunSpec, SpecError, _field_names, _load
from repro.store import ResultStore, RunRecord, StoreError

__all__ = [
    "CAMPAIGN_VERSION",
    "CampaignSpec",
    "build_report",
    "campaign_status",
    "load_campaign",
    "main",
    "report_json",
    "run_campaign",
]

#: Serialized-form schema version of campaign files.
CAMPAIGN_VERSION = 1


def _freeze(value):
    """Deep-freeze plain JSON values (lists -> tuples) for hashability."""
    if isinstance(value, list):
        return tuple(_freeze(v) for v in value)
    return value


def _thaw(value):
    """Inverse of :func:`_freeze` (tuples -> lists)."""
    if isinstance(value, tuple):
        return [_thaw(v) for v in value]
    return value


@dataclass(frozen=True)
class CampaignSpec:
    """The complete declarative description of one campaign.

    ``specs`` are the base runs; ``overrides`` are campaign-wide
    dotted-path settings applied to every base spec before expansion
    (the place for a tier override like ``execution.tier``); ``axes``
    are the dotted-path grid dimensions, crossed in order.  ``store``
    and ``report_path`` are resolved relative to the campaign file's
    directory when loaded from disk, so a campaign directory is
    self-contained and relocatable.
    """

    name: str
    description: str = ""
    specs: tuple[RunSpec, ...] = ()
    axes: tuple[tuple[str, tuple], ...] = ()
    overrides: tuple[tuple[str, Any], ...] = ()
    store: str = "campaign-store"
    report_path: str = "campaign-report.json"
    workers: int = 1

    def __post_init__(self) -> None:
        if not self.name:
            raise SpecError("campaign name must not be empty")
        if not self.specs:
            raise SpecError(
                f"{self.name}: a campaign needs at least one base spec"
            )
        for spec in self.specs:
            if not isinstance(spec, RunSpec):
                raise SpecError(
                    f"{self.name}: base specs must be RunSpec values, "
                    f"got {type(spec).__name__}"
                )
        seen: set[str] = set()
        for key, values in self.axes:
            if not key or not isinstance(key, str):
                raise SpecError(f"{self.name}: bad axis key {key!r}")
            if key in seen:
                raise SpecError(f"{self.name}: duplicate axis {key!r}")
            seen.add(key)
            if not isinstance(values, (list, tuple)):
                raise SpecError(
                    f"{self.name}: axis {key!r} must be a list of values, "
                    f"got {values!r}"
                )
            if not values:
                raise SpecError(f"{self.name}: axis {key!r} has no values")
        for key, _ in self.overrides:
            if not key or not isinstance(key, str):
                raise SpecError(f"{self.name}: bad override key {key!r}")
        if (not isinstance(self.workers, int)
                or isinstance(self.workers, bool) or self.workers < 1):
            raise SpecError(
                f"{self.name}: workers must be an integer >= 1, "
                f"got {self.workers!r}"
            )
        if not self.store or not self.report_path:
            raise SpecError(
                f"{self.name}: store and report_path must not be empty"
            )

    # -- serialization -------------------------------------------------
    def to_dict(self) -> dict:
        """Plain-JSON representation (includes ``campaign_version``)."""
        return {
            "campaign_version": CAMPAIGN_VERSION,
            "name": self.name,
            "description": self.description,
            "specs": [spec.to_dict() for spec in self.specs],
            "axes": {key: _thaw(list(values)) for key, values in self.axes},
            "overrides": {key: _thaw(value)
                          for key, value in self.overrides},
            "store": self.store,
            "report_path": self.report_path,
            "workers": self.workers,
        }

    @classmethod
    def from_dict(cls, data: dict) -> CampaignSpec:
        """Exact inverse of :meth:`to_dict` (missing keys -> defaults)."""
        if not isinstance(data, dict):
            raise SpecError(
                f"campaign must be a table/object, got {data!r}"
            )
        data = dict(data)
        version = data.pop("campaign_version", CAMPAIGN_VERSION)
        if version != CAMPAIGN_VERSION:
            raise SpecError(
                f"unsupported campaign_version {version!r} "
                f"(this build reads version {CAMPAIGN_VERSION})"
            )
        known = _field_names(cls)
        unknown = sorted(set(data).difference(known))
        if unknown:
            raise SpecError(
                f"unknown CampaignSpec field(s): {', '.join(unknown)}; "
                f"valid: {', '.join(sorted(known))}"
            )
        kwargs: dict[str, Any] = {
            k: data[k] for k in ("name", "description", "store",
                                 "report_path", "workers") if k in data
        }
        if "specs" in data:
            if not isinstance(data["specs"], list):
                raise SpecError("campaign specs must be an array of tables")
            kwargs["specs"] = tuple(
                RunSpec.from_dict(d) for d in data["specs"]
            )
        for key in ("axes", "overrides"):
            if key in data:
                if not isinstance(data[key], dict):
                    raise SpecError(
                        f"campaign {key} must be a table of "
                        f"dotted-path keys, got {data[key]!r}"
                    )
                kwargs[key] = tuple(
                    (k, _freeze(v)) for k, v in data[key].items()
                )
        return cls(**kwargs)

    # -- expansion -----------------------------------------------------
    def expand(self) -> list[RunSpec]:
        """The campaign's cells, in grid order.

        Base specs in file order; per base spec, the campaign-wide
        overrides apply first (one ``evolve``), then the axes cross
        with the first axis outermost — the same nesting
        :func:`repro.parallel.sweep.expand_grid` documents.
        """
        from repro.parallel.sweep import expand_grid

        overrides = {key: _thaw(value) for key, value in self.overrides}
        axes = [(key, _thaw(list(values))) for key, values in self.axes]
        cells: list[RunSpec] = []
        for base in self.specs:
            if overrides:
                base = base.evolve(**overrides)
            cells.extend(expand_grid(base, axes))
        return cells

    def cell_digests(self) -> list[str]:
        """Per-cell spec digests, in grid order."""
        return [spec.spec_digest() for spec in self.expand()]

    def campaign_digest(self) -> str:
        """SHA-256 over the campaign name and its cell digests.

        Two campaigns with equal digests expand to the same cells in
        the same order — their reports are interchangeable.
        """
        payload = json.dumps(
            {"name": self.name, "cells": self.cell_digests()},
            sort_keys=True, separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode()).hexdigest()


def load_campaign(path: str | Path) -> CampaignSpec:
    """Load a :class:`CampaignSpec` from a ``.json`` or ``.toml`` file."""
    return _load(path, "campaign", CampaignSpec.from_dict)


# ----------------------------------------------------------------------
# Execution.
# ----------------------------------------------------------------------
def _open_store(campaign: CampaignSpec, store, base_dir: Path | None):
    """Resolve the effective store: explicit arg > campaign field.

    Relative campaign-file paths resolve against ``base_dir`` (the
    campaign file's directory) so campaign directories relocate as a
    unit.
    """
    if store is not None:
        if isinstance(store, ResultStore):
            return store
        return ResultStore(store)
    root = Path(campaign.store)
    if not root.is_absolute() and base_dir is not None:
        root = Path(base_dir) / root
    return ResultStore(root)


def _partition(
    campaign: CampaignSpec, store: ResultStore
) -> tuple[list[RunSpec], list[str], list[RunRecord | None]]:
    """Expand and read each cell's record once: (cells, digests,
    records), with ``None`` for a *missing* cell.

    A cell is missing unless the store serves its record — a
    truncated, foreign or mis-keyed file counts as a miss, so
    corruption heals by recomputation rather than failing the campaign.
    """
    cells = campaign.expand()
    digests = [spec.spec_digest() for spec in cells]
    found: dict[str, RunRecord | None] = {}
    for digest in digests:
        if digest not in found:
            found[digest] = store.get(digest, on_corrupt="miss")
    return cells, digests, [found[digest] for digest in digests]


def build_report(campaign: CampaignSpec, records: list[RunRecord]) -> dict:
    """The canonical shared report: deterministic fields only.

    Cells are :meth:`~repro.store.RunRecord.pinned_dict` payloads in
    grid order — no timings, no provenance — so the report is
    byte-identical (via :func:`report_json`) whether each cell was
    computed now, resumed from the store, or recomputed after a
    partial prune.
    """
    return {
        "command": "repro campaign",
        "campaign": campaign.name,
        "description": campaign.description,
        "campaign_digest": campaign.campaign_digest(),
        "n_cells": len(records),
        "cells": [record.pinned_dict() for record in records],
    }


def report_json(report: dict) -> str:
    """Canonical report serialization (sorted keys, trailing newline)."""
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def run_campaign(
    campaign: CampaignSpec,
    *,
    store: "ResultStore | str | Path | None" = None,
    workers: int | None = None,
    base_dir: Path | None = None,
) -> tuple[dict, dict]:
    """Execute the campaign; returns ``(report, stats)``.

    Cached cells are served from the records read to find them;
    missing cells run through :func:`repro.parallel.sweep.run_specs`
    (longest-first dispatch, grid-order merge, records persisted by
    the workers as each cell completes) and are read back from the
    store afterwards, so every report cell is a record payload
    regardless of how it got there.

    ``stats`` carries the non-deterministic bookkeeping (cache hits,
    recomputations, wall-clock) that must stay out of the report.
    """
    from repro.parallel.sweep import run_specs

    t0 = time.perf_counter()
    store = _open_store(campaign, store, base_dir)
    cells, digests, records = _partition(campaign, store)
    missing = [i for i, record in enumerate(records) if record is None]
    workers = workers if workers is not None else campaign.workers
    if missing:
        # Dedup within the missing set: two cells can digest-alias
        # (e.g. a workers axis); computing one record serves both.
        todo: dict[str, RunSpec] = {}
        for i in missing:
            todo.setdefault(digests[i], cells[i])
        run_specs(list(todo.values()), workers=workers, store=store)
    for i in missing:
        records[i] = store.get(digests[i])  # on_corrupt="raise": must exist
        if records[i] is None:
            raise StoreError(
                f"campaign cell {cells[i].name!r} ({digests[i][:12]}…) has "
                "no record after execution — store path misconfigured?"
            )
    report = build_report(campaign, records)
    stats = {
        "campaign": campaign.name,
        "store": str(store.root),
        "workers": workers,
        "n_cells": len(cells),
        "n_cached": len(cells) - len(missing),
        "n_computed": len(missing),
        "elapsed_s": round(time.perf_counter() - t0, 3),
    }
    return report, stats


def campaign_status(
    campaign: CampaignSpec,
    *,
    store: "ResultStore | str | Path | None" = None,
    base_dir: Path | None = None,
) -> dict:
    """Cached/missing split plus store statistics, without executing.

    Each record parses at most once: cell records are read for the
    cached/missing split and reused for the store histogram; only
    foreign records (not cells of this campaign) are parsed in the
    store walk.  This keeps ``repro campaign status`` a single pass
    over million-cell stores.
    """
    store = _open_store(campaign, store, base_dir)
    cells = campaign.expand()
    digests = [spec.spec_digest() for spec in cells]
    parsed = {digest: store._classify(digest)
              for digest in dict.fromkeys(digests)}
    missing = [i for i, d in enumerate(digests) if parsed[d][0] != "ok"]
    stats = store.stats(known=parsed)
    return {
        "campaign": campaign.name,
        "campaign_digest": campaign.campaign_digest(),
        "n_cells": len(cells),
        "n_cached": len(cells) - len(missing),
        "n_missing": len(missing),
        "missing": [
            {"index": i, "name": cells[i].name, "spec_digest": digests[i]}
            for i in missing
        ],
        "foreign_records": stats["n_records"] - sum(
            status != "missing" for status, _ in parsed.values()),
        "complete": not missing,
        "store": stats,
    }


# ----------------------------------------------------------------------
# The ``repro campaign`` CLI.
# ----------------------------------------------------------------------
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro campaign",
        description=(
            "Run, inspect, and maintain declarative experiment "
            "campaigns: a campaign file crosses base RunSpecs with "
            "dotted-path axes, executes through a content-addressed "
            "result store (interrupt and re-run at will — only missing "
            "cells recompute), and emits one canonical report."
        ),
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    def common(p):
        p.add_argument("campaign", metavar="FILE",
                       help="campaign file (.json or .toml)")
        p.add_argument("--store", metavar="DIR", default=None,
                       help="result store (default: the campaign file's "
                            "store field, relative to the file)")

    p_run = sub.add_parser(
        "run", help="execute the campaign (skip-if-cached, resumable)")
    common(p_run)
    p_run.add_argument("--workers", type=int, default=None,
                       help="grid-level pool size (default: the campaign "
                            "file's workers field)")
    p_run.add_argument("--out", metavar="PATH", default=None,
                       help="report path (default: the campaign file's "
                            "report_path field, relative to the file)")
    p_run.add_argument("--stats-out", metavar="PATH", default=None,
                       help="write run statistics (cache hits, timings) "
                            "as JSON — kept separate from the report, "
                            "which is byte-stable by design")
    p_run.add_argument("--quiet", action="store_true",
                       help="suppress the per-cell table")

    p_status = sub.add_parser(
        "status", help="cached/missing cells and store statistics")
    common(p_status)

    p_report = sub.add_parser(
        "report", help="rebuild the report from the store (no execution)")
    common(p_report)
    p_report.add_argument("--out", metavar="PATH", default=None,
                          help="report path (default: stdout)")
    p_report.add_argument("--text", action="store_true",
                          help="render a human-readable table instead "
                               "of JSON")

    p_prune = sub.add_parser(
        "prune", help="drop store records that are not campaign cells")
    common(p_prune)
    p_prune.add_argument("--dry-run", action="store_true",
                         help="report what would be removed, remove "
                              "nothing")
    return parser


def _print_cells(report: dict) -> None:
    from repro.experiments.reporting import records_table

    print(records_table(report["cells"]))


def _cmd_run(args, campaign: CampaignSpec, base_dir: Path) -> int:
    report, stats = run_campaign(
        campaign, store=args.store, workers=args.workers, base_dir=base_dir,
    )
    if not args.quiet:
        _print_cells(report)
    out = Path(args.out) if args.out else _resolve(campaign.report_path,
                                                   base_dir)
    out.write_text(report_json(report))
    print(
        f"[campaign {campaign.name}: {stats['n_cells']} cell(s), "
        f"{stats['n_cached']} cached, {stats['n_computed']} computed on "
        f"{stats['workers']} worker(s) in {stats['elapsed_s']:.1f}s "
        f"-> {out}]"
    )
    if args.stats_out:
        Path(args.stats_out).write_text(
            json.dumps(stats, indent=2, sort_keys=True) + "\n"
        )
    return 0


def _cmd_status(args, campaign: CampaignSpec, base_dir: Path) -> int:
    status = campaign_status(campaign, store=args.store, base_dir=base_dir)
    print(f"campaign {status['campaign']} "
          f"({status['campaign_digest'][:12]})")
    print(f"  cells   {status['n_cells']}  cached {status['n_cached']}  "
          f"missing {status['n_missing']}")
    st = status["store"]
    print(f"  store   {st['root']}: {st['n_records']} record(s), "
          f"{st['n_stale']} stale, {st['n_corrupt']} corrupt, "
          f"{st['total_bytes']} bytes, "
          f"{status['foreign_records']} foreign")
    for cell in status["missing"][:10]:
        print(f"  missing #{cell['index']:<5d} {cell['name']:32.32s} "
              f"{cell['spec_digest'][:12]}")
    if status["n_missing"] > 10:
        print(f"  ... and {status['n_missing'] - 10} more")
    return 0 if status["complete"] else 1


def _cmd_report(args, campaign: CampaignSpec, base_dir: Path) -> int:
    store = _open_store(campaign, args.store, base_dir)
    cells, _, records = _partition(campaign, store)
    n_missing = records.count(None)
    if n_missing:
        print(
            f"error: {n_missing}/{len(cells)} cell(s) have no record "
            "in the store; run `repro campaign run` first",
            file=sys.stderr,
        )
        return 1
    report = build_report(campaign, records)
    if args.text:
        _print_cells(report)
    text = report_json(report)
    if args.out:
        Path(args.out).write_text(text)
        print(f"[report written to {args.out}]")
    elif not args.text:
        print(text, end="")
    return 0


def _cmd_prune(args, campaign: CampaignSpec, base_dir: Path) -> int:
    store = _open_store(campaign, args.store, base_dir)
    keep = set(campaign.cell_digests())
    if args.dry_run:
        # Must preview exactly what the real prune removes: foreign
        # digests plus kept-digest records it would not serve.
        total = foreign = corrupt = stale = 0
        for digest in store.digests():
            total += 1
            if digest not in keep:
                foreign += 1
                continue
            status, _ = store._classify(digest)
            if status == "stale":
                stale += 1
            elif status != "ok":
                corrupt += 1
        print(f"[dry run] would remove {foreign} foreign, {stale} stale "
              f"and {corrupt} corrupt of {total} record(s)")
        return 0
    counts = store.prune(keep=keep, drop_corrupt=True)
    print(f"removed {counts['removed']} foreign, "
          f"{counts['stale_removed']} stale and "
          f"{counts['corrupt_removed']} corrupt record(s); "
          f"{counts['kept']} kept")
    return 0


def _resolve(path: str, base_dir: Path) -> Path:
    p = Path(path)
    return p if p.is_absolute() else base_dir / p


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``repro campaign``; returns an exit status."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        campaign = load_campaign(args.campaign)
        base_dir = Path(args.campaign).resolve().parent
        handler = {
            "run": _cmd_run,
            "status": _cmd_status,
            "report": _cmd_report,
            "prune": _cmd_prune,
        }[args.cmd]
        return handler(args, campaign, base_dir)
    except (SpecError, StoreError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
