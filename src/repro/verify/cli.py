"""``repro verify`` — the cross-tier differential verification command.

Usage::

    repro verify                      # all scenarios vs golden files
    repro verify --quick              # smoke subset (CI-on-push budget)
    repro verify exp-baseline-local   # named scenarios only
    repro verify --update-golden      # regenerate tests/golden/*.json
    repro verify --list               # scenario catalog
    repro verify --report out.json    # machine-readable report

Exit status: 0 — all checks held; 1 — at least one tolerance violation
or missing/stale golden; 2 — usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.store import ResultStore
from repro.verify.golden import (
    compare_with_golden,
    default_golden_dir,
    load_golden,
    tier_records,
    write_golden,
)
from repro.verify.runner import run_scenario
from repro.verify.scenarios import SCENARIOS, list_scenarios

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro verify",
        description=(
            "Run named scenarios through the scalar, vectorized and "
            "DES execution tiers and verify cross-tier agreement plus "
            "golden regression pins."
        ),
    )
    parser.add_argument("scenarios", nargs="*",
                        help="scenario names (default: all registered)")
    parser.add_argument("--list", action="store_true",
                        help="list registered scenarios and exit")
    parser.add_argument("--quick", action="store_true",
                        help="only the quick smoke subset")
    parser.add_argument("--seed", type=int, default=0,
                        help="base seed mixed into every scenario (default 0; "
                             "golden files pin seed 0)")
    parser.add_argument("--update-golden", action="store_true",
                        help="regenerate golden files from this run instead "
                             "of checking against them")
    parser.add_argument("--no-golden", action="store_true",
                        help="skip golden comparison (cross-tier checks only)")
    parser.add_argument("--golden-dir", metavar="DIR", default=None,
                        help="golden file directory (default: tests/golden "
                             "of the source checkout)")
    parser.add_argument("--report", metavar="PATH", default=None,
                        help="write the machine-readable JSON report here")
    parser.add_argument("--store", metavar="DIR", default=None,
                        help="persist every executed tier's RunRecord into "
                             "this content-addressed result store")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns an exit status."""
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.list:
        for spec in list_scenarios():
            mark = " [quick]" if spec.execution.quick else ""
            print(f"{spec.name:28s} {spec.execution.compare:5s}{mark}  "
                  f"{spec.description}")
        return 0

    if args.update_golden and args.no_golden:
        parser.error("--update-golden and --no-golden are mutually exclusive")
    if args.update_golden and args.seed != 0:
        parser.error(
            "--update-golden requires the default --seed 0: golden files "
            "pin the seed-0 results the test suite and CI check against"
        )
    if args.seed != 0 and not args.no_golden:
        # Goldens pin seed 0; a different seed would fail every scenario
        # on golden:seed, so fall back to cross-tier checks only.
        print(f"[--seed {args.seed} != 0: golden files pin seed 0, "
              "skipping golden comparison]")
        args.no_golden = True

    if args.scenarios:
        unknown = [s for s in args.scenarios if s not in SCENARIOS]
        if unknown:
            print(f"unknown scenario(s): {', '.join(unknown)}", file=sys.stderr)
            print(f"known: {', '.join(sorted(SCENARIOS))}", file=sys.stderr)
            return 2
        specs = [SCENARIOS[s] for s in args.scenarios]
        if args.quick:
            # Explicitly named scenarios must never be dropped silently.
            not_quick = [s.name for s in specs if not s.execution.quick]
            if not_quick:
                print(
                    f"scenario(s) not in the quick subset: "
                    f"{', '.join(not_quick)} (drop --quick to run them)",
                    file=sys.stderr,
                )
                return 2
    else:
        specs = list_scenarios(quick_only=args.quick)
    if not specs:
        print("no scenarios selected", file=sys.stderr)
        return 2

    golden_dir = Path(args.golden_dir) if args.golden_dir else default_golden_dir()
    store = ResultStore(args.store) if args.store else None
    reports = []
    total_violations = 0
    for spec in specs:
        if args.seed != 0:
            spec = spec.evolve(**{"execution.base_seed": args.seed})
        result = run_scenario(spec)
        if store is not None:
            for record in tier_records(result).values():
                store.put(record)
        checks = list(result.checks)
        if args.update_golden:
            path = write_golden(result, golden_dir)
            golden_note = f"golden -> {path}"
        elif args.no_golden:
            golden_note = "golden skipped"
        else:
            checks += compare_with_golden(
                result, load_golden(spec.name, golden_dir)
            )
            golden_note = "golden checked"
        failed = [c for c in checks if not c.passed]
        total_violations += len(failed)
        status = "ok" if not failed else f"FAIL ({len(failed)} violation(s))"
        print(f"{spec.name:28s} [{spec.execution.compare:5s}] "
              f"{len(checks):2d} checks  {result.elapsed_s:6.2f}s  "
              f"{status}  ({golden_note})")
        for c in failed:
            print(f"    VIOLATION {c.name}: observed={c.observed:.6g} "
                  f"bound={c.bound:.6g} — {c.detail}")
        fragment = result.to_dict()
        fragment["checks"] = [c.to_dict() for c in checks]
        fragment["passed"] = not failed
        reports.append(fragment)

    n_pass = sum(1 for r in reports if r["passed"])
    print(f"\n{n_pass}/{len(reports)} scenarios passed, "
          f"{total_violations} violation(s) total")

    if args.report:
        payload = {
            "command": "repro verify",
            "base_seed": args.seed,
            "quick": args.quick,
            "n_scenarios": len(reports),
            "n_passed": n_pass,
            "n_violations": total_violations,
            "passed": total_violations == 0,
            "scenarios": reports,
        }
        Path(args.report).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"[report written to {args.report}]")

    return 0 if total_violations == 0 else 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
