"""``repro`` command-line entry point: one subcommand per surface.

Usage::

    repro experiments --list          # reproduce paper artifacts
    repro experiments fig9 tab6
    repro verify --quick              # cross-tier differential verification
    repro verify --update-golden
    repro sweep --spec run.json --axis policy.name=optimal,young --workers 4
                                      # parallel experiment-grid runner
    repro run --spec run.json         # execute one declarative RunSpec
    repro run --scenario exp-baseline-local --set execution.tier=vector
    repro campaign run grid.toml      # resumable store-backed campaign
    repro campaign status grid.toml

``repro`` with no subcommand, or an unknown one, prints the subcommand
list and exits 2.
"""

from __future__ import annotations

import argparse
import importlib
import sys
import time

from repro.experiments.registry import EXPERIMENTS, get_experiment, run_experiment

__all__ = ["main"]

#: subcommand -> (module whose ``main(argv)`` runs it, one-line
#: summary); ``experiments`` runs here
_SUBCOMMANDS = {
    "experiments": (None, "reproduce the paper's tables and figures"),
    "verify": ("repro.verify.cli", "cross-tier differential verification"),
    "run": ("repro.api", "execute one declarative RunSpec"),
    "sweep": ("repro.parallel.sweep", "run a spec grid on a worker pool"),
    "campaign": ("repro.campaign", "resumable store-backed campaigns"),
}

#: Canonical presentation order (the paper's order).
_ORDER = [
    "fig4", "fig5", "fig7", "tab2", "tab3", "tab4", "tab5", "fig8",
    "tab6", "tab7", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14",
]


def _known_ids() -> list[str]:
    get_experiment(_ORDER[0])  # force registration
    ordered = [e for e in _ORDER if e in EXPERIMENTS]
    extras = sorted(set(EXPERIMENTS) - set(ordered))
    return ordered + extras


def main(argv: list[str] | None = None) -> int:
    """Top-level CLI: dispatch to the named subcommand."""
    args = list(sys.argv[1:] if argv is None else argv)
    if not args or args[0] not in _SUBCOMMANDS:
        print("usage: repro <subcommand> [args ...]\n\nsubcommands:",
              file=sys.stderr)
        for name, (_, summary) in _SUBCOMMANDS.items():
            print(f"  {name:<12} {summary}", file=sys.stderr)
        return 2
    module, _ = _SUBCOMMANDS[args[0]]
    if module is None:
        return _experiments(args[1:])
    return importlib.import_module(module).main(args[1:])


def _experiments(argv: list[str]) -> int:
    """``repro experiments``; returns an exit status."""
    parser = argparse.ArgumentParser(
        prog="repro experiments",
        description=(
            "Reproduce the tables and figures of Di et al., 'Optimization "
            "of Cloud Task Processing with Checkpoint-Restart Mechanism' "
            "(SC'13)."
        ),
    )
    parser.add_argument("experiments", nargs="*",
                        help="experiment ids (fig4..fig14, tab2..tab7)")
    parser.add_argument("--all", action="store_true", help="run everything")
    parser.add_argument("--list", action="store_true", help="list experiment ids")
    parser.add_argument("--n-jobs", type=int, default=None,
                        help="override trace size for workload experiments")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the trace seed")
    parser.add_argument("--export", metavar="DIR", default=None,
                        help="write each experiment's data as JSON/CSV "
                             "into DIR for external plotting")
    args = parser.parse_args(argv)

    ids = _known_ids()
    if args.list:
        for exp_id in ids:
            print(exp_id)
        return 0
    targets = ids if args.all else args.experiments
    if not targets:
        parser.print_help()
        return 2

    unknown = [t for t in targets if t not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        print(f"known: {', '.join(ids)}", file=sys.stderr)
        return 2

    for exp_id in targets:
        kwargs = {}
        fn = EXPERIMENTS[exp_id]
        # Only forward overrides the experiment actually accepts.
        params = fn.__code__.co_varnames[: fn.__code__.co_argcount]
        if args.n_jobs is not None and "n_jobs" in params:
            kwargs["n_jobs"] = args.n_jobs
        if args.seed is not None and "seed" in params:
            kwargs["seed"] = args.seed
        t0 = time.perf_counter()
        report = run_experiment(exp_id, **kwargs)
        dt = time.perf_counter() - t0
        print(report.render())
        if args.export:
            from repro.experiments.export import export_report

            written = export_report(report, args.export)
            print(f"[exported {len(written)} file(s) to {args.export}]")
        print(f"[{exp_id} completed in {dt:.1f}s]")
        print()
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
