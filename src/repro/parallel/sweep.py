"""``repro sweep`` — deterministic parallel experiment-grid runner.

The paper's headline artifacts (Table 6, Figs. 9–13) are grids: every
checkpoint policy crossed with storage backends and workload sizes,
each cell a full Monte-Carlo evaluation over a synthesized trace.  A
grid is a list of :class:`~repro.spec.RunSpec` values, and
:func:`run_specs` executes it on a ``multiprocessing`` pool into one
JSON report.  ``repro sweep --spec base.json --axis key=v1,v2`` builds
the list by expanding dotted-path overrides over a base spec
(:func:`expand_grid`): any field of the spec tree is a sweepable axis,
e.g. ``policy.name``, ``storage.mode``, ``workload.n_jobs``,
``workload.trace_seed``, ``execution.base_seed``,
``policy.estimation`` or ``failures.mode``.

Determinism contract
--------------------
Each cell is a pure function of its spec: the trace is synthesized
from ``(n_jobs, trace_seed)``, failure redraws use
``execution.base_seed`` through the sharded runner's ``SeedSequence``
scheme, and no state is shared between cells.  The per-cell
``SimulationResult.digest()`` recorded in the report is therefore
bit-for-bit identical for every ``--workers`` value; ``--workers 1``
is the serial fallback that never touches a pool.  Worker count is
purely a wall-clock knob — pick the host's core count for large grids.

Scheduling
----------
Large grids mix second-long and minute-long cells.  Cells run as
*jobs*: a cell is a job of its own, except that replay-tier redraw
cells whose policy takes no checkpoint (a one-interval
:class:`~repro.core.policies.FixedCountPolicy`, as ``none`` is) and
that differ only in ``storage.mode`` and ``policy.estimation`` form one
*lane group*.  Such cells draw the same uptimes and differ only in
what a failure charges, so a group is one job that runs one kernel
pass with a lane per cell (:func:`repro.api.run_lanes`); its worker
serves the members already in the store from it and writes each fresh
member's record.  Jobs are *dispatched* longest-first (by
:func:`estimate_spec_cost`, a pure heuristic of the spec: workload
size times a per-tier factor, and for replay-tier redraw cells a
per-policy weight, since a redraw cell without checkpoints costs ~30
replay cells; a group weighs the sum of its cells) and handed to the
pool one job per request, so the expensive jobs start first, each on
the next free worker, which cuts tail latency.  Cells are *merged*
back in grid order, so the report — and every digest in it — is
identical for any worker count, any cost model and any grouping
(:func:`dispatch_order` only permutes the execution schedule, never
the output).  The schedule decision (effective workers, serial
fallback, cost sum, chunk size) is logged at DEBUG on
``repro.parallel.sweep``, and so are the lane groups, when any form.

Every cell is persisted as a :class:`~repro.store.RunRecord`; with
``--store DIR`` the grid executes through a content-addressed
:class:`~repro.store.ResultStore`, skipping cells whose spec digest is
already recorded (the same resumability spine ``repro campaign``
drives).

Usage::

    repro sweep --spec examples/specs/daly-shared.json \\
        --axis policy.name=optimal,young,daly --axis storage.mode=auto \\
        --axis workload.n_jobs=500,2000 --workers 4 --out sweep.json
    repro sweep --spec examples/specs/daly-shared.json \\
        --axis policy.name=optimal,young --axis execution.base_seed=0,1 \\
        --store results/
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.parallel.runner import default_workers, get_pool
from repro.spec import RunSpec, SpecError, load_spec
from repro.store import ResultStore, RunRecord

__all__ = [
    "SERIAL_FALLBACK_COST",
    "dispatch_order",
    "effective_workers",
    "estimate_spec_cost",
    "expand_grid",
    "main",
    "run_specs",
]


# ----------------------------------------------------------------------
# Longest-first dispatch.  The cost model only orders the schedule; it
# never touches results, so a wildly wrong estimate costs wall-clock,
# not correctness.
# ----------------------------------------------------------------------
#: relative per-task cost of each execution tier (the scalar tier
#: seeds per-task streams and reruns its long-lived tasks one by one;
#: the DES pays the event loop).
_TIER_COST = {"vector": 1.0, "replay": 1.5, "scalar": 25.0, "des": 60.0}

#: Weight of a replay-tier cell under ``failures.mode="redraw"``, by
#: policy, against a replay-mode cell: the fewer checkpoints a policy
#: takes, the longer the redraw kernel's tail of tasks failing up to
#: ``max_segments`` times.  These are median cell walls over a
#: replay-mode cell's, from the ``campaign_dispatch`` section of
#: ``BENCH_parallel.json``; policies not listed weigh 1.
_REDRAW_POLICY_WEIGHT = {"none": 32.0, "young": 7.0, "daly": 6.0}

#: rough tasks-per-job of the synthesized evaluation traces.
_TASKS_PER_TRACE_JOB = 4.0
_TASKS_PER_HISTORY_JOB = 2.5


def estimate_spec_cost(spec: RunSpec) -> float:
    """Estimated relative cost of one cell (a pure function of the spec).

    Workload size (tasks for synthetic batches, jobs × average tasks
    per job for trace-driven workloads) scaled by a per-tier factor,
    and for replay-tier redraw cells by the policy's weight.  Used only
    to pick the dispatch order of grid cells and the serial fallback.
    """
    w = spec.workload
    if w.source == "synthetic":
        size = float(w.n_tasks)
    elif w.source == "google":
        size = _TASKS_PER_TRACE_JOB * w.trace_jobs
    else:  # "history"
        size = _TASKS_PER_HISTORY_JOB * w.n_jobs
    cost = size * _TIER_COST[spec.execution.tier]
    if spec.failures.mode == "redraw":  # replay-tier specs only
        cost *= _REDRAW_POLICY_WEIGHT.get(spec.policy.name, 1.0)
    return cost


#: Estimated-cost floor below which a grid runs serially even when
#: workers were requested.  Pool dispatch (pickling cells, IPC, and —
#: on first use — spawning the persistent pool) costs tens of
#: milliseconds, so a batch worth well under a second of compute is
#: faster serial: ``BENCH_parallel.json`` records the motivating
#: measurement (a 4-cell replay grid, estimated cost ~7200, ran 0.14 s
#: serial vs 0.18 s on two workers) and the calibration sweep behind
#: this constant (~50k cost units ≈ one second of single-core work on
#: the bench host).  Results never depend on the choice — digests are
#: worker-invariant — so a miscalibration costs wall-clock only.
SERIAL_FALLBACK_COST = 50_000.0


def effective_workers(workers: int, costs) -> int:
    """Overhead-aware worker count for a grid with these cell costs.

    Falls back to serial execution when the whole batch is estimated
    below :data:`SERIAL_FALLBACK_COST` (see above); otherwise returns
    ``workers`` unchanged.  Pure decision logic: it never changes what
    a grid computes, only where.
    """
    if workers <= 1:
        return 1
    if sum(float(c) for c in costs) < SERIAL_FALLBACK_COST:
        return 1
    return workers


def dispatch_order(costs) -> list[int]:
    """Longest-first execution schedule over per-cell cost estimates.

    Returns a permutation of ``range(len(costs))``: highest cost
    first, ties broken by grid index (so the order is deterministic).
    Callers dispatch in this order and merge results back by the
    returned indices — the merged grid order never changes.
    """
    return sorted(range(len(costs)),
                  key=lambda i: (-float(costs[i]), i))


#: Cells a pool worker takes per request.  One, so that the costly
#: cells dispatched first each go to the next free worker instead of
#: being batched behind one another (``Pool.map`` would otherwise chunk
#: a 24-cell grid on two workers by three).
_CHUNKSIZE = 1


def _store_root(store) -> "str | None":
    """Normalize a store argument to a path string (creating the dir)."""
    if store is None:
        return None
    if not isinstance(store, ResultStore):
        store = ResultStore(store)
    return str(store.root)


# ----------------------------------------------------------------------
# Spec-override grids: any RunSpec field is a sweepable axis.
# ----------------------------------------------------------------------
def expand_grid(
    base: RunSpec, axes: "list[tuple[str, list]]"
) -> list[RunSpec]:
    """Cross-product of dotted-path overrides over a base spec.

    ``axes`` pairs dotted spec paths with value lists, e.g.
    ``[("policy.name", ["optimal", "young"]), ("execution.base_seed",
    [0, 1])]``.  Expansion order is deterministic: the first axis is the
    outermost loop.  Each cell applies *all* of its overrides in one
    :meth:`RunSpec.evolve` and only then revalidates — so
    cross-constrained axes (say ``policy.name=fixed-interval`` plus
    ``policy.param=60,120``) work in any axis order, while a genuinely
    bad combination still fails at grid-build time, not mid-sweep in a
    worker.
    """
    combos: list[dict] = [{}]
    for key, values in axes:
        if not values:
            raise SpecError(f"axis {key!r} has no values")
        combos = [{**combo, key: v} for combo in combos for v in values]
    return [base.evolve(**combo) for combo in combos]


def _lane_key(spec: RunSpec) -> "str | None":
    """The group a cell may share a kernel pass with, or ``None``.

    Replay-tier redraw cells whose policy takes no checkpoint (a
    :class:`~repro.core.policies.FixedCountPolicy` of one interval, as
    ``none`` is) give every task one interval whatever storage and
    estimation decide, so cells that differ only there draw the same
    uptimes: :func:`repro.experiments.common.lane_key` names them.
    """
    from repro.core.policies import FixedCountPolicy
    from repro.experiments.common import lane_key
    from repro.verify.scenarios import make_policy

    if spec.execution.tier != "replay" or spec.failures.mode != "redraw":
        return None
    policy = make_policy(spec.policy.name, spec.policy.param)
    if not (isinstance(policy, FixedCountPolicy) and policy.count == 1):
        return None
    return lane_key(spec)


def _group_cells(specs: list[RunSpec]) -> list[list[int]]:
    """Grid indices as pool jobs: each lane group of
    :func:`_lane_key` is one job (at its first cell's place), every
    other cell a job of its own."""
    jobs: list[list[int]] = []
    groups: dict[str, list[int]] = {}
    for i, spec in enumerate(specs):
        key = _lane_key(spec)
        if key is None:
            jobs.append([i])
        elif key in groups:
            groups[key].append(i)
        else:
            groups[key] = [i]
            jobs.append(groups[key])
    return jobs


def _run_spec_cells(job: "tuple[list[dict], str | None]") -> list[dict]:
    """Pool worker: execute one job's specs (shipped as dicts).

    A job of several specs is one lane group, run as one kernel pass
    by :func:`repro.api.run_lanes`.  Each cell is its run's
    :class:`~repro.store.RunRecord` dict (a hit's is the stored one),
    timed as its share of the job; when a store path is given the
    worker skips the members already recorded and writes each fresh
    record itself, so a killed grid keeps every completed cell.
    """
    from repro import api

    spec_dicts, store_root = job
    t0 = time.perf_counter()
    specs = [RunSpec.from_dict(d) for d in spec_dicts]
    if len(specs) == 1:
        results = [api.run(specs[0], store=store_root)]
    else:
        results = api.run_lanes(specs, store=store_root)
    elapsed = round((time.perf_counter() - t0) / len(specs), 3)
    cells = []
    for result in results:
        cell = (result.record or RunRecord.from_result(result)).to_dict()
        cell["elapsed_s"] = elapsed
        cell["cached"] = result.cached
        cells.append(cell)
    return cells


def run_specs(specs: list[RunSpec], workers: int = 1, store=None) -> dict:
    """Execute a list of specs (serially or on a pool) into one report.

    Cells are pure functions of their spec, so the report's digests are
    identical for every ``workers`` value.  Parallelism lives at the
    grid level: each cell executes with ``execution.workers=1``
    regardless of what the base spec says (a cell inside a daemonic
    pool worker could not spawn its own pool anyway, and digests are
    worker-invariant, so this never changes results).  Grids estimated below
    :data:`SERIAL_FALLBACK_COST` run serially even when workers were
    requested (``workers_effective`` in the report records the
    choice): pool dispatch on a sub-second batch costs more than it
    saves.

    Cells run as jobs, each lane group of checkpoint-free redraw cells
    one job (see the module docstring); jobs dispatch longest-first
    (:func:`dispatch_order` over :func:`estimate_spec_cost`) and cells
    merge back in grid order.  With ``store`` (a path or
    :class:`~repro.store.ResultStore`), cells whose spec digest already
    has a record are served from it and each fresh cell persists its
    record as soon as its job finishes.
    """
    if not specs:
        raise ValueError("cannot run an empty spec grid")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    t0 = time.perf_counter()
    root = _store_root(store)
    dicts = [s.evolve(**{"execution.workers": 1}).to_dict() for s in specs]
    costs = [estimate_spec_cost(s) for s in specs]
    groups = _group_cells(specs)
    jobs = [([dicts[i] for i in group], root) for group in groups]
    order = dispatch_order([sum(costs[i] for i in group)
                            for group in groups])
    dispatch = [jobs[j] for j in order]
    n_effective = effective_workers(workers, costs)
    n_procs = min(n_effective, len(jobs))
    # Not imported here, as in repro.core.simulate: a program that
    # turned DEBUG on has imported ``logging`` itself.
    logging = sys.modules.get("logging")
    if logging and logging.getLogger(__name__).isEnabledFor(logging.DEBUG):
        log = logging.getLogger(__name__)
        log.debug(
            "grid of %d cells: workers %d, workers_effective %d, serial "
            "fallback %s, cost sum %.0f, chunksize %s", len(specs), workers,
            n_procs, workers > 1 and n_effective == 1, sum(costs),
            _CHUNKSIZE if n_procs > 1 else "-",
        )
        lanes = [len(g) for g in groups if len(g) > 1]
        if lanes:
            log.debug("%d checkpoint-free redraw cells run as %d lane "
                      "groups of %s cells, one kernel pass each; %d jobs",
                      sum(lanes), len(lanes), lanes, len(jobs))
    if n_procs <= 1:
        done = [_run_spec_cells(j) for j in dispatch]
    else:
        done = get_pool(n_procs).map(_run_spec_cells, dispatch,
                                     chunksize=_CHUNKSIZE)
    cells = [None] * len(specs)
    for j, job_cells in zip(order, done):
        for i, cell in zip(groups[j], job_cells):
            cells[i] = cell
    return {
        "command": "repro sweep",
        "n_points": len(specs),
        "workers": workers,
        "workers_effective": n_procs,
        "store": root,
        "elapsed_s": round(time.perf_counter() - t0, 3),
        "points": cells,
    }


# ----------------------------------------------------------------------
def _csv(value: str) -> list[str]:
    return [v.strip() for v in value.split(",") if v.strip()]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro sweep",
        description=(
            "Run an experiment grid on a process pool and write the "
            "per-cell results (including bit-level digests) as JSON.  "
            "The grid is the cross product of dotted-path --axis "
            "overrides over a base RunSpec file — any spec field is an "
            "axis.  Results are identical for every --workers value."
        ),
    )
    parser.add_argument("--spec", metavar="PATH", required=True,
                        help="base RunSpec file (.json/.toml)")
    parser.add_argument("--axis", metavar="KEY=V1,V2[,...]", action="append",
                        default=[], dest="axes",
                        help="dotted-path override axis over the base spec, "
                             "e.g. --axis policy.name=optimal,young "
                             "(repeatable; first axis is the outer loop)")
    parser.add_argument("--workers", type=int, default=1,
                        help="process-pool size (0 = one per CPU core); "
                             "any value reproduces the same digests")
    parser.add_argument("--store", metavar="DIR", default=None,
                        help="content-addressed result store: cells whose "
                             "spec digest is already recorded are served "
                             "from it, fresh cells persist their RunRecord")
    parser.add_argument("--out", metavar="PATH", default="sweep.json",
                        help="JSON report path (default: sweep.json)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the per-cell progress table")
    return parser


def _parse_axis(text: str) -> tuple[str, list]:
    """Parse one ``--axis key=v1,v2`` into (dotted path, values).

    Values parse as JSON where possible (numbers, booleans, null) and
    fall back to plain strings (policy names, storage modes).
    """
    key, sep, raw = text.partition("=")
    if not sep or not key or not raw:
        raise SpecError(f"--axis needs key=v1[,v2...], got {text!r}")
    values = []
    for item in _csv(raw):
        try:
            values.append(json.loads(item))
        except json.JSONDecodeError:
            values.append(item)
    if not values:
        raise SpecError(f"--axis {key!r} has no values")
    return key, values


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``repro sweep``; returns an exit status."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    workers = args.workers if args.workers > 0 else default_workers()
    try:
        axes = [_parse_axis(a) for a in args.axes]
        specs = expand_grid(load_spec(args.spec), axes)
        report = run_specs(specs, workers=workers, store=args.store)
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not args.quiet:
        for cell in report["points"]:
            wpr = cell["summary"]["mean_wpr"]
            mark = " *" if cell.get("cached") else ""
            print(
                f"{cell['name']:32.32s} [{cell['tier']:6s}] "
                f"tasks={cell['summary']['n_tasks']:<8.0f} "
                f"wpr={wpr:.4f} "
                f"digest={(cell['digest'] or '?')[:12]}  "
                f"{cell['elapsed_s']:6.2f}s{mark}"
            )
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(
        f"[{report['n_points']} cell(s) on {workers} worker(s) in "
        f"{report['elapsed_s']:.1f}s -> {args.out}]"
    )
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
