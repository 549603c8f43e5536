"""``repro.api`` — one facade over every execution tier.

:func:`run` takes a declarative :class:`~repro.spec.RunSpec` and
dispatches it to the right engine:

* ``tier="scalar"`` — the per-task scalar reference loop (the
  golden-pinned tier);
* ``tier="vector"`` — the blocked Monte-Carlo batch through
  :mod:`repro.parallel` (bit-identical for every worker count);
* ``tier="des"`` — the discrete-event cluster simulation;
* ``tier="replay"`` — the trace-driven policy-evaluation pipeline
  (:func:`repro.experiments.common.evaluate_policy`), also sharded
  through :mod:`repro.parallel` when ``execution.workers > 1``.

The scalar/vector/des tiers materialize the spec through the verify
subsystem's workload builder
(:func:`repro.verify.scenarios.build_workload`), and the verify
registry holds plain specs, so ``run(get_scenario(name))`` is the
computation ``repro verify`` pins in its golden scalar digests.
:func:`run_lanes` is :func:`run` over replay-tier cells that share
their uptimes, run as the lanes of one kernel pass.

Passing ``store=`` (a :class:`~repro.store.ResultStore` or a path)
gives any caller content-addressed caching: a spec whose
``spec_digest()`` already has a readable record returns it without
executing, and every fresh execution persists its
:class:`~repro.store.RunRecord` — the resumability primitive
:mod:`repro.campaign` builds on.

The module doubles as the ``repro run`` CLI::

    repro run --spec examples/specs/daly-shared.json
    repro run --scenario exp-baseline-local --set execution.tier=vector
    repro run --spec run.toml --set policy.name=young --out result.json
    repro run --spec run.json --store results/   # skip-if-cached
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.parallel.runner import (DEFAULT_CHUNK_SIZE, auto_chunk_size,
                                   batch_processes)
from repro.store import ResultStore, RunRecord
from repro.spec import RunSpec, SpecError, load_spec
from repro.verify.runner import run_des, run_scalar, run_vector
from repro.verify.scenarios import build_workload, get_scenario

__all__ = [
    "RunResult",
    "main",
    "run",
    "run_lanes",
    "scenario_spec",
]


def scenario_spec(
    name: str, *, base_seed: int = 0, tier: str = "scalar", workers: int = 1
) -> RunSpec:
    """The registered scenario ``name`` at this tier, seed and workers."""
    return get_scenario(name).evolve(**{
        "execution.tier": tier,
        "execution.base_seed": base_seed,
        "execution.workers": workers,
    })


# ----------------------------------------------------------------------
# The facade.
# ----------------------------------------------------------------------
@dataclass
class RunResult:
    """What one spec produced on one tier: the fields of its record.

    ``digest`` is the bit-level result fingerprint
    (:meth:`SimulationResult.digest`), worker-count invariant on every
    tier that accepts workers; ``summary`` are the scalar statistics
    the verify subsystem holds against tolerances.  A computed result
    and one served from a :class:`~repro.store.ResultStore`
    (``cached``) have the same fields; callers that need per-task
    arrays call the tier itself (for instance
    :func:`repro.experiments.common.evaluate_policy`).

    A cached result is backed by the ``record`` it was read from (see
    :func:`repro.store.canonical_spec_dict`): its ``extra`` omits the
    live-run ``workers_effective`` marker, and its ``spec``, parsed
    from the record's snapshot when first read, has default
    workers/prose.
    """

    spec: RunSpec
    tier: str
    seed: int
    digest: str | None
    summary: dict[str, float]
    elapsed_s: float
    extra: dict[str, float] = field(default_factory=dict)
    #: served from a :class:`~repro.store.ResultStore` instead of
    #: executing
    cached: bool = False
    #: the record a cached result was read from
    record: RunRecord | None = field(default=None, repr=False, compare=False)

    def __getattr__(self, name: str):
        # Reached only for an attribute the instance lacks, which a
        # cached result's spec is until its first read.
        if name != "spec" or self.record is None:
            raise AttributeError(name)
        spec = vars(self)["spec"] = RunSpec.from_dict(self.record.spec)
        return spec

    def to_dict(self) -> dict:
        """JSON-ready report fragment (spec + summaries, no arrays)."""
        return {
            "name": self.spec.name,
            "tier": self.tier,
            "seed": self.seed,
            "spec_digest": self.spec.spec_digest(),
            "digest": self.digest,
            "summary": self.summary,
            "extra": self.extra,
            "elapsed_s": round(self.elapsed_s, 3),
            "spec": self.spec.to_dict(),
        }


def run(
    spec: RunSpec,
    *,
    store: "ResultStore | str | Path | None" = None,
) -> RunResult:
    """Execute ``spec`` on the tier it names and return a :class:`RunResult`.

    A pure function of the spec: equal specs produce bit-identical
    result digests, for every ``execution.workers`` value.

    ``store`` (a :class:`~repro.store.ResultStore` or a path) makes
    the run content-addressed: a cached record for
    ``spec.spec_digest()`` is returned without executing
    (``result.cached`` is set); on a miss the spec executes and its
    record is persisted.

    A hit is one :meth:`~repro.store.ResultStore.get` and returns a
    result backed by the record (see :class:`RunResult`).  A record
    ``get`` does not serve is a miss: the run recomputes and
    overwrites it.  The caller's spec digest is derived once per spec
    *instance*, so a caller that keeps its spec object skips it on
    later hits; one that builds a fresh spec for every call (a sweep
    worker, ``repro run``) derives it each time.

    ``execution.workers`` fans out the vector and replay tiers, and —
    for contention-free scenarios (local storage, no host crashes) —
    the DES tier, which decomposes by host group through
    :mod:`repro.des.sharding` (the shard plan is a pure function of
    the spec, so every field of the result is worker-count invariant).
    ``extra["workers_effective"]`` is the process count the run used:
    a vector or replay batch of one chunk runs in-process (see
    :func:`repro.parallel.runner.batch_processes`), the scalar
    reference loop stays single-stream, and DES runs whose physics
    cannot decompose (shared storage, host crashes) refuse to shard:
    when workers were requested they record ``shard_refused=1`` in
    ``extra`` and log the reason on the ``repro.api`` logger.
    """
    if store is not None:
        if not isinstance(store, ResultStore):
            store = ResultStore(store)
        cached = _cached(store, spec)
        if cached is not None:
            return cached
    result = _execute(spec)
    if store is not None:
        store.put(RunRecord.from_result(result))
    return result


def _cached(store: ResultStore, spec: RunSpec) -> RunResult | None:
    """The stored result of ``spec``, or ``None`` for a miss (see
    :func:`run`)."""
    record = store.get(spec.spec_digest(), on_corrupt="miss")
    if record is None:
        return None
    result = RunResult.__new__(RunResult)  # its spec parses when read
    vars(result).update(
        tier=record.tier, seed=record.seed, digest=record.digest,
        summary=record.summary, elapsed_s=record.elapsed_s,
        extra=record.extra, cached=True, record=record)
    return result


def _execute(spec: RunSpec) -> RunResult:
    """The uncached execution path behind :func:`run`."""
    t0 = time.perf_counter()
    tier = spec.execution.tier
    workers = spec.execution.workers
    if tier == "replay":
        from repro.experiments.common import evaluate_policy

        return _replay_result(spec, evaluate_policy(spec), t0, workers)
    workload = build_workload(spec)
    if tier == "scalar":
        tr = run_scalar(workload)
        workers_effective = 1
        shard_refused = False
    elif tier == "vector":
        tr = run_vector(workload, workers=workers)
        # the chunk size simulate_tasks_sharded picks for this batch
        n_tasks = workload.te.size
        workers_effective = batch_processes(
            n_tasks, auto_chunk_size(n_tasks, len(workload.distributions)),
            workers)
        shard_refused = False
    else:  # "des" — the spec validated tier membership already
        tr = run_des(workload, workers=workers)
        if "n_shards" in tr.extra:
            # Sharded by host group; the plan (and therefore the whole
            # result, extra included) is worker-count invariant.  Small
            # runs dispatch their shards in-process (serial fallback).
            from repro.des.sharding import shard_workers

            workers_effective = min(shard_workers(spec, workers),
                                    int(tr.extra["n_shards"]))
            shard_refused = False
        else:
            # run_des kept the single event loop — either the config
            # refuses to shard, or the plan degenerated (empty trace).
            workers_effective = 1
            shard_refused = workers > 1
            if shard_refused:
                import logging

                from repro.des.sharding import shard_refusal_reason

                logging.getLogger("repro.api").info(
                    "%s: execution.workers=%d has no effect on this 'des' "
                    "run, which refuses to shard: %s; ran a single event "
                    "loop (shard_refused=1)",
                    spec.name, workers,
                    shard_refusal_reason(workload.cluster)
                    or "the workload has nothing to decompose",
                )
    extra = {k: float(v) for k, v in tr.extra.items()}
    extra["workers_effective"] = float(workers_effective)
    if shard_refused:
        extra["shard_refused"] = 1.0
    return RunResult(
        spec=spec,
        tier=tier,
        seed=workload.seed,
        digest=tr.digest,
        summary=tr.summary,
        elapsed_s=time.perf_counter() - t0,
        extra=extra,
    )


def _replay_result(spec: RunSpec, pr, t0: float, workers: int) -> RunResult:
    """The :class:`RunResult` of one replay-tier evaluation ``pr``,
    timed from ``t0``, whose kernel pass ran at ``workers``."""
    sim = pr.sim
    n_tasks = pr.flat.n_tasks
    # the chunk size evaluate_lanes's sharded kernel picks for the batch
    chunk_size = (DEFAULT_CHUNK_SIZE if spec.failures.mode == "replay"
                  else auto_chunk_size(n_tasks, n_tasks))
    return RunResult(
        spec=spec,
        tier="replay",
        seed=spec.execution.base_seed,
        digest=sim.digest(),
        summary=sim.summary(),
        elapsed_s=time.perf_counter() - t0,
        extra={
            "n_jobs_sampled": float(pr.job_wpr.size),
            "mean_job_wpr": pr.mean_wpr(),
            "lowest_job_wpr": pr.lowest_wpr(),
            "mean_job_wall": float(np.mean(pr.job_wall)),
            "workers_effective": float(
                batch_processes(n_tasks, chunk_size, workers)),
        },
    )


def run_lanes(
    specs: list[RunSpec],
    *,
    store: "ResultStore | str | Path | None" = None,
) -> list[RunResult]:
    """:func:`run` over replay-tier specs that may share one kernel pass.

    The specs may differ only in ``storage.mode`` and
    ``policy.estimation`` (and their names), and must agree on every
    task's interval count (see
    :func:`repro.experiments.common.evaluate_lanes`): checkpoint-free
    redraw cells of one grid are the case.  With ``store``, specs that
    already have a record are served from it, and the rest run as the
    lanes of one pass, each persisting its own record.  Every result,
    record and digest is the one ``run(spec, store=store)`` gives; a
    computed lane's ``elapsed_s`` is its share of the pass.
    """
    from repro.experiments.common import evaluate_lanes

    if store is not None and not isinstance(store, ResultStore):
        store = ResultStore(store)
    results = [_cached(store, spec) if store is not None else None
               for spec in specs]
    todo = [i for i, result in enumerate(results) if result is None]
    if not todo:
        return results
    t0 = time.perf_counter()
    runs = evaluate_lanes([specs[i] for i in todo])
    share = (time.perf_counter() - t0) / len(todo)
    workers = specs[todo[0]].execution.workers  # what evaluate_lanes runs at
    for i, pr in zip(todo, runs):
        result = _replay_result(specs[i], pr, time.perf_counter() - share,
                                workers)
        if store is not None:
            store.put(RunRecord.from_result(result))
        results[i] = result
    return results


# ----------------------------------------------------------------------
# The ``repro run`` CLI.
# ----------------------------------------------------------------------
def _parse_set(text: str) -> tuple[str, object]:
    """Parse one ``--set key=value`` override (value JSON-or-string)."""
    key, sep, raw = text.partition("=")
    if not sep or not key:
        raise SpecError(f"--set needs key=value, got {text!r}")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key, value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro run",
        description=(
            "Execute one declarative RunSpec (JSON or TOML) on the "
            "scalar, vector, DES, or replay tier.  Results are "
            "bit-identical for every --set execution.workers value."
        ),
    )
    source = parser.add_mutually_exclusive_group()
    source.add_argument("--spec", metavar="PATH",
                        help="spec file (.json or .toml)")
    source.add_argument("--scenario", metavar="NAME",
                        help="start from a registered verify scenario spec")
    parser.add_argument("--set", metavar="KEY=VALUE", action="append",
                        default=[], dest="overrides",
                        help="dotted-path spec override, e.g. "
                             "--set policy.name=young "
                             "--set execution.workers=4 (repeatable)")
    parser.add_argument("--print-spec", action="store_true",
                        help="print the resolved spec as JSON and exit "
                             "without running")
    parser.add_argument("--store", metavar="DIR", default=None,
                        help="content-addressed result store: return the "
                             "cached record when the spec digest is already "
                             "present, persist the RunRecord otherwise")
    parser.add_argument("--out", metavar="PATH", default=None,
                        help="write the JSON run report here")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``repro run``; returns an exit status."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.spec:
            spec = load_spec(args.spec)
        elif args.scenario:
            try:
                spec = scenario_spec(args.scenario)
            except KeyError as exc:
                print(f"error: {exc.args[0]}", file=sys.stderr)
                return 2
        else:
            parser.error("one of --spec, --scenario is required")
        if args.overrides:
            spec = spec.evolve(
                **dict(_parse_set(item) for item in args.overrides)
            )
        if args.print_spec:
            print(spec.to_json(), end="")
            return 0
        result = run(spec, store=args.store)
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    summary = result.summary
    cached = " (cached)" if result.cached else ""
    print(f"{spec.name} [{result.tier}] seed={result.seed} "
          f"spec={spec.spec_digest()[:12]}{cached}")
    print(f"  n_tasks={summary['n_tasks']:.0f} "
          f"mean_wallclock={summary['mean_wallclock']:.3f} "
          f"mean_wpr={summary['mean_wpr']:.4f} "
          f"mean_failures={summary['mean_failures']:.3f} "
          f"completion={summary['completion_rate']:.3f}")
    for key in sorted(result.extra):
        print(f"  {key}={result.extra[key]:.6g}")
    print(f"  digest {result.digest}  ({result.elapsed_s:.2f}s)")
    if args.out:
        Path(args.out).write_text(
            json.dumps(result.to_dict(), indent=2) + "\n"
        )
        print(f"[report written to {args.out}]")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
