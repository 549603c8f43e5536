"""End-to-end benchmark: four workloads through ``repro.api.run`` and
campaigns, with an outside-in traced run per layer.

Run from the repository root (no install step; ``src/`` is put on the
import path)::

    python3 e2ebench/run.py --workload synthetic-build --seed 1 --seconds 20 --trace 0

Every workload runs against fresh result stores:

* **cold** - every op (or campaign cell) computes and writes its record;
* **resume** - a deterministic half of the records is deleted and the
  ops (or campaigns) run again, so only the missing half recomputes;
* **hits** - cached ``api.run(spec, store=...)`` calls, in batches
  between the other items.

Times are reported at reference speed (see ``calibrate.py``); the run
output also keeps them as measured.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` runs the first round's cold phase
untraced and then the whole workload traced (spans from ``tracing.py``,
``workers=1``), and reports the per-layer metrics plus the tracing
overhead.  Correctness checks count into ``attempted``/``failed``.  The
last stdout line is the JSON result; the full run output (host, seed,
per-op digests and counters, checks, layer tables) goes to
``e2ebench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

from calibrate import Clock

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"
GOLDEN = ROOT / "tests" / "golden"

#: Registered scenarios whose scalar digest at base seed 0 is checked
#: against ``tests/golden`` during set-up.
SPOT_CHECK = ("exp-baseline-local", "weibull-wearout",
              "policy-no-checkpoint", "storage-nfs-contended")

#: Set-up is measured this many times per run; ``setup_s`` is the median.
SETUP_REPS = 3
SETUP_IMPORTS = "import repro.api, repro.campaign, repro.store"

#: Rounds of a tier workload (each: cold and resume on its own store).
ROUNDS = 3
#: Cached ``api.run`` calls after each op of a tier workload and after
#: each campaign phase; a run times several hundred (at least 100, so
#: the 90th percentile has ten samples beyond it).
HITS_PER_BATCH = 20
CAMPAIGN_HITS_PER_BATCH = 50

#: ``(name, unit)`` of the end-to-end metrics (``--trace 0``).
END_TO_END = (
    ("setup_s", "s"),
    ("tasks_per_s", "1/s"),
    ("op_s_p50", "s"),
    ("cells_per_s", "1/s"),
    ("resume_s", "s"),
    ("hit_s_p50", "s"),
    ("hit_s_p90", "s"),
    ("peak_rss_mb", "MB"),
)


class Checks:
    """Correctness checks; each one is an attempted operation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    def error(self, what: str) -> None:
        """An op that raised: attempted and failed."""
        self.attempted += 1
        self.failures.append(f"{what}: {traceback.format_exc(limit=3)}")


def _summary_ok(digest, summary, want_tasks) -> bool:
    return (isinstance(digest, str) and len(digest) == 64
            and summary["n_tasks"] >= 1
            and (want_tasks is None or summary["n_tasks"] == want_tasks)
            and 0.0 <= summary["completion_rate"] <= 1.0)


def _op_row(phase, name, spec_digest, digest, summary, extra, wall_s):
    """One op of the run output: digest plus simulated counters."""
    return {
        "phase": phase,
        "name": name,
        "spec_digest": spec_digest,
        "digest": digest,
        "n_tasks": summary["n_tasks"],
        "total_failures": summary["total_failures"],
        "completion_rate": summary["completion_rate"],
        "n_events": extra.get("n_events"),
        "peak_queue_length": extra.get("peak_queue_length"),
        "makespan": extra.get("makespan"),
        "wall_s": wall_s,
    }


def _host() -> dict:
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


# ----------------------------------------------------------------------
# Set-up.
# ----------------------------------------------------------------------
def golden_spot_check(checks: Checks) -> None:
    """Scalar digests of a few registered scenarios at base seed 0."""
    from repro import api

    for name in SPOT_CHECK:
        golden = json.loads((GOLDEN / f"{name}.json").read_text())
        result = api.run(api.scenario_spec(name, base_seed=0, tier="scalar"))
        checks.check(result.digest == golden["scalar"]["digest"],
                     f"golden {name}: scalar digest differs")


def measure_setup(workload, seed: int, workers: int) -> Clock:
    """:data:`SETUP_REPS` set-ups, each a fresh-interpreter import, the
    history-trace cache fill and pool start (campaign), and one small
    warm-up op; the clock keeps each rep's total and stages."""
    from repro import api
    from repro.experiments.common import clear_trace_cache, default_trace
    from repro.parallel.runner import get_pool, shutdown_pool
    from workloads import CAMPAIGN_N_JOBS, CAMPAIGN_TRACE_SEED, warmup_spec

    env = dict(os.environ, PYTHONPATH=str(SRC))
    warm = warmup_spec(workload, seed)
    clock = Clock()
    clock.calibrate()
    for _ in range(SETUP_REPS):
        shutdown_pool()
        clear_trace_cache()
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_IMPORTS], env=env,
                       cwd=ROOT, check=True)
        t1 = time.perf_counter()
        if workload.campaign:
            default_trace(CAMPAIGN_N_JOBS, CAMPAIGN_TRACE_SEED, True)
        t2 = time.perf_counter()
        if workload.campaign and workers > 1:
            get_pool(workers)
        t3 = time.perf_counter()
        api.run(warm)
        t4 = time.perf_counter()
        for kind, wall in (("import_s", t1 - t0), ("trace_fill_s", t2 - t1),
                           ("pool_start_s", t3 - t2), ("warmup_s", t4 - t3),
                           ("total_s", t4 - t0)):
            clock.add(kind, wall)
        clock.calibrate()
    return clock


# ----------------------------------------------------------------------
# The three phases.
# ----------------------------------------------------------------------
class Phases:
    """Runs a workload's phases and keeps the samples.

    The host's speed drifts by tens of percent over seconds and
    minutes, so the phases interleave to make every metric sample the
    whole run: a tier workload runs :data:`ROUNDS` rounds of (cold,
    resume), each on its own store, with a batch of cache hits after
    every op; the campaign runs one round per (base seed, estimation)
    pair, with a batch of hits after each phase.  The reference task
    runs between any two timed items; each item's time is also kept
    at reference speed (see :mod:`calibrate`).
    """

    def __init__(self, checks: Checks, store_root: Path, tracer=None,
                 label: str = "") -> None:
        self.checks = checks
        self.root = store_root
        self.tracer = tracer
        self.label = label
        self.ops: list[dict] = []
        self.clock = Clock()
        #: rounding step of cell walls (records keep milliseconds)
        self.cell_wall_step: float | None = None
        self.n_tasks = 0.0
        self.n_cells = 0
        self.n_resumed = 0
        #: ``(spec, result digest)`` of every record now in a store
        self._stored: list[tuple] = []
        self._next_hit = 0

    def _phase(self, name: str):
        return self.tracer.span(f"phase.{name}") if self.tracer else nullcontext()

    def _hits(self, store, n: int) -> None:
        """``n`` cached ``api.run`` calls over the stored records."""
        from repro import api

        for _ in range(n if self._stored else 0):
            spec, want = self._stored[self._next_hit % len(self._stored)]
            self._next_hit += 1
            t = time.perf_counter()
            try:
                with self._phase("hits"):
                    r = api.run(spec, store=store)
            except Exception:
                self.checks.error(f"hit {spec.name}")
                continue
            self.clock.add("hit", time.perf_counter() - t)
            self.checks.check(r.cached and r.digest == want,
                              f"hit {spec.name}: not a cached record")
        self.clock.calibrate()

    # -- tier workloads: one api.run per op ---------------------------
    def tier(self, specs: list, cold_only: bool = False) -> None:
        """Op ``i`` runs in round ``i % ROUNDS``; the resume phase of a
        round recomputes its ops with an even ``i``.  ``cold_only`` runs
        the first round's cold phase alone."""
        from repro.store import ResultStore

        indexed = list(enumerate(specs))
        self.clock.calibrate()
        for r in range(1 if cold_only else ROUNDS):
            self._stored = []
            self._tier_round(indexed[r::ROUNDS],
                             ResultStore(self.root / f"round{r}"), cold_only)

    def _tier_round(self, indexed: list, store, cold_only: bool) -> None:
        from repro import api

        results: dict[int, str] = {}
        for i, spec in indexed:
            t = time.perf_counter()
            try:
                with self._phase("cold"):
                    r = api.run(spec, store=store)
            except Exception:
                self.checks.error(f"{self.label}cold {spec.name}")
                continue
            wall = time.perf_counter() - t
            self.clock.add("cold", wall)
            self.clock.calibrate()
            self.n_tasks += r.summary["n_tasks"]
            self.n_cells += 1
            want = (spec.workload.n_tasks
                    if spec.workload.source == "synthetic" else None)
            self.checks.check(_summary_ok(r.digest, r.summary, want),
                              f"{self.label}cold {spec.name}: bad result")
            results[i] = r.digest
            self.ops.append(_op_row(f"{self.label}cold", spec.name,
                                    spec.spec_digest(), r.digest, r.summary,
                                    r.extra, wall))
            if not cold_only:
                self._stored.append((spec, r.digest))
                self._hits(store, HITS_PER_BATCH)
        if cold_only:
            return
        for i, spec in indexed:
            if i % 2 == 0 and i in results:
                store.path_for(spec.spec_digest()).unlink()
                self.n_resumed += 1
        self._stored = [(s, d) for s, d in self._stored
                        if store.contains(s.spec_digest())]
        for i, spec in indexed:
            t = time.perf_counter()
            try:
                with self._phase("resume"):
                    r = api.run(spec, store=store)
            except Exception:
                self.checks.error(f"resume {spec.name}")
                continue
            self.clock.add("resume", time.perf_counter() - t)
            self.clock.calibrate()
            self.checks.check(r.digest == results.get(i),
                              f"resume {spec.name}: digest changed")
            if i % 2 == 0:
                self._stored.append((spec, r.digest))
            self._hits(store, HITS_PER_BATCH)

    # -- replay-campaign: run_campaign plus cached api.run hits -------
    def campaign(self, rounds: list, workers: int,
                 cold_only: bool = False) -> None:
        """One campaign per round on a shared store: cold, hits, resume
        with half of the round's records deleted, hits.  ``cold_only``
        runs the first round's cold phase alone."""
        from repro.store import ResultStore

        store = ResultStore(self.root)
        self.cell_wall_step = 0.001
        self.clock.calibrate()
        for camp in rounds[:1] if cold_only else rounds:
            self._campaign_round(camp, store, workers, cold_only)

    def _campaign_round(self, camp, store, workers, cold_only) -> None:
        from repro.campaign import report_json, run_campaign

        t0 = time.perf_counter()
        with self._phase("cold"):
            report, stats = run_campaign(camp, store=store, workers=workers)
        self.clock.add("cold", time.perf_counter() - t0)
        cells = camp.expand()
        digests = [spec.spec_digest() for spec in cells]
        self.n_cells += len(cells)
        self.checks.check(stats["n_computed"] == len(cells),
                          f"{self.label}cold: not every cell computed")
        want = report["cells"][0]["summary"]["n_tasks"]
        for spec, cell, sd in zip(cells, report["cells"], digests):
            # The cell's own wall time, as the worker measured it.
            wall = json.loads(store.path_for(sd).read_text())["elapsed_s"]
            self.clock.add("cell", wall)
            self.n_tasks += cell["summary"]["n_tasks"]
            self.checks.check(
                cell["spec_digest"] == sd
                and _summary_ok(cell["digest"], cell["summary"], want),
                f"{self.label}cold {cell['name']}: bad cell")
            self.ops.append(_op_row(f"{self.label}cold", cell["name"], sd,
                                    cell["digest"], cell["summary"],
                                    cell["extra"], wall))
            self._stored.append((spec, cell["digest"]))
        self.clock.calibrate()
        if cold_only:
            return
        self._hits(store, CAMPAIGN_HITS_PER_BATCH)
        # Cells come in (replay, redraw) pairs in grid order: deleting
        # every other pair recomputes half of both kinds.
        deleted = {sd for i, sd in enumerate(digests) if i // 2 % 2 == 0}
        for sd in deleted:
            store.path_for(sd).unlink()
        self.n_resumed += len(deleted)
        t0 = time.perf_counter()
        with self._phase("resume"):
            resumed, stats = run_campaign(camp, store=store, workers=workers)
        self.clock.add("resume", time.perf_counter() - t0)
        self.clock.calibrate()
        self.checks.check(stats["n_computed"] == len(deleted),
                          "resume: recomputed other than the missing cells")
        self.checks.check(report_json(resumed) == report_json(report),
                          "resume: report differs from the cold report")
        self._hits(store, CAMPAIGN_HITS_PER_BATCH)


def run_workload(workload, args, checks, store_root, tracer=None,
                 cold_only=False) -> Phases:
    """One pass of the workload's phases (serial when traced); a
    ``cold_only`` pass labels its ops ``reference-cold``."""
    from workloads import campaign_rounds, campaign_workers, tier_specs

    phases = Phases(checks, store_root, tracer,
                    "reference-" if cold_only else "")
    if workload.campaign:
        workers = 1 if args.trace else campaign_workers()
        phases.campaign(campaign_rounds(args.seed, workers), workers,
                        cold_only)
    else:
        phases.tier(tier_specs(workload, args.seed, args.seconds), cold_only)
    return phases


# ----------------------------------------------------------------------
# Metrics.
# ----------------------------------------------------------------------
def end_to_end(phases: Phases, setup: Clock, times: str) -> dict:
    """``{name: (value, unit, samples)}`` for :data:`END_TO_END`, from
    the clocks' ``times`` (``"raw"`` or ``"ref"``) columns."""
    run, set_up = getattr(phases.clock, times), getattr(setup, times)
    cold, hits = run["cold"], run["hit"]
    if phases.cell_wall_step:
        # Cell walls come from the records, rounded to milliseconds: the
        # grouped median interpolates inside the median's millisecond.
        walls = run["cell"]
        op_p50 = statistics.median_grouped(walls, phases.cell_wall_step)
    else:
        walls = cold
        op_p50 = statistics.median(walls)
    values = {
        "setup_s": (statistics.median(set_up["total_s"]), SETUP_REPS),
        "tasks_per_s": (phases.n_tasks / sum(cold), phases.n_cells),
        "op_s_p50": (op_p50, len(walls)),
        "cells_per_s": (phases.n_cells / sum(cold), phases.n_cells),
        "resume_s": (sum(run["resume"]), phases.n_resumed),
        "hit_s_p50": (statistics.median(hits), len(hits)),
        "hit_s_p90": (statistics.quantiles(hits, n=10)[8], len(hits)),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
    }
    return {name: (values[name][0], unit, values[name][1])
            for name, unit in END_TO_END}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="e2ebench/run.py",
        description="End-to-end benchmark of repro.api.run and campaigns.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    sys.path.insert(0, str(SRC))
    try:
        import tracing
        from repro.experiments.common import trace_cache_stats
        from repro.parallel.runner import shutdown_pool
        from workloads import WORKLOADS, campaign_workers
    except ImportError as exc:
        print(f"error: cannot import the repro package from {SRC}: {exc}",
              file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]

    RESULTS.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="stores-", dir=RESULTS))
    checks = Checks()
    out = {"workload": workload.name, "why": workload.why, "seed": args.seed,
           "seconds": args.seconds, "trace": args.trace, "host": _host()}
    try:
        golden_spot_check(checks)
        setup = measure_setup(workload, args.seed, campaign_workers())
        out["setup"] = {kind: statistics.median(walls)
                        for kind, walls in setup.raw.items()}
        if not args.trace:
            phases = run_workload(workload, args, checks, scratch / "store")
            metrics = end_to_end(phases, setup, "ref")
            out["metrics_as_measured"] = {
                name: {"value": v, "unit": u, "samples": n}
                for name, (v, u, n) in end_to_end(phases, setup,
                                                  "raw").items()}
            out["reference_times"] = phases.clock.reference_times
        else:
            # Tracing overhead: the first round's cold phase, untraced
            # here and traced below.
            ref = run_workload(workload, args, checks, scratch / "reference",
                               cold_only=True)
            first = ref.clock.ref["cold"]
            tracer = tracing.Tracer()
            cache_before = trace_cache_stats()
            with tracing.install(tracer):
                phases = run_workload(workload, args, checks,
                                      scratch / "store", tracer=tracer)
            cache_after = trace_cache_stats()
            metrics, layers = tracing.layer_metrics(
                tracer,
                pool_start_s=out["setup"]["pool_start_s"],
                trace_hits=cache_after["hits"] - cache_before["hits"],
                trace_misses=cache_after["misses"] - cache_before["misses"],
                overhead=(sum(phases.clock.ref["cold"][:len(first)])
                          / sum(first)),
            )
            out["layers"] = layers
            out["layer_checks"] = tracing.dominance_checks(
                workload.name, tracer)
            out["reference_ops"] = ref.ops
            spans_path = RESULTS / (
                f"{workload.name}-seed{args.seed}-spans.json")
            spans_path.write_text(json.dumps(tracer.to_dict()))
        out["ops"] = phases.ops
    finally:
        shutdown_pool()
        shutil.rmtree(scratch, ignore_errors=True)

    # The result line carries the metrics BENCHMARK.json names; every
    # metric is printed above it and kept in the run output.
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    named = [m["name"] for m in
             bench["per_layer" if args.trace else "end_to_end"]]
    failed = len(checks.failures)
    out["metrics"] = {name: {"value": v, "unit": u, "samples": n}
                      for name, (v, u, n) in metrics.items()}
    out["attempted"], out["failed"] = checks.attempted, failed
    out["error_rate"] = failed / checks.attempted
    out["failures"] = checks.failures
    out_path = RESULTS / (
        f"{workload.name}-seed{args.seed}-trace{args.trace}.json")
    out_path.write_text(json.dumps(out, indent=2) + "\n")

    print(f"workload {workload.name}  seed {args.seed}  "
          f"seconds {args.seconds}  trace {args.trace}  "
          f"cpu_count {out['host']['cpu_count']}")
    for name, (value, unit, n) in metrics.items():
        print(f"  {name:26s} {value:14.6g} {unit:6s} (n={n})")
    print(f"  {'error_rate':26s} {out['error_rate']:14.6g} {'ratio':6s} "
          f"(n={checks.attempted})")
    for line in out.get("layer_checks", []):
        print(f"  check: {line}")
    for failure in checks.failures[:10]:
        print(f"  FAILED: {failure}")
    print(f"  [run output: {out_path.relative_to(ROOT)}]")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": checks.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0],
                           "unit": metrics[name][1]} for name in named},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
