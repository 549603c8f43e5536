"""Record the DES-tier perf trajectory: engine, scheduler, executor and
sharding.

Seven sections, written as ``BENCH_des.json`` (the committed perf
record the CI regression guard compares against):

* ``event_loop`` — the engine microbenchmark (1k processes x 100
  timeouts, 20 x 5000) in both wait modes: ``yield env.timeout(d)``
  (object mode) and ``yield d`` (raw mode, what the cluster executor
  uses), timed interleaved with e2ebench's fixed host probe
  (:func:`calibrate.reference_task`, e2ebench's own code, so no change
  to the program can move it).  ``probe_over_raw`` and ``probe_over_timeout_mode`` are the
  probe's time over each mode's: host speed cancels out, engine
  speed does not.
* ``scheduler`` — a queue-deep shared-storage scenario (NFS
  checkpoints, so it cannot shard) on the single event loop, once with
  the brute-force ``ReferenceScheduler`` of
  ``tests/test_scheduler_differential.py`` and once with the current
  one.  Digest, queue peak and makespan must be equal; ``speedup`` is
  reference over current.
* ``executor`` — the unsharded 2000-task ``exp-baseline-local`` run,
  once with the per-interval ``ReferenceExecutor`` of
  ``tests/test_executor_differential.py`` (a watchdog per segment,
  memory-priced checkpoints) and once with the current executor
  (checkpoints priced from the plan, contention-free local segments
  as one wake).  Digest and every ``extra`` counter but ``n_events``
  must be equal; each side reports its own event count (heap pops);
  ``speedup`` is reference over current.
* ``contended`` — the six ``des-contended`` op shapes of
  ``e2ebench/workloads.py`` (shared storage, host crashes) through
  ``run_des_unsharded``, once with ``ReferenceExecutor`` and once with
  the current executor (a process-free failure alarm on shared
  storage, one wake per local segment, host crashes included).  Digest
  and every ``extra`` counter but ``n_events`` must be equal; each row
  records both sides' event counts (heap pops).
* ``sharding`` — a multi-host contention-free scenario batch through
  the unsharded event loop vs host-group sharding at workers 1/2/4,
  with per-task alignment and digest worker-invariance asserted (runs
  too small to pay for pool dispatch shard in-process at any worker
  count, see :func:`repro.des.sharding.shard_workers`).  The
  candidates are timed interleaved (like every section), so host drift
  lands on all of them rather than on one side of a ratio.  Two
  shapes: ``queue-deep`` (tasks >> VMs) and ``capacity-matched``
  (tasks < VMs, no queue).  Sharding pays only what decomposition
  saves over one event loop (smaller heaps) minus the shard plan and
  merge; extra workers add on top wherever there are cores.
* ``sharding_ops`` — the same comparison (unsharded vs workers 1/2)
  on six contention-free op specs of realistic size: the decision
  record for whether sharding still pays.

Usage::

    PYTHONPATH=src python benchmarks/run_des_bench.py [--out PATH]
        [--repeats K] [--quick] [--only SECTION ...]

``--only`` re-records the named sections and keeps every other section
of the existing ``--out`` file (into a new file, it records the named
sections alone).

The reference models are the tier-1 differential tests' own, so
changing either class means re-recording this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
# the reference models: e2ebench's host probe and tier-1's
# differential-test classes
sys.path[:0] = [str(ROOT / "e2ebench"), str(ROOT / "tests")]

from repro._version import __version__
from repro.des.sharding import run_des_sharded
from repro.sim.engine import Environment
from repro.spec import (
    ExecutionSpec,
    FailureLawSpec,
    FailureSpec,
    RunSpec,
    StorageSpec,
    WorkloadSpec,
)
from repro.verify.runner import run_des_unsharded
from repro.verify.scenarios import build_workload, get_scenario

#: two ticker shapes: *wide* (many concurrent processes — heap
#: comparisons at depth log2(1000) are a large shared cost) and
#: *narrow* (few processes — per-event engine overhead dominates).
TICKER_SHAPES = {
    "wide-1000x100": (1000, 100),
    "narrow-20x5000": (20, 5000),
}


def _best_of_interleaved(repeats, fns: dict):
    """Best-of timing with the candidates interleaved round-robin.

    Consecutive same-candidate repeats absorb CPU-frequency drift into
    one candidate's number; alternating rounds spread it evenly, which
    matters on small shared hosts.  GC stays *enabled* during the timed
    region — the DES tier runs with it on, and allocation pressure
    (garbage Timeouts vs raw wakes) is part of what is being compared —
    but each run starts from a collected heap so no candidate pays for
    another's garbage.
    """
    import gc

    times = {name: [] for name in fns}
    for _ in range(repeats):
        for name, fn in fns.items():
            gc.collect()
            t0 = time.perf_counter()
            fn()
            times[name].append(time.perf_counter() - t0)
    return {name: min(vals) for name, vals in times.items()}


# ----------------------------------------------------------------------
# Event-loop microbenchmark.
# ----------------------------------------------------------------------
def _ticker_run(raw: bool, procs: int, ticks: int) -> float:
    env = Environment()
    if raw:
        def ticker():
            for _ in range(ticks):
                yield 1.0
    else:
        def ticker():
            for _ in range(ticks):
                yield env.timeout(1.0)
    for _ in range(procs):
        env.process(ticker())
    env.run()
    return env.now


def bench_event_loop(repeats: int) -> dict:
    from calibrate import reference_task

    out = {}
    for label, (procs, ticks) in TICKER_SHAPES.items():
        assert _ticker_run(False, procs, ticks) == float(ticks)
        times = _best_of_interleaved(repeats, {
            "probe": reference_task,
            "obj": lambda: _ticker_run(False, procs, ticks),
            "raw": lambda: _ticker_run(True, procs, ticks),
        })
        t_probe, t_obj, t_raw = times["probe"], times["obj"], times["raw"]
        n_events = procs * (ticks + 2)
        out[label] = {
            "shape": f"{procs} procs x {ticks} ticks ({n_events} events)",
            "probe_s": round(t_probe, 5),
            "current_timeout_mode_s": round(t_obj, 4),
            "current_raw_mode_s": round(t_raw, 4),
            "probe_over_timeout_mode": round(t_probe / t_obj, 4),
            "probe_over_raw": round(t_probe / t_raw, 4),
            "raw_mode_events_per_s": round(n_events / t_raw),
        }
    return out


# ----------------------------------------------------------------------
# The current scheduler and executor against tier-1's reference models.
# ----------------------------------------------------------------------
def _unsharded_with(workload, **classes):
    """``run_des_unsharded`` with the platform building the given
    classes in place of its own (``GreedyScheduler=``,
    ``TaskExecutor=``)."""
    from repro.cluster import platform

    current = {name: getattr(platform, name) for name in classes}
    for name, cls in classes.items():
        setattr(platform, name, cls)
    try:
        return run_des_unsharded(workload)
    finally:
        for name, cls in current.items():
            setattr(platform, name, cls)


def _against_reference(workload, repeats: int, label: str, **reference):
    """``(reference run, current run, best times)`` of ``workload``,
    once with the ``reference`` classes in the platform's slots and once
    with its own, timed interleaved.  Digests and ``extra`` counters
    must be equal, except the event counts: each side's ``n_events`` is
    its own engine's heap pops."""
    ref = _unsharded_with(workload, **reference)
    cur = run_des_unsharded(workload)

    def counters(run):
        return {k: v for k, v in run.extra.items() if k != "n_events"}

    assert ref.digest == cur.digest and counters(ref) == counters(cur), \
        f"{label} diverges from the reference model!"
    times = _best_of_interleaved(repeats, {
        "ref": lambda: _unsharded_with(workload, **reference),
        "cur": lambda: run_des_unsharded(workload),
    })
    return ref, cur, times


def bench_scheduler(repeats: int, quick: bool) -> dict:
    from test_scheduler_differential import ReferenceScheduler

    spec = _bench_scenario("bench-des-shared-queue-deep",
                           n_tasks=200 if quick else 600,
                           n_hosts=4).evolve(**{"storage.mode": "nfs"})
    _, cur, times = _against_reference(
        build_workload(spec), repeats, "current scheduler",
        GreedyScheduler=ReferenceScheduler)
    return {
        "n_tasks": spec.workload.n_tasks,
        "n_hosts": spec.execution.n_hosts,
        "storage": spec.storage.mode,
        "peak_queue_length": int(cur.extra["peak_queue_length"]),
        "n_events": int(cur.extra["n_events"]),
        "reference_s": round(times["ref"], 4),
        "current_s": round(times["cur"], 4),
        "speedup": round(times["ref"] / times["cur"], 2),
        "digest_equal": True,
    }


def bench_executor(repeats: int, quick: bool) -> dict:
    from test_executor_differential import ReferenceExecutor

    spec = get_scenario("exp-baseline-local").evolve(
        **{"workload.n_tasks": 500 if quick else 2000})
    ref, cur, times = _against_reference(
        build_workload(spec), repeats, "current executor",
        TaskExecutor=ReferenceExecutor)
    return {
        "scenario": spec.name,
        "n_tasks": spec.workload.n_tasks,
        "storage": spec.storage.mode,
        "n_events_reference": int(ref.extra["n_events"]),
        "n_events": int(cur.extra["n_events"]),
        "reference_s": round(times["ref"], 4),
        "current_s": round(times["cur"], 4),
        "speedup": round(times["ref"] / times["cur"], 2),
        "digest_equal": True,
    }


#: the ``des-contended`` op shapes: label -> (scenario, overrides)
CONTENDED_OPS = {
    "storage-nfs-contended": ("storage-nfs-contended",
                              {"workload.n_tasks": 600}),
    "host-crashes-shared": ("host-crashes-shared", {"workload.n_tasks": 500}),
    "host-crashes-local-wipe": ("host-crashes-local-wipe",
                                {"workload.n_tasks": 500}),
    "storage-auto-selection": ("storage-auto-selection",
                               {"workload.n_tasks": 600}),
    "storage-dmnfs": ("storage-dmnfs", {"workload.n_tasks": 400}),
    "storage-nfs-contended-young": ("storage-nfs-contended",
                                    {"workload.n_tasks": 600,
                                     "policy.name": "young"}),
}


def bench_contended(repeats: int, quick: bool) -> dict:
    from test_executor_differential import ReferenceExecutor

    out = {}
    for label, (name, overrides) in CONTENDED_OPS.items():
        if quick:
            overrides = {**overrides, "workload.n_tasks": 100}
        spec = get_scenario(name).evolve(**overrides)
        ref, cur, times = _against_reference(
            build_workload(spec), repeats, f"{label}: current executor",
            TaskExecutor=ReferenceExecutor)
        out[label] = {
            "n_tasks": spec.workload.n_tasks,
            "storage": spec.storage.mode,
            "host_mtbf": spec.failures.host_mtbf,
            "peak_queue_length": int(cur.extra["peak_queue_length"]),
            "n_events_reference": int(ref.extra["n_events"]),
            "n_events": int(cur.extra["n_events"]),
            "reference_s": round(times["ref"], 4),
            "current_s": round(times["cur"], 4),
            "speedup": round(times["ref"] / times["cur"], 2),
            "digest_equal": True,
        }
    t_ref = sum(row["reference_s"] for row in out.values())
    t_cur = sum(row["current_s"] for row in out.values())
    out["total"] = {
        "reference_s": round(t_ref, 4),
        "current_s": round(t_cur, 4),
        "speedup": round(t_ref / t_cur, 2),
        "cpu_count": os.cpu_count(),
    }
    return out


# ----------------------------------------------------------------------
# DES-tier sharding.
# ----------------------------------------------------------------------
def _bench_scenario(name: str, n_tasks: int, n_hosts: int) -> RunSpec:
    return RunSpec(
        name=name,
        description="DES benchmark scenario (not registered)",
        tags=("bench",),
        workload=WorkloadSpec(n_tasks=n_tasks),
        failures=FailureSpec(laws=(
            FailureLawSpec(priority=5, family="exponential", mean=600.0),
        )),
        storage=StorageSpec(mode="local"),
        execution=ExecutionSpec(tier="des", n_hosts=n_hosts,
                                vms_per_host=7),
    )


def _sharded_vs_unsharded(workload, repeats: int, workers=(1, 2, 4)) -> dict:
    """Time one workload unsharded and sharded at each worker count,
    interleaved, asserting digest worker-invariance and per-task
    alignment."""
    un = run_des_unsharded(workload)
    runs = {w: run_des_sharded(workload, workers=w) for w in workers}
    assert len({r.digest for r in runs.values()}) == 1, \
        "sharded digests differ across workers!"
    sharded = runs[workers[0]]
    aligned = (
        np.array_equal(un.n_failures, sharded.n_failures)
        and np.array_equal(un.completed, sharded.completed)
        and np.allclose(un.wallclock, sharded.wallclock,
                        rtol=1e-7, atol=1e-5, equal_nan=True)
    )
    assert aligned, f"{workload.spec.name}: sharded != unsharded per task!"
    times = _best_of_interleaved(repeats, {
        "unsharded": lambda: run_des_unsharded(workload),
        **{str(w): lambda w=w: run_des_sharded(workload, workers=w)
           for w in workers},
    })
    t_un = times["unsharded"]
    by_workers = {str(w): round(times[str(w)], 4) for w in workers}
    out = {
        "n_tasks": workload.n_tasks,
        "n_shards": int(sharded.extra["n_shards"]),
        "unsharded_s": round(t_un, 4),
        "sharded_s_by_workers": by_workers,
    }
    for w in workers:
        out[f"speedup_w{w}_vs_unsharded"] = round(t_un / by_workers[str(w)], 2)
    out["digest_worker_invariant"] = True
    out["per_task_aligned_with_unsharded"] = True
    return out


def bench_sharding(repeats: int, quick: bool) -> dict:
    shapes = {
        "queue-deep": _bench_scenario(
            "bench-des-queue-deep",
            n_tasks=200 if quick else 600,
            n_hosts=16,
        ),
        "capacity-matched": _bench_scenario(
            "bench-des-capacity-matched",
            n_tasks=150 if quick else 200,
            n_hosts=32,
        ),
    }
    out = {}
    for label, spec in shapes.items():
        row = _sharded_vs_unsharded(build_workload(spec), repeats)
        out[label] = {"n_hosts": spec.execution.n_hosts, **row}
    return out


#: contention-free op specs of realistic size: (scenario, overrides)
SHARDING_OPS = (
    ("exp-baseline-local", {"workload.n_tasks": 2000}),
    ("bursty-arrivals", {"workload.n_tasks": 2000}),
    ("hetero-hosts", {"workload.n_tasks": 2000}),
    ("steady-arrivals", {"workload.n_tasks": 2000}),
    ("google-trace-steady", {"workload.trace_jobs": 300}),
    ("google-trace-bursty", {"workload.trace_jobs": 300}),
)


def bench_sharding_ops(repeats: int, quick: bool) -> dict:
    out = {}
    for name, overrides in SHARDING_OPS[:2] if quick else SHARDING_OPS:
        spec = get_scenario(name).evolve(**overrides)
        out[name] = _sharded_vs_unsharded(
            build_workload(spec), repeats, workers=(1, 2))
    return out


#: section name -> ``bench(repeats, quick)``, in payload order
SECTIONS = {
    "event_loop": lambda repeats, quick: bench_event_loop(repeats),
    "scheduler": bench_scheduler,
    "executor": bench_executor,
    "contended": bench_contended,
    "sharding": bench_sharding,
    "sharding_ops": bench_sharding_ops,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_des.json")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--quick", action="store_true",
                        help="smaller scheduler and sharding shapes")
    parser.add_argument("--only", nargs="+", choices=sorted(SECTIONS),
                        help="re-record these sections, keep the rest "
                             "of --out")
    args = parser.parse_args(argv)

    payload = {
        "benchmark": "des-tier-engine-scheduler-and-sharding",
        "version": __version__,
        "repeats": args.repeats,
        "quick": args.quick,
        "host": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
        },
    }
    out = Path(args.out)
    kept = json.loads(out.read_text()) if args.only and out.exists() else {}
    for name, bench in SECTIONS.items():
        if args.only is None or name in args.only:
            payload[name] = bench(args.repeats, args.quick)
        elif name in kept:
            payload[name] = kept[name]
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(json.dumps(payload, indent=2))
    print(f"[written to {args.out}]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
