"""Record the Monte-Carlo hot-path and sweep-runner perf trajectory.

Times the blocked Monte-Carlo kernel
(:func:`repro.core.simulate.simulate_tasks_blocked`) and the sharded
parallel runner on ≥100k-task batches, verifies the sharded digests
are worker-count invariant, times the straggler tail of the
``replay-campaign`` redraw kernels against the vendored round loop
(``reference_round_loop`` in ``tests/test_span_scan_differential.py``)
and against their draw floor,
times one campaign round's cells and its wall on a 2-worker pool in grid
order and under the sweep runner's cost-ordered dispatch, times a
10k-task workload build with and without the DES tier's trace,
times the scalar tier against its vendored per-task loop
(``reference_run_scalar`` in ``tests/test_scalar_tier.py``), times
cached ``api.run`` hits stage by stage, and
writes the result as ``BENCH_parallel.json`` — the committed perf
record the CI benchmark smoke job extends on every push.

Usage::

    PYTHONPATH=src python benchmarks/run_parallel_bench.py [--out PATH]
        [--n-tasks N] [--repeats K] [--only SECTION ...]

``--only`` re-records the named sections and keeps every other section
of the existing ``--out`` file; into a new file it records the named
sections alone.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

from repro._version import __version__
from repro.core import simulate
from repro.core.simulate import SimulationResult, simulate_tasks_blocked
from repro.failures.distributions import Exponential, Pareto
from repro.experiments.common import evaluate_policy, policy_run_spec
from repro.parallel import simulate_tasks_sharded
from repro.parallel.sweep import run_specs


def _best_of(repeats, fn):
    times = []
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    return min(times), result


def bench_hot_path(n_tasks: int, repeats: int) -> dict:
    """Blocked vs sharded on catalog- and per-task-law batches."""
    rng = np.random.default_rng(0)
    te = rng.uniform(100, 2000, n_tasks)
    x = np.maximum(1, (np.sqrt(te) / 3).astype(np.int64))
    c = rng.uniform(0.1, 2.0, n_tasks)
    r = rng.uniform(0.5, 3.0, n_tasks)

    workloads = {
        # The evaluate_policy redraw shape: one law per priority group.
        "catalog-2-laws": (
            {0: Exponential(1 / 300.0), 1: Pareto(100.0, 1.3)},
            np.arange(n_tasks) % 2,
        ),
        # The trace-driven verify shape: one law per task (frailty).
        "per-task-laws": (
            {i: Exponential(1.0 / s)
             for i, s in enumerate(rng.uniform(100, 1000, 2000))},
            np.arange(n_tasks) % 2000,
        ),
    }
    out = {}
    for name, (dists, ids) in workloads.items():
        t_blk, res_blk = _best_of(repeats, lambda: simulate_tasks_blocked(
            te, x, c, r, ids, dists, np.random.default_rng(1)))
        sharded = {}
        digests = set()
        for w in (1, 2, 4):
            t_sh, res_sh = _best_of(repeats, lambda: simulate_tasks_sharded(
                te, x, c, r, ids, dists, seed=42, workers=w))
            sharded[str(w)] = round(t_sh, 4)
            digests.add(res_sh.digest())
        assert len(digests) == 1, "sharded digests differ across workers!"
        out[name] = {
            "blocked_fast_path_s": round(t_blk, 4),
            "sharded_s_by_workers": sharded,
            "sharded_digest_worker_invariant": True,
            "mean_failures": round(res_blk.summary()["mean_failures"], 3),
            "blocked_mean_wallclock": round(
                res_blk.summary()["mean_wallclock"], 3),
        }
    return out


def bench_autotune(n_tasks: int, repeats: int) -> dict:
    """The chunk-size tradeoff behind ``auto_chunk_size``.

    Per-task-law batches pay the per-block law regrouping once per
    chunk, so large chunks win; catalog batches are insensitive.  The
    measured grid is the calibration record for
    :func:`repro.parallel.runner.auto_chunk_size` (law-heavy batches
    cap at AUTO_MIN_CHUNKS chunks).
    """
    from repro.parallel.runner import (
        AUTO_MIN_CHUNKS,
        DEFAULT_CHUNK_SIZE,
        auto_chunk_size,
    )

    rng = np.random.default_rng(0)
    te = rng.uniform(100, 2000, n_tasks)
    x = np.maximum(1, (np.sqrt(te) / 3).astype(np.int64))
    c = rng.uniform(0.1, 2.0, n_tasks)
    r = rng.uniform(0.5, 3.0, n_tasks)
    dists = {i: Exponential(1.0 / s)
             for i, s in enumerate(rng.uniform(100, 1000, 2000))}
    ids = np.arange(n_tasks) % 2000

    sizes = sorted({DEFAULT_CHUNK_SIZE, -(-n_tasks // 4),
                    -(-n_tasks // 2), n_tasks})
    by_chunk = {}
    for cs in sizes:
        t, _ = _best_of(repeats, lambda cs=cs: simulate_tasks_sharded(
            te, x, c, r, ids, dists, seed=42, workers=1, chunk_size=cs))
        by_chunk[str(cs)] = round(t, 4)
    auto = auto_chunk_size(n_tasks, len(dists))
    t_auto, _ = _best_of(repeats, lambda: simulate_tasks_sharded(
        te, x, c, r, ids, dists, seed=42, workers=1))
    return {
        "workload": f"per-task-laws ({len(dists)} laws, {n_tasks} tasks)",
        "serial_s_by_chunk_size": by_chunk,
        "auto_chunk_size": auto,
        "auto_min_chunks": AUTO_MIN_CHUNKS,
        "auto_s": round(t_auto, 4),
    }


def bench_sweep(repeats: int) -> dict:
    """A small policy × storage grid through the sweep runner.

    Small grids fall below SERIAL_FALLBACK_COST and run serially even
    at workers=2 (the motivating pathology: pool dispatch used to make
    them *slower* than serial).
    """
    from repro.parallel.sweep import SERIAL_FALLBACK_COST, estimate_spec_cost

    points = [
        policy_run_spec(policy, storage=storage, n_jobs=300, trace_seed=0,
                        estimation="oracle",
                        name=f"sweep-{policy}-{storage}-j300-t0")
        for policy in ("optimal", "young")
        for storage in ("auto", "local")
    ]
    t_serial, rep1 = _best_of(repeats, lambda: run_specs(points, workers=1))
    t_pool, rep2 = _best_of(repeats, lambda: run_specs(points, workers=2))
    d1 = [p["digest"] for p in rep1["points"]]
    d2 = [p["digest"] for p in rep2["points"]]
    assert d1 == d2, "sweep digests differ across workers!"
    return {
        "grid": "2 policies x 2 storage x 300 jobs",
        "n_points": len(points),
        "estimated_cost": round(sum(estimate_spec_cost(p) for p in points)),
        "serial_fallback_threshold": SERIAL_FALLBACK_COST,
        "serial_s": round(t_serial, 4),
        "workers2_s": round(t_pool, 4),
        "workers2_effective": rep2["workers_effective"],
        "digests_worker_invariant": True,
    }


#: The ``replay-campaign`` redraw cells (e2ebench, ``--seed 1``): a
#: 1000-job history trace, both estimations, base seeds 1001/1002.
CAMPAIGN_POLICIES = ("optimal", "young", "daly", "none")
CAMPAIGN_STORAGES = ("auto", "local", "shared")
CAMPAIGN_ESTIMATIONS = ("priority", "oracle")
CAMPAIGN_SEEDS = (1001, 1002)


def _campaign_redraw_kernels() -> list[tuple[str, tuple, dict, dict]]:
    """Record the scaled-kernel calls of the 48 campaign redraw cells:
    ``(policy, args, kwargs, generator state)`` per call."""
    calls = []
    real = simulate.simulate_tasks_scaled

    def record(*args, rng, **kwargs):
        calls.append((policy, args, kwargs, rng.bit_generator.state))
        return real(*args, rng=rng, **kwargs)

    simulate.simulate_tasks_scaled = record
    try:
        for seed in CAMPAIGN_SEEDS:
            for estimation in CAMPAIGN_ESTIMATIONS:
                for policy in CAMPAIGN_POLICIES:
                    for storage in CAMPAIGN_STORAGES:
                        evaluate_policy(policy_run_spec(
                            policy, storage=storage, n_jobs=1000,
                            trace_seed=2013, estimation=estimation,
                            failure_mode="redraw", seed=seed))
    finally:
        simulate.simulate_tasks_scaled = real
    return calls


def _none_lane_groups(calls) -> list[tuple[tuple, dict, object]]:
    """The ``none`` calls as the lane groups the sweep runner forms:
    per (base seed, estimation), its three storage cells as one call
    with a restart-cost column per cell.  Returns ``(args, kwargs,
    generator state)`` per group."""
    none = [call for call in calls if call[0] == "none"]
    n_lanes = len(CAMPAIGN_STORAGES)
    groups = []
    for i in range(0, len(none), n_lanes):
        members = none[i:i + n_lanes]
        te, x, c, _, scales = members[0][1]
        for _, args, kwargs, state in members:
            assert state == members[0][3] and kwargs == members[0][2]
            assert all(np.array_equal(a, b) for a, b in
                       zip((te, x, scales), (args[0], args[1], args[4])))
        charges = np.column_stack([args[3] for _, args, _, _ in members])
        groups.append(((te, x, c, charges, scales), members[0][2],
                       members[0][3]))
    return groups


def bench_redraw_tail(repeats: int) -> dict:
    """The campaign's redraw kernels on the span scan, on the vendored
    round loop it replaced (same uptime sources), and against their
    draw floor; and the ``none`` kernels as lane groups.

    The straggler tail — a few tasks stepped through up to
    ``max_segments`` failures — is where the campaign's kernel time
    goes; seconds are summed per policy over its 12 cells.  The draw
    floor is ``standard_exponential`` alone, called with the shapes the
    span scan draws (rewinds included), in this process: what a kernel
    would cost if scanning its spans were free.  The 12 ``none`` calls
    differ only in their restart charges within each (base seed,
    estimation), so they also run as 4 calls of three lanes, as the
    sweep runner groups them; each lane's digest must equal its own
    call's.  The lane groups draw a third of what the 12 calls draw, so
    their own draw floor replays the groups' logged shapes
    (``none_lanes_over_own_draw_floor``);
    ``none_lanes_over_draw_floor`` divides by the 12 calls' floor.
    """
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
    from test_span_scan_differential import record_draws, reference_round_loop

    calls = _campaign_redraw_kernels()
    span_core = simulate._simulate_blocked_core

    def run_all(core):
        simulate._simulate_blocked_core = core
        try:
            out = []
            for policy, args, kwargs, state in calls:
                rng = np.random.default_rng()
                rng.bit_generator.state = state
                t0 = time.perf_counter()
                res = simulate.simulate_tasks_scaled(*args, rng=rng, **kwargs)
                out.append((policy, time.perf_counter() - t0, res))
            return out
        finally:
            simulate._simulate_blocked_core = span_core

    def draw_shapes(args, kwargs, state) -> list:
        """The ``(rows, columns, C-ordered)`` of every draw of one call."""
        log = []
        simulate._simulate_blocked_core = record_draws(span_core, log)
        try:
            rng = np.random.default_rng()
            rng.bit_generator.state = state
            simulate.simulate_tasks_scaled(*args, rng=rng, **kwargs)
        finally:
            simulate._simulate_blocked_core = span_core
        return log

    shapes = [draw_shapes(*call[1:]) for call in calls]

    def replay_draws(runs):
        """``standard_exponential`` alone, with each run's logged
        shapes: ``(policy, generator state, shapes)`` per run."""
        out = []
        for policy, state, log in runs:
            rng = np.random.default_rng()
            rng.bit_generator.state = state
            t0 = time.perf_counter()
            for k, m, _ in log:
                rng.standard_exponential((k, m))
            out.append((policy, time.perf_counter() - t0, None))
        return out

    groups = _none_lane_groups(calls)
    group_shapes = [draw_shapes(*group) for group in groups]

    def draw_floor():
        return replay_draws([(policy, state, log) for (policy, _, _, state),
                             log in zip(calls, shapes)])

    def lanes_floor():
        return replay_draws([("none", state, log) for (_, _, state), log
                             in zip(groups, group_shapes)])

    def lanes():
        out = []
        for args, kwargs, state in groups:
            rng = np.random.default_rng()
            rng.bit_generator.state = state
            t0 = time.perf_counter()
            res = simulate.simulate_tasks_scaled(*args, rng=rng, **kwargs)
            out.append(("none", time.perf_counter() - t0, res))
        return out

    best = {}
    for _ in range(repeats):
        for name, run in (("span_scan", lambda: run_all(span_core)),
                          ("lanes", lanes),
                          ("draw_floor", draw_floor),
                          ("lanes_floor", lanes_floor),
                          ("round_loop",
                           lambda: run_all(reference_round_loop))):
            runs = run()
            by_policy = {p: 0.0 for p in CAMPAIGN_POLICIES}
            for policy, t, _ in runs:
                by_policy[policy] += t
            prev = best.get(name)
            if prev is None or sum(by_policy.values()) < prev[0]:
                best[name] = (sum(by_policy.values()), by_policy, runs)
    span, loop, floor, grouped, grouped_floor = (
        best[name] for name in ("span_scan", "round_loop", "draw_floor",
                                "lanes", "lanes_floor"))
    digests = {name: [res.digest() for _, _, res in best[name][2]]
               for name in ("span_scan", "round_loop")}
    lane_digests = []
    for _, _, res in grouped[2]:
        n = res.te.size // len(CAMPAIGN_STORAGES)
        lane_digests += [
            SimulationResult(*(getattr(res, f.name)[i * n:(i + 1) * n]
                               for f in dataclasses.fields(res))).digest()
            for i in range(len(CAMPAIGN_STORAGES))]
    none_digests = [d for (policy, _, _), d in zip(span[2],
                                                   digests["span_scan"])
                    if policy == "none"]
    return {
        "workload": (f"{len(calls)} simulate_tasks_scaled calls of the "
                     "replay-campaign redraw cells (4 policies x 3 storage "
                     "x 2 estimations x seeds 1001/1002, 1000-job trace)"),
        "span_scan_s": round(span[0], 4),
        "round_loop_s": round(loop[0], 4),
        "speedup": round(loop[0] / span[0], 2),
        "draw_floor_s": round(floor[0], 4),
        "span_scan_over_draw_floor": round(span[0] / floor[0], 2),
        "span_scan_s_by_policy": {p: round(t, 4) for p, t in span[1].items()},
        "round_loop_s_by_policy": {p: round(t, 4) for p, t in loop[1].items()},
        "draw_floor_s_by_policy": {p: round(t, 4)
                                   for p, t in floor[1].items()},
        "span_scan_over_draw_floor_by_policy": {
            p: round(span[1][p] / floor[1][p], 2) for p in CAMPAIGN_POLICIES},
        "draw_calls": sum(len(log) for log in shapes),
        "uptimes_drawn": sum(k * m for log in shapes for k, m, _ in log),
        "simulated_failures": sum(int(res.n_failures.sum())
                                  for _, _, res in span[2]),
        "digests_identical": digests["span_scan"] == digests["round_loop"],
        "none_lane_groups": len(groups),
        "none_lanes_s": round(grouped[0], 4),
        "none_lanes_speedup": round(span[1]["none"] / grouped[0], 2),
        "none_lanes_over_draw_floor": round(
            grouped[0] / floor[1]["none"], 2),
        "none_lanes_own_draw_floor_s": round(grouped_floor[0], 4),
        "none_lanes_over_own_draw_floor": round(
            grouped[0] / grouped_floor[0], 2),
        "none_lanes_draw_calls": sum(len(log) for log in group_shapes),
        "cpu_count": os.cpu_count(),
        "repeats": repeats,
        "lanes_digests_identical": lane_digests == none_digests,
    }


def bench_campaign_dispatch(repeats: int) -> dict:
    """Per-cell walls of one 24-cell ``replay-campaign`` round and its
    wall on a 2-worker pool under two schedules.

    The median cell wall per (failure mode, policy), serial with warm
    trace caches, is where the redraw weights of
    :func:`~repro.parallel.sweep.estimate_spec_cost` come from.  The
    pool then runs the whole campaign in grid order with ``Pool.map``'s
    default chunking (the schedule equal cell costs gave) and through
    :func:`~repro.parallel.sweep.run_specs` (longest first, one job per
    request, the ``none`` redraw cells one lane group); both take the
    median of ``repeats`` alternating runs.
    """
    import statistics

    from repro import api
    from repro.parallel.runner import get_pool, shutdown_pool
    from repro.parallel.sweep import _run_spec_cells, estimate_spec_cost

    cells = [
        policy_run_spec(policy, storage=storage, n_jobs=1000,
                        trace_seed=2013, estimation="priority",
                        failure_mode=mode, seed=CAMPAIGN_SEEDS[0])
        for policy in CAMPAIGN_POLICIES
        for storage in CAMPAIGN_STORAGES
        for mode in ("replay", "redraw")
    ]
    walls: dict[tuple[str, str], list[float]] = {}
    for rep in range(repeats + 1):  # the first pass fills the caches
        for spec in cells:
            t0 = time.perf_counter()
            api.run(spec)
            if rep:
                walls.setdefault((spec.failures.mode, spec.policy.name),
                                 []).append(time.perf_counter() - t0)

    shutdown_pool()
    pool = get_pool(2)  # forked now, so the workers start warm
    jobs = [([spec.to_dict()], None) for spec in cells]
    grid_s, dispatch_s = [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        grid = [c for job in pool.map(_run_spec_cells, jobs) for c in job]
        grid_s.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        report = run_specs(cells, workers=2)
        dispatch_s.append(time.perf_counter() - t0)
    shutdown_pool()
    assert ([c["digest"] for c in grid]
            == [c["digest"] for c in report["points"]]), \
        "campaign digests depend on the schedule!"
    cost = {(spec.failures.mode, spec.policy.name): estimate_spec_cost(spec)
            for spec in cells}
    grid_med = statistics.median(grid_s)
    dispatch_med = statistics.median(dispatch_s)
    return {
        "workload": ("one replay-campaign round: 4 policies x 3 storage x "
                     "2 failure modes, priority estimation, base seed "
                     f"{CAMPAIGN_SEEDS[0]}, 1000-job trace"),
        "median_cell_ms": {
            mode: {p: round(1e3 * statistics.median(walls[mode, p]), 2)
                   for p in CAMPAIGN_POLICIES}
            for mode in ("replay", "redraw")},
        "estimated_cost": {
            mode: {p: cost[mode, p] for p in CAMPAIGN_POLICIES}
            for mode in ("replay", "redraw")},
        "serial_s": round(sum(sum(v) for v in walls.values()) / repeats, 4),
        "workers2_grid_order_s": round(grid_med, 4),
        "workers2_dispatch_s": round(dispatch_med, 4),
        "workers2_effective": report["workers_effective"],
        "speedup": round(grid_med / dispatch_med, 2),
        "digests_identical": True,
    }


def bench_workload_build(repeats: int) -> dict:
    """``build_workload`` on a 10k-task spec, with and without the
    DES tier's per-task trace, and one vector-tier ``api.run`` of it.

    ``Workload.trace`` is built on first access, so only the DES tier
    pays for the ``Task``/``Job`` objects; ``build_plus_trace_s`` is
    what every tier paid when the build made them eagerly.
    """
    from repro import api
    from repro.verify.scenarios import build_workload, get_scenario

    n_tasks = 10_000
    spec = get_scenario("exp-per-priority-spread").evolve(
        **{"workload.n_tasks": n_tasks})
    vector = spec.evolve(**{"execution.tier": "vector"})
    t_build, _ = _best_of(repeats, lambda: build_workload(spec))
    t_trace, trace = _best_of(repeats, lambda: build_workload(spec).trace)
    t_vector, _ = _best_of(repeats, lambda: api.run(vector))
    assert trace.n_tasks == n_tasks
    return {
        "workload": f"exp-per-priority-spread, {n_tasks} tasks",
        "build_s": round(t_build, 4),
        "build_plus_trace_s": round(t_trace, 4),
        "build_us_per_task": round(1e6 * t_build / n_tasks, 2),
        "trace_us_per_task": round(1e6 * (t_trace - t_build) / n_tasks, 2),
        "vector_api_run_s": round(t_vector, 4),
    }


def bench_scalar_tier(repeats: int) -> dict:
    """The scalar tier on a 10k-task workload against the per-task loop
    it replaced (``reference_run_scalar`` in
    ``tests/test_scalar_tier.py``: one ``default_rng((seed, i))`` and
    one ``simulate_task`` per task), split into stages.

    ``stages_us_per_task`` times the tier's first two stages on their
    own, chunk by chunk as ``run_scalar`` runs them: ``seed_batch``
    (:func:`~repro.failures.streams.task_stream_states`) and
    ``seek_draw`` (one :func:`~repro.failures.streams.seek` and one
    ``_ROUNDS``-draw ``sample`` per batch-law task).  ``round_loop`` is
    the rest of ``run_scalar_us_per_task``: the batch round loop and
    the per-task reruns.  ``seek_path`` names how :func:`seek` writes a
    state on this host: ``"state-words"`` straight into the generator,
    or ``"setter"`` through ``bit_generator.state``.
    """
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
    from test_scalar_tier import reference_run_scalar

    from repro.core.simulate import SimulationResult
    from repro.failures import streams
    from repro.verify import runner
    from repro.verify.scenarios import build_workload, get_scenario

    n_tasks = 10_000
    workload = build_workload(get_scenario("exp-per-priority-spread").evolve(
        **{"workload.n_tasks": n_tasks}))
    t_loop, (wall, fails, completed) = _best_of(
        repeats, lambda: reference_run_scalar(workload))
    t_tier, tier = _best_of(repeats, lambda: runner.run_scalar(workload))
    loop_digest = SimulationResult(
        te=workload.te, wallclock=wall, n_failures=fails,
        intervals=workload.intervals, completed=completed,
    ).digest()

    chunks = [np.arange(lo, min(lo + runner._CHUNK, n_tasks))
              for lo in range(0, n_tasks, runner._CHUNK)]
    t_seed, states = _best_of(repeats, lambda: [
        streams.task_stream_states(workload.seed, ids) for ids in chunks])
    laws = [[workload.distributions[d]
             for d in workload.dist_ids[ids].tolist()] for ids in chunks]
    rng = np.random.default_rng(0)

    def seek_draw():
        for chunk_states, chunk_laws in zip(states, laws):
            for row, law in zip(chunk_states, chunk_laws):
                if type(law) in streams._BATCH_LAWS:
                    streams.seek(rng, row)
                    law.sample(rng, streams._ROUNDS)

    t_seek, _ = _best_of(repeats, seek_draw)

    def us(seconds: float) -> float:
        return round(1e6 * seconds / n_tasks, 2)

    return {
        "workload": f"exp-per-priority-spread, {n_tasks} tasks",
        "cpu_count": os.cpu_count(),
        "seek_path": "state-words" if streams._direct_seek() else "setter",
        "per_task_loop_us_per_task": us(t_loop),
        "run_scalar_us_per_task": us(t_tier),
        "stages_us_per_task": {
            "seed_batch": us(t_seed),
            "seek_draw": us(t_seek),
            "round_loop": us(t_tier - t_seed - t_seek),
        },
        "speedup": round(t_loop / t_tier, 2),
        "digests_identical": tier.digest == loop_digest,
    }


#: (scenario, tier) of the store-hit specs; two replay cells join them
STORE_HIT_SCENARIOS = (
    ("exp-per-priority-spread", "scalar"),
    ("policy-young", "vector"),
    ("storage-nfs-contended", "des"),
    ("host-crashes-local-wipe", "des"),
)


def bench_store_hit(repeats: int) -> dict:
    """Cached ``api.run(spec, store=...)`` hits, whole (``hit_us``) and
    split into the spec digest and ``store.get`` (read, parse, checks,
    the snapshot's hash against the key); apart from the hit, which
    leaves the snapshot unparsed, the first read of a hit's ``spec``
    (``spec_us``, the snapshot's parse).

    ``held`` calls on the spec object that computed the record, whose
    digest is memoised after the first call; ``fresh`` calls on a new
    equal spec object each time (built by ``evolve``), which derives
    it again.  Each figure is a per-call mean over six specs, from the
    best of ``repeats`` rounds of 300 calls per spec.
    ``hits_identical`` checks every spec's held and fresh hit against
    its cold digest and against the record's snapshot parsed
    directly: the hit's ``spec`` (which its read parses), ``summary``
    and ``extra``.
    """
    import tempfile

    from repro import api
    from repro.spec import RunSpec
    from repro.store import ResultStore

    specs = [api.scenario_spec(name, tier=tier)
             for name, tier in STORE_HIT_SCENARIOS]
    specs += [policy_run_spec("optimal", n_jobs=200, trace_seed=0),
              policy_run_spec("none", n_jobs=200, trace_seed=0,
                              failure_mode="redraw")]
    n_calls = 300
    with tempfile.TemporaryDirectory() as root:
        store = ResultStore(root)
        cold = [api.run(spec, store=store).digest for spec in specs]
        identical = True
        for spec, digest in zip(specs, cold):
            record = store.get(spec.spec_digest())
            want = RunSpec.from_dict(record.spec)
            for caller in (spec, spec.evolve()):
                hit = api.run(caller, store=store)
                identical &= (hit.cached and hit.digest == digest
                              and hit.spec == want
                              and hit.spec.to_json() == want.to_json()
                              and hit.summary == record.summary
                              and hit.extra == record.extra)

        def best_round(fresh: bool) -> dict:
            """Per-call means of the best of ``repeats`` rounds: whole
            hits, their first ``spec`` reads, then the same calls stage
            by stage."""
            stages = ("hit_us", "digest_us", "get_us", "spec_us")
            best = dict.fromkeys(stages, float("inf"))
            for _ in range(repeats):
                calls = [s.evolve() if fresh else s for s in specs
                         for _ in range(n_calls)]
                took = dict.fromkeys(stages, 0.0)
                t0 = time.perf_counter()
                hits = [api.run(spec, store=store) for spec in calls]
                took["hit_us"] = time.perf_counter() - t0
                for hit in hits:
                    t0 = time.perf_counter()
                    hit.spec
                    took["spec_us"] += time.perf_counter() - t0
                if fresh:
                    calls = [s.evolve() for s in calls]
                for spec in calls:
                    t0 = time.perf_counter()
                    digest = spec.spec_digest()
                    t1 = time.perf_counter()
                    store.get(digest, on_corrupt="miss")
                    t2 = time.perf_counter()
                    took["digest_us"] += t1 - t0
                    took["get_us"] += t2 - t1
                for key, value in took.items():
                    best[key] = min(best[key], value)
            return {k: round(1e6 * v / len(calls), 2)
                    for k, v in best.items()}

        held, fresh = best_round(False), best_round(True)
    return {
        "specs": [f"{s.name}@{s.execution.tier}" for s in specs],
        "calls_per_round": n_calls * len(specs),
        "held": held,
        "fresh": fresh,
        "hits_identical": bool(identical),
        "cpu_count": os.cpu_count(),
        "repeats": repeats,
    }


#: section name -> ``bench(args)``, in payload order
SECTIONS = {
    "hot_path": lambda a: bench_hot_path(a.n_tasks, a.repeats),
    "autotune": lambda a: bench_autotune(a.n_tasks, a.repeats),
    "sweep": lambda a: bench_sweep(a.repeats),
    "redraw_tail": lambda a: bench_redraw_tail(a.repeats),
    "campaign_dispatch": lambda a: bench_campaign_dispatch(a.repeats),
    "workload_build": lambda a: bench_workload_build(a.repeats),
    "scalar_tier": lambda a: bench_scalar_tier(a.repeats),
    "store_hit": lambda a: bench_store_hit(a.repeats),
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_parallel.json")
    parser.add_argument("--n-tasks", type=int, default=200_000)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--only", nargs="+", choices=sorted(SECTIONS),
                        help="re-record these sections, keep the rest "
                             "of --out")
    args = parser.parse_args(argv)

    payload = {
        "benchmark": "parallel-sweep-and-mc-hot-path",
        "version": __version__,
        "n_tasks": args.n_tasks,
        "repeats": args.repeats,
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
            payload[name] = bench(args)
        elif name in kept:
            payload[name] = kept[name]
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(json.dumps(payload, indent=2))
    print(f"[written to {args.out}]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
