"""Microbenchmarks of the performance-critical kernels.

These are classic pytest-benchmark timings (multiple rounds) guarding
the throughput of the hot paths the guides call out: the vectorized
Monte-Carlo tier, the DES event loop, MLE fitting, and trace synthesis.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.simulate import simulate_tasks_blocked, simulate_tasks_replay
from repro.failures.distributions import Exponential, Pareto
from repro.failures.fitting import fit_all
from repro.parallel import simulate_tasks_sharded
from repro.sim.engine import Environment
from repro.trace.synthesizer import TraceConfig, synthesize_trace

N_TASKS = 50_000


@pytest.fixture(scope="module")
def batch():
    rng = np.random.default_rng(0)
    te = rng.uniform(100, 2000, N_TASKS)
    x = np.maximum(1, (np.sqrt(te) / 3).astype(np.int64))
    c = rng.uniform(0.1, 2.0, N_TASKS)
    r = rng.uniform(0.5, 3.0, N_TASKS)
    mat = np.full((N_TASKS, 4), np.inf)
    k = rng.integers(0, 5, N_TASKS)
    for col in range(4):
        rows = k > col
        mat[rows, col] = rng.uniform(10, 1000, int(rows.sum()))
    return te, x, c, r, mat


def test_mc_replay_throughput(benchmark, batch):
    """50k-task replay simulation (the Table 6 / Fig. 9 inner loop)."""
    te, x, c, r, mat = batch
    res = benchmark(lambda: simulate_tasks_replay(te, x, c, r, mat))
    assert res.completed.all()


def test_mc_blocked_redraw_throughput(benchmark, batch):
    """50k-task fresh-draw simulation through the blocked fast path
    (pre-drawn sample blocks + compacted working arrays)."""
    te, x, c, r, _ = batch
    dists = {0: Exponential(1 / 300.0), 1: Pareto(100.0, 1.3)}
    ids = (np.arange(N_TASKS) % 2)

    def run():
        return simulate_tasks_blocked(
            te, x, c, r, ids, dists, np.random.default_rng(1)
        )

    res = benchmark(run)
    assert res.n_tasks == N_TASKS


def test_mc_blocked_per_task_laws_throughput(benchmark, batch):
    """50k tasks over 2000 distinct interval laws — the trace-driven
    frailty shape where per-round regrouping dominates the reference
    implementation."""
    te, x, c, r, _ = batch
    rng = np.random.default_rng(9)
    dists = {i: Exponential(1.0 / s)
             for i, s in enumerate(rng.uniform(100, 1000, 2000))}
    ids = (np.arange(N_TASKS) % 2000)

    def run():
        return simulate_tasks_blocked(
            te, x, c, r, ids, dists, np.random.default_rng(1)
        )

    res = benchmark(run)
    assert res.n_tasks == N_TASKS


def test_mc_sharded_serial_throughput(benchmark, batch):
    """50k tasks through the sharded runner (serial fallback): the
    chunking + SeedSequence spawning + merge overhead on top of the
    blocked kernel."""
    te, x, c, r, _ = batch
    dists = {0: Exponential(1 / 300.0), 1: Pareto(100.0, 1.3)}
    ids = (np.arange(N_TASKS) % 2)

    def run():
        return simulate_tasks_sharded(
            te, x, c, r, ids, dists, seed=42, workers=1
        )

    res = benchmark(run)
    assert res.n_tasks == N_TASKS


def test_des_event_loop_throughput(benchmark):
    """1k processes x 100 timeouts through the event heap."""

    def run():
        env = Environment()

        def ticker():
            for _ in range(100):
                yield env.timeout(1.0)

        for _ in range(1000):
            env.process(ticker())
        env.run()
        return env.now

    assert benchmark(run) == 100.0


def test_des_event_loop_raw_wait_throughput(benchmark):
    """1k processes x 100 raw waits (``yield 1.0``) — the allocation-free
    path the cluster executor uses for its interval/overhead waits."""

    def run():
        env = Environment()

        def ticker():
            for _ in range(100):
                yield 1.0

        for _ in range(1000):
            env.process(ticker())
        env.run()
        return env.now

    assert benchmark(run) == 100.0


def test_mle_fitting_throughput(benchmark, rng=np.random.default_rng(3)):
    """Five-family MLE + KS ranking over 100k intervals (Fig. 5 kernel)."""
    data = Pareto(50.0, 1.2).sample(rng, 100_000)
    results = benchmark(lambda: fit_all(data))
    assert results[0].family == "pareto"


def test_trace_synthesis_throughput(benchmark):
    """2k-job Google-like trace generation."""
    trace = benchmark.pedantic(
        lambda: synthesize_trace(TraceConfig(n_jobs=2000), seed=5),
        rounds=1, iterations=1,
    )
    assert len(trace) == 2000
