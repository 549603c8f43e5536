"""The scalar tier's batch path equals its per-task reference loop.

:func:`repro.verify.runner.run_scalar` seeds every task's
``default_rng((seed, i))`` stream in a batch, draws each task's first
rounds in one ``sample`` call and runs them on the batch round loop,
rerunning survivors and non-batch laws per task.  That is exact only
if (a) one ``sample(rng, k)`` call equals ``k`` single draws for every
batch law, and (b) the batch round loop, the ``inf`` budget rows and
the reruns reproduce :func:`reference_run_scalar` — the per-task loop
the tier used to be, vendored here — for any round count and chunk
size.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.simulate import simulate_task
from repro.failures.distributions import (
    Distribution,
    Empirical,
    Exponential,
    Geometric,
    Laplace,
    LogNormal,
    Mixture,
    Normal,
    Pareto,
    Weibull,
)
from repro.failures.injector import FailureInjector
from repro.verify import runner
from repro.verify.scenarios import build_workload, get_scenario

#: ``(_ROUNDS, _CHUNK)`` pairs every differential case runs under
CONSTANTS = ((1, 7), (8, 1024))

LAWS = {
    "exponential": Exponential(1 / 300.0),
    "exponential-fast": Exponential(1 / 40.0),
    "pareto": Pareto(100.0, 1.3),
    "weibull": Weibull(0.7, 500.0),
    "lognormal": LogNormal(5.0, 1.0),
    "normal": Normal(500.0, 200.0),
    "laplace": Laplace(400.0, 150.0),
    "geometric-small-p": Geometric(0.01),
    "geometric-large-p": Geometric(0.3),
    "empirical": Empirical([30.0, 75.0, 200.0, 640.0, 2000.0]),
}
MIXTURE = Mixture([Exponential(1 / 120.0), Pareto(300.0, 1.5)], [0.7, 0.3])


def reference_run_scalar(workload):
    """The scalar tier as a per-task loop: one ``default_rng((seed, i))``
    and one :func:`simulate_task` per task."""
    n = workload.n_tasks
    wall = np.empty(n)
    fails = np.empty(n, dtype=np.int64)
    completed = np.empty(n, dtype=bool)
    for i in range(n):
        injector = FailureInjector(
            workload.distributions[int(workload.dist_ids[i])],
            np.random.default_rng((workload.seed, i)),
            max_failures=workload.cluster.max_failures_per_task,
        )
        out = simulate_task(
            te=float(workload.te[i]),
            intervals=int(workload.intervals[i]),
            checkpoint_cost=float(workload.checkpoint_cost[i]),
            restart_cost=float(workload.restart_cost[i]),
            injector=injector,
        )
        wall[i] = out.wallclock
        fails[i] = out.n_failures
        completed[i] = out.completed
    return wall, fails, completed


# -- (a) the law property ----------------------------------------------
def _block_and_singles(law, seed, k=8):
    block = law.sample(np.random.default_rng(seed), k)
    g = np.random.default_rng(seed)
    singles = np.concatenate([law.sample(g, 1) for _ in range(k)])
    return block, singles


def test_batch_laws_are_every_law_but_mixture():
    # A new law must be placed on one side of this line deliberately.
    assert set(runner._BATCH_LAWS) | {Mixture} == set(
        Distribution.__subclasses__())
    assert Mixture not in runner._BATCH_LAWS
    assert {type(law) for law in LAWS.values()} == set(runner._BATCH_LAWS)


@pytest.mark.parametrize("name", sorted(LAWS))
def test_block_sample_equals_single_draws(name):
    for seed in range(100):
        block, singles = _block_and_singles(LAWS[name], (seed, 17))
        np.testing.assert_array_equal(block, singles)


def test_mixture_block_sample_differs():
    # Mixture.sample draws every component choice first, so a block of
    # k draws is not k single draws: its tasks keep the per-task loop.
    for seed in range(20):
        block, singles = _block_and_singles(MIXTURE, (seed, 17))
        assert not np.array_equal(block, singles)


# -- (b) the differential against the per-task loop ---------------------
_BASE = build_workload(get_scenario("exp-baseline-local"))


def _workload(seed, budget, tasks, laws):
    n = len(tasks)
    te, x, c, r, law_ids = (np.array(col) for col in zip(*tasks))
    return dataclasses.replace(
        _BASE,
        seed=seed,
        te=te.astype(float),
        intervals=x.astype(np.int64),
        checkpoint_cost=c.astype(float),
        restart_cost=r.astype(float),
        dist_ids=law_ids.astype(np.int64) % len(laws),
        distributions=dict(enumerate(laws)),
        mem_mb=np.zeros(n),
        priority=np.zeros(n, dtype=np.int64),
        submit=np.zeros(n),
        cluster=dataclasses.replace(_BASE.cluster,
                                    max_failures_per_task=budget),
    )


def _assert_matches_reference(workload):
    want = reference_run_scalar(workload)
    for rounds, chunk in CONSTANTS:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(runner, "_ROUNDS", rounds)
            mp.setattr(runner, "_CHUNK", chunk)
            got = runner.run_scalar(workload)
        for have, ref in zip((got.wallclock, got.n_failures, got.completed),
                             want):
            np.testing.assert_array_equal(have, ref)


_task = st.tuples(
    st.floats(min_value=20.0, max_value=5000.0),   # te
    st.integers(min_value=1, max_value=30),        # intervals
    st.floats(min_value=0.0, max_value=30.0),      # checkpoint cost
    st.floats(min_value=0.0, max_value=30.0),      # restart cost
    st.integers(min_value=0, max_value=10),        # law index
)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    budget=st.sampled_from((1, 3, 10_000)),
    tasks=st.lists(_task, min_size=1, max_size=40),
    laws=st.lists(st.sampled_from([*LAWS.values(), MIXTURE]),
                  min_size=1, max_size=4),
)
def test_matches_per_task_loop(seed, budget, tasks, laws):
    _assert_matches_reference(_workload(seed, budget, tasks, laws))


@pytest.mark.parametrize("budget", (1, 3, 10_000))
def test_tasks_past_the_first_rounds(budget):
    # Uptimes far shorter than te: most tasks fail more than the
    # rounds drawn up front and are rerun per task.
    rng = np.random.default_rng(budget)
    tasks = [(float(rng.uniform(2000, 5000)), int(rng.integers(1, 20)),
              5.0, 10.0, i % 3) for i in range(300)]
    laws = [Exponential(1 / 150.0), MIXTURE, Weibull(0.7, 200.0)]
    workload = _workload(2013, budget, tasks, laws)
    _, fails, _ = reference_run_scalar(workload)
    assert (fails > 8).any() == (budget > 8)
    _assert_matches_reference(workload)


@pytest.mark.parametrize("name", ["exp-per-priority-spread",
                                  "exp-high-failure-rate",
                                  "mixture-body-tail",
                                  "google-trace-steady"])
def test_scenarios_match_per_task_loop(name):
    _assert_matches_reference(build_workload(get_scenario(name)))
