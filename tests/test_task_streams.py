"""Batch-seeded per-task streams equal ``default_rng((seed, task_id))``.

The reference is NumPy's own ``default_rng`` at test time, so a NumPy
release that changes ``SeedSequence`` or PCG64 seeding fails here
instead of silently moving every scalar-tier and DES result.  The DES's
batch-seeded injector is held to a ``FailureInjector`` on that
generator, draw for draw.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.failures.distributions import (
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
from repro.failures.streams import (
    _BATCH_LAWS,
    _ROUNDS,
    BatchSeededInjector,
    stream_injector,
    task_stream_states,
)

SEEDS = (0, 1, 2**31 - 1, 2**32, 2**40 + 7)
#: batch-computed ids, including both ends of the uint32 word
IDS = (0, 1, 2, 1000, 2**31, 2**32 - 1)
#: ids of two or more entropy words: the ``default_rng`` fallback
FALLBACK_IDS = (2**32, 2**40 + 3)


def _generator(state_inc) -> np.random.Generator:
    g = np.random.default_rng()
    state, inc = state_inc
    g.bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }
    return g


def _assert_streams(seed, ids):
    states = task_stream_states(seed, ids)
    assert len(states) == len(ids)
    for task_id, state_inc in zip(ids, states):
        ref = np.random.default_rng((seed, task_id))
        assert state_inc == (ref.bit_generator.state["state"]["state"],
                             ref.bit_generator.state["state"]["inc"])
        g = _generator(state_inc)
        assert g.bit_generator.state == ref.bit_generator.state
        np.testing.assert_array_equal(
            [g.random() for _ in range(5)], [ref.random() for _ in range(5)]
        )


@pytest.mark.parametrize("seed", SEEDS)
def test_matches_default_rng(seed):
    _assert_streams(seed, list(IDS + FALLBACK_IDS))


@pytest.mark.parametrize("seed", SEEDS)
def test_array_ids(seed):
    ids = np.arange(300, dtype=np.int64)
    _assert_streams(seed, ids.tolist())
    assert task_stream_states(seed, ids) == task_stream_states(
        seed, ids.tolist())


def test_numpy_integer_seed_and_unsigned_ids():
    ids = np.array([0, 7, 2**32 - 1], dtype=np.uint64)
    assert task_stream_states(np.int64(99), ids) == task_stream_states(
        99, [0, 7, 2**32 - 1])
    _assert_streams(99, ids.tolist())


def test_seed_longer_than_the_pool():
    # Entropy past the 4-word pool goes through the second mixing pass.
    _assert_streams(2**100 + 9, [0, 5, 2**32 - 1])


def test_empty_ids():
    assert task_stream_states(3, np.arange(0)) == []


def test_invalid_values_raise_like_default_rng():
    with pytest.raises(ValueError):
        task_stream_states(-1, [0])
    with pytest.raises(ValueError):
        task_stream_states(0, [-1])


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**70),
    ids=st.lists(st.integers(min_value=0, max_value=2**33), min_size=1,
                 max_size=8),
)
def test_hypothesis_seeds(seed, ids):
    _assert_streams(seed, ids)


#: one instance of every batch law
LAWS = (
    Empirical([3.0, 40.0, 41.5, 900.0, 12.0]),
    Exponential(1.0 / 600.0),
    Geometric(0.01),
    Laplace(500.0, 200.0),
    LogNormal(5.0, 1.5),
    Normal(300.0, 250.0),
    Pareto(10.0, 1.3),
    Weibull(0.7, 800.0),
)
#: draws per injector: past the batch, and past a reset
N_DRAWS = 3 * _ROUNDS


def test_every_batch_law_is_covered():
    assert {type(law) for law in LAWS} == set(_BATCH_LAWS)


@pytest.mark.parametrize("law", LAWS, ids=lambda law: type(law).__name__)
@pytest.mark.parametrize("max_failures", [0, 3, 8, None])
@pytest.mark.parametrize("seed,task_id", [(0, 0), (7, 1234), (2**40 + 7, 5),
                                          (3, FALLBACK_IDS[0]),
                                          (0, FALLBACK_IDS[1])])
def test_batch_seeded_injector_matches_failure_injector(
        law, max_failures, seed, task_id):
    # Another task's injector draws from the shared generator in between.
    state, other = task_stream_states(seed, [task_id, 99])
    shared = np.random.default_rng()
    injector = stream_injector(law, shared, state, seed, task_id,
                               max_failures)
    neighbour = stream_injector(law, shared, other, seed, 99)
    ref = FailureInjector(law, np.random.default_rng((seed, task_id)),
                          max_failures=max_failures)
    assert isinstance(injector, BatchSeededInjector)
    got, want = [], []
    for k in range(N_DRAWS):
        if k == _ROUNDS + 2:
            injector.reset()
            ref.reset()
        got.append(injector.next_failure_in())
        want.append(ref.next_failure_in())
        neighbour.next_failure_in()
    assert got == want
    assert injector.failures_seen == ref.failures_seen


def test_mixture_keeps_its_own_generator():
    law = Mixture([Exponential(0.01), Pareto(5.0, 1.5)], [0.3, 0.7])
    injector = stream_injector(law, np.random.default_rng(),
                               task_stream_states(4, [11])[0], 4, 11)
    ref = FailureInjector(law, np.random.default_rng((4, 11)))
    assert not isinstance(injector, BatchSeededInjector)
    assert [injector.next_failure_in() for _ in range(N_DRAWS)] == \
        [ref.next_failure_in() for _ in range(N_DRAWS)]
