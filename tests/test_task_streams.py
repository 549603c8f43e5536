"""Batch-seeded per-task streams equal ``default_rng((seed, task_id))``.

The reference is NumPy's own ``default_rng`` at test time, so a NumPy
release that changes ``SeedSequence`` or PCG64 seeding fails here
instead of silently moving every scalar-tier and DES result.  Each
state row is held to the generator's ``bit_generator.state`` and, once
:func:`seek` has written it, to the draws.  The DES's batch-seeded
injector is held to a ``FailureInjector`` on that generator, draw for
draw, on both seek paths.
"""

from __future__ import annotations

import platform
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.failures import streams
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
    seek,
    stream_injector,
    task_stream_states,
)

SEEDS = (0, 1, 2**31 - 1, 2**32, 2**40 + 7)
#: batch-computed ids, including both ends of the uint32 word
IDS = (0, 1, 2, 1000, 2**31, 2**32 - 1)
#: ids of two or more entropy words: the ``default_rng`` fallback
FALLBACK_IDS = (2**32, 2**40 + 3)
_MASK64 = (1 << 64) - 1


def _words(rng: np.random.Generator) -> list[int]:
    """State lo/hi, inc lo/hi of ``rng``, read through its public
    ``bit_generator.state``."""
    state = rng.bit_generator.state["state"]
    return [state["state"] & _MASK64, state["state"] >> 64,
            state["inc"] & _MASK64, state["inc"] >> 64]


def _assert_streams(seed, ids):
    states = task_stream_states(seed, ids)
    assert states.shape == (len(ids), 4)
    assert states.dtype == np.uint64
    for task_id, row in zip(ids, states):
        ref = np.random.default_rng((seed, task_id))
        assert row.tolist() == _words(ref)
        g = np.random.default_rng()
        seek(g, row)
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
    np.testing.assert_array_equal(task_stream_states(seed, ids),
                                  task_stream_states(seed, ids.tolist()))


def test_numpy_integer_seed_and_unsigned_ids():
    ids = np.array([0, 7, 2**32 - 1], dtype=np.uint64)
    np.testing.assert_array_equal(task_stream_states(np.int64(99), ids),
                                  task_stream_states(99, [0, 7, 2**32 - 1]))
    _assert_streams(99, ids.tolist())


def test_seed_longer_than_the_pool():
    # Entropy past the 4-word pool goes through the second mixing pass.
    _assert_streams(2**100 + 9, [0, 5, 2**32 - 1])


def test_empty_ids():
    states = task_stream_states(3, np.arange(0))
    assert states.shape == (0, 4)
    assert states.dtype == np.uint64


def test_invalid_values_raise_like_default_rng():
    with pytest.raises(ValueError):
        task_stream_states(-1, [0])
    with pytest.raises(ValueError):
        task_stream_states(0, [-1])
    # Seeking a generator of another kind raises as its setter does.
    with pytest.raises(ValueError):
        seek(np.random.Generator(np.random.MT19937(0)),
             task_stream_states(0, [0])[0])


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**70),
    ids=st.lists(st.integers(min_value=0, max_value=2**33), min_size=1,
                 max_size=8),
)
def test_hypothesis_seeds(seed, ids):
    _assert_streams(seed, ids)


def test_seek_clears_a_buffered_uint32():
    # A bounded uint32 draw leaves the other half of a 64-bit draw
    # buffered; the seeked stream must not hand it out.
    g = np.random.default_rng(5)
    g.integers(0, 10, dtype=np.uint32)
    assert g.bit_generator.state["has_uint32"] == 1
    row = task_stream_states(8, [3])[0]
    seek(g, row)
    ref = np.random.default_rng((8, 3))
    assert g.bit_generator.state == ref.bit_generator.state
    np.testing.assert_array_equal(g.integers(0, 10, 7, dtype=np.uint32),
                                  ref.integers(0, 10, 7, dtype=np.uint32))
    assert g.random() == ref.random()


@pytest.mark.skipif(
    sys.byteorder != "little" or not sys.platform.startswith("linux")
    or platform.machine() not in ("x86_64", "aarch64"),
    reason="the state words are checked to lie in this order on 64-bit "
           "little-endian Linux builds")
def test_words_are_written_directly_on_linux_64bit():
    assert streams._direct_seek()


def test_layout_check_refuses_another_word_order(monkeypatch):
    state_view = streams._state_view

    def reversed_view(bit_generator):
        words, header = state_view(bit_generator)
        return words[::-1], header

    monkeypatch.setattr(streams, "_state_view", reversed_view)
    assert streams._direct_seek.__wrapped__() is False


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
    _assert_injector_matches(law, max_failures, seed, task_id)


def _assert_injector_matches(law, max_failures, seed, task_id):
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


@pytest.mark.parametrize("law", LAWS, ids=lambda law: type(law).__name__)
def test_setter_path_draws_the_same(law, monkeypatch):
    # Where the layout check fails, seek sets ``bit_generator.state``.
    def no_view(bit_generator):
        raise AssertionError("the setter path read the state memory")

    monkeypatch.setattr(streams, "_direct_seek", lambda: False)
    monkeypatch.setattr(streams, "_state_view", no_view)
    for max_failures, seed, task_id in [(None, 0, 0), (3, 7, 1234),
                                        (None, 3, FALLBACK_IDS[0])]:
        _assert_injector_matches(law, max_failures, seed, task_id)
    _assert_streams(11, [0, 9, 2**32 - 1, FALLBACK_IDS[1]])


@pytest.mark.parametrize("law", LAWS, ids=lambda law: type(law).__name__)
def test_injector_past_the_batch_draws_on_its_own_stream(law):
    # Past the first _ROUNDS draws the injector leaves the shared
    # generator alone and continues default_rng((seed, task_id)).
    seed, task_id = 4, 17
    shared = np.random.default_rng()
    injector = stream_injector(law, shared,
                               task_stream_states(seed, [task_id])[0],
                               seed, task_id)
    ref = FailureInjector(law, np.random.default_rng((seed, task_id)))
    head = [injector.next_failure_in() for _ in range(_ROUNDS)]
    assert head == [ref.next_failure_in() for _ in range(_ROUNDS)]
    seek(shared, task_stream_states(seed, [99])[0])
    before = shared.bit_generator.state
    tail = [injector.next_failure_in() for _ in range(2 * _ROUNDS)]
    assert tail == [ref.next_failure_in() for _ in range(2 * _ROUNDS)]
    assert shared.bit_generator.state == before
    assert injector.rng is not shared
    assert injector.rng.bit_generator.state == ref.rng.bit_generator.state
