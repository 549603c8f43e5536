"""Per-task random streams, seeded in one batch.

The scalar tier and the DES platform give task ``i`` of a workload the
stream ``np.random.default_rng((seed, i))``: a PCG64 generator seeded
by ``SeedSequence((seed, i))``.  Building one ``Generator`` per task
was most of a scalar-tier run (``BENCH_parallel.json``,
``scalar_tier``), yet neither seeding step needs a generator object:

* ``SeedSequence`` hashes its entropy words with 32-bit integer
  multiplies, xors and shifts (``mix_entropy`` over a 4-word pool,
  then ``generate_state``), all elementwise over the task ids;
* PCG64 seeds itself with two steps of its 128-bit LCG:
  ``inc = (seq << 1) | 1`` and ``state = (inc + initstate) * MULT + inc``
  (mod 2**128).

:func:`task_stream_states` computes both in NumPy for a whole batch of
task ids, so a caller sets each task's ``(state, inc)`` on one reused
generator and draws exactly what ``default_rng((seed, i))`` draws.

Both tiers then draw each task's first :data:`_ROUNDS` uptimes in one
``sample`` call on that shared generator (:func:`seek`): the scalar
tier feeds them to its batch round loop, the DES hands them out one
failure at a time through a :class:`BatchSeededInjector`.  Only laws in
:data:`_BATCH_LAWS` may be drawn this way.
"""

from __future__ import annotations

import math

import numpy as np

from repro.failures.distributions import (
    Distribution,
    Empirical,
    Exponential,
    Geometric,
    Laplace,
    LogNormal,
    Normal,
    Pareto,
    Weibull,
)
from repro.failures.injector import FailureInjector

__all__ = ["BatchSeededInjector", "seek", "stream_injector",
           "task_stream_states"]

#: Uptimes drawn per task up front, in one ``sample`` call.  Most tasks
#: need no more; no result depends on the value.
_ROUNDS = 8
#: Laws whose ``sample(rng, k)`` returns exactly ``k`` successive
#: ``sample(rng, 1)`` draws and leaves the generator where they would.
#: :class:`~repro.failures.distributions.Mixture` draws all ``k``
#: component choices first, so it is not one.
_BATCH_LAWS = (Empirical, Exponential, Geometric, Laplace, LogNormal,
               Normal, Pareto, Weibull)

_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_XSHIFT = 16
# SeedSequence's hash constants (numpy/random/bit_generator.pyx).
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
# PCG64's 128-bit LCG multiplier (PCG_DEFAULT_MULTIPLIER_128).
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _int_to_words(value: int) -> list[int]:
    """``SeedSequence``'s little-endian uint32 words of a non-negative int."""
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


class _HashMix:
    """``SeedSequence``'s ``hashmix`` with its running hash constant.

    The constant advances by a fixed multiply on every call, whatever
    the data, so it is carried as a plain int and only the values are
    arrays.
    """

    def __init__(self, init: int, mult: int):
        self.const = init
        self.mult = mult

    def __call__(self, value: np.ndarray) -> np.ndarray:
        value = value ^ np.uint32(self.const)
        self.const = (self.const * self.mult) & _MASK32
        value = value * np.uint32(self.const)
        return value ^ (value >> np.uint32(_XSHIFT))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return result ^ (result >> np.uint32(_XSHIFT))


def _generate_state(seed_words: list[int], ids: np.ndarray) -> np.ndarray:
    """``SeedSequence((seed, i)).generate_state(4, uint64)`` per id.

    ``ids`` are uint32 task ids (one entropy word each); the result is
    a ``(4, n)`` uint64 array.
    """
    n = ids.size
    entropy = [np.full(n, w, dtype=np.uint32) for w in seed_words] + [ids]
    hashmix = _HashMix(_INIT_A, _MULT_A)
    zero = np.zeros(n, dtype=np.uint32)
    pool = [hashmix(entropy[i] if i < len(entropy) else zero)
            for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = _mix(pool[i_dst], hashmix(pool[i_src]))
    for i_src in range(_POOL_SIZE, len(entropy)):
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = _mix(pool[i_dst], hashmix(entropy[i_src]))

    generate = _HashMix(_INIT_B, _MULT_B)
    # generate_state consumes the pool cyclically, each word through
    # the same xor-multiply-xorshift with its own constant sequence.
    words = [generate(pool[i % _POOL_SIZE]) for i in range(8)]
    return np.stack([
        words[2 * j].astype(np.uint64)
        | (words[2 * j + 1].astype(np.uint64) << np.uint64(32))
        for j in range(4)
    ])


def _pcg64_seed(initstate: int, initseq: int) -> tuple[int, int]:
    inc = ((initseq << 1) | 1) & _MASK128
    return ((inc + initstate) * _PCG64_MULT + inc) & _MASK128, inc


def _fallback(seed, task_id) -> tuple[int, int]:
    state = np.random.default_rng((seed, task_id)).bit_generator.state
    return state["state"]["state"], state["state"]["inc"]


def task_stream_states(seed, task_ids) -> list[tuple[int, int]]:
    """PCG64 ``(state, inc)`` of ``default_rng((seed, i))`` for each id.

    Setting ``{"state": state, "inc": inc}`` (with ``has_uint32 = 0``)
    on any PCG64 generator makes it draw what ``default_rng((seed, i))``
    draws.  Non-negative integer seeds of any size and ids below 2**32
    are computed in one batch; any other seed or id is delegated to
    ``default_rng`` itself (which also raises its errors).
    """
    ids = np.asarray(task_ids)
    if ids.dtype.kind not in "iu" or not isinstance(seed, (int, np.integer)) \
            or seed < 0:
        return [_fallback(seed, i) for i in ids.tolist()]
    covered = (ids >= 0) & (ids <= _MASK32)
    words = _generate_state(_int_to_words(int(seed)),
                            ids[covered].astype(np.uint32)).tolist()
    batch = iter(zip(*words))
    out = []
    for task_id, ok in zip(ids.tolist(), covered.tolist()):
        if ok:
            s0, s1, q0, q1 = next(batch)
            out.append(_pcg64_seed((s0 << 64) | s1, (q0 << 64) | q1))
        else:
            out.append(_fallback(seed, task_id))
    return out


def seek(rng: np.random.Generator, state_inc: tuple[int, int]) -> None:
    """Make the PCG64 generator ``rng`` draw as ``default_rng((seed, i))``
    from the start, given that stream's ``(state, inc)``."""
    state, inc = state_inc
    rng.bit_generator.state = {
        "bit_generator": "PCG64", "state": {"state": state, "inc": inc},
        "has_uint32": 0, "uinteger": 0,
    }


class BatchSeededInjector(FailureInjector):
    """``FailureInjector(law, default_rng((seed, task_id)), max_failures)``
    without building that generator for the first :data:`_ROUNDS` draws.

    At its first draw the injector seeks ``shared`` (a generator other
    injectors also use) to the task's ``state_inc`` and draws
    :data:`_ROUNDS` uptimes in one ``sample`` call.  Past those it builds
    ``default_rng((seed, task_id))``, skips the same draws with one
    ``sample`` call and continues there.  ``law`` must be in
    :data:`_BATCH_LAWS`, for which both give the single draws'
    values and generator state.
    """

    def __init__(self, law: Distribution, shared: np.random.Generator,
                 state_inc: tuple[int, int], seed, task_id: int,
                 max_failures: int | None = None):
        super().__init__(law, None, max_failures=max_failures)
        self._shared = shared
        self._state_inc = state_inc
        self._seed = seed
        self._task_id = task_id
        self._head: list[float] = []
        self._drawn = 0

    def next_failure_in(self) -> float:
        """As :meth:`FailureInjector.next_failure_in`, draw for draw."""
        if self.max_failures is not None and self.failures_seen >= self.max_failures:
            return math.inf
        self.failures_seen += 1
        k = self._drawn
        self._drawn = k + 1
        if k < _ROUNDS:
            if k == 0:
                seek(self._shared, self._state_inc)
                self._head = self.interval_dist.sample(
                    self._shared, _ROUNDS).tolist()
            return float(self._head[k])
        if k == _ROUNDS:
            self.rng = np.random.default_rng((self._seed, self._task_id))
            self.interval_dist.sample(self.rng, _ROUNDS)
        return float(self.interval_dist.sample(self.rng, 1)[0])


def stream_injector(law: Distribution, shared: np.random.Generator,
                    state_inc: tuple[int, int], seed, task_id: int,
                    max_failures: int | None = None) -> FailureInjector:
    """The injector drawing ``law`` from ``default_rng((seed, task_id))``:
    batch-seeded on ``shared`` for a law in :data:`_BATCH_LAWS`, on its
    own generator otherwise."""
    if type(law) in _BATCH_LAWS:
        return BatchSeededInjector(law, shared, state_inc, seed, task_id,
                                   max_failures)
    return FailureInjector(law, np.random.default_rng((seed, task_id)),
                           max_failures=max_failures)
