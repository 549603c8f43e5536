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
task ids, the 128-bit arithmetic on 64-bit limbs, and returns each
stream's state as one row of four ``uint64`` words (state lo/hi, inc
lo/hi).  :func:`seek` copies a row into one reused generator, which
then draws exactly what ``default_rng((seed, i))`` draws.  It writes
the words through a view of the generator's state memory
(``bit_generator.ctypes.state_address``), whose layout is checked
once per process against the ``bit_generator.state`` property; where
the check fails, the property is the only path.

Both tiers then draw each task's first :data:`_ROUNDS` uptimes in one
``sample`` call on that shared generator: the scalar tier feeds them to
its batch round loop, the DES hands them out one failure at a time
through a :class:`BatchSeededInjector`.  Only laws in
:data:`_BATCH_LAWS` may be drawn this way.
"""

from __future__ import annotations

import ctypes
import functools
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
_MASK64 = (1 << 64) - 1
_PCG64_MULT_LO = np.uint64(_PCG64_MULT & _MASK64)
_PCG64_MULT_HI = np.uint64(_PCG64_MULT >> 64)
_LO32 = np.uint64(_MASK32)
_S32 = np.uint64(32)
#: state words per stream: state lo/hi, inc lo/hi
_N_WORDS = 4


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


def _pcg64_words(words: np.ndarray) -> np.ndarray:
    """PCG64's seeding step on ``generate_state`` output, as state words.

    ``words`` is the ``(4, n)`` array of :func:`_generate_state`: the
    high and low halves of ``initstate``, then of ``initseq``.  The
    result is ``(n, 4)``: state lo/hi, inc lo/hi, all arithmetic mod
    2**64 per limb with the carries written out.
    """
    s_hi, s_lo, q_hi, q_lo = words
    one = np.uint64(1)
    inc_lo = (q_lo << one) | one
    inc_hi = (q_hi << one) | (q_lo >> np.uint64(63))
    t_lo = inc_lo + s_lo
    t_hi = inc_hi + s_hi + (t_lo < inc_lo)
    # (t * MULT) mod 2**128: the full product of the low limbs, plus
    # the two cross products that land in the high limb.
    lo, hi = _mul_64x64(t_lo, _PCG64_MULT_LO)
    hi = hi + t_lo * _PCG64_MULT_HI + t_hi * _PCG64_MULT_LO
    state_lo = lo + inc_lo
    state_hi = hi + inc_hi + (state_lo < lo)
    return np.stack([state_lo, state_hi, inc_lo, inc_hi], axis=1)


def _mul_64x64(a: np.ndarray, b: np.uint64) -> tuple[np.ndarray, np.ndarray]:
    """Low and high 64-bit limbs of ``a * b``, through 32-bit halves."""
    a0, a1 = a & _LO32, a >> _S32
    b0, b1 = b & _LO32, b >> _S32
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> _S32) + (p01 & _LO32) + (p10 & _LO32)
    lo = (mid << _S32) | (p00 & _LO32)
    hi = a1 * b1 + (p01 >> _S32) + (p10 >> _S32) + (mid >> _S32)
    return lo, hi


def _fallback(seed, task_id) -> list[int]:
    """The state words of ``default_rng((seed, task_id))`` itself."""
    state = np.random.default_rng((seed, task_id)).bit_generator.state
    words = []
    for value in (state["state"]["state"], state["state"]["inc"]):
        words += [value & _MASK64, value >> 64]
    return words


def task_stream_states(seed, task_ids) -> np.ndarray:
    """PCG64 state words of ``default_rng((seed, i))`` for each id.

    Row ``r`` of the ``(len(task_ids), 4)`` ``uint64`` result holds the
    state's low and high 64 bits, then the increment's; :func:`seek`
    writes a row into a PCG64 generator, which then draws what
    ``default_rng((seed, task_ids[r]))`` draws.  Non-negative integer
    seeds of any size and ids below 2**32 are computed in one batch;
    any other seed or id is delegated to ``default_rng`` itself (which
    also raises its errors).
    """
    ids = np.asarray(task_ids)
    out = np.empty((ids.size, _N_WORDS), dtype=np.uint64)
    if ids.dtype.kind in "iu" and isinstance(seed, (int, np.integer)) \
            and seed >= 0:
        covered = (ids >= 0) & (ids <= _MASK32)
        out[covered] = _pcg64_words(_generate_state(
            _int_to_words(int(seed)), ids[covered].astype(np.uint32)))
    else:
        covered = np.zeros(ids.size, dtype=bool)
    rest = np.flatnonzero(~covered).tolist()
    if rest:
        id_list = ids.tolist()
        for row in rest:
            out[row] = _fallback(seed, id_list[row])
    return out


class _PCG64Header(ctypes.Structure):
    """NumPy's ``pcg64_state``, the struct at ``ctypes.state_address``
    of a PCG64: a pointer to the 128-bit state and increment, then the
    buffered half of the last 64-bit draw."""

    _fields_ = [("pcg_state", ctypes.c_void_p),
                ("has_uint32", ctypes.c_int),
                ("uinteger", ctypes.c_uint32)]


def _state_view(bit_generator) -> tuple[np.ndarray, _PCG64Header]:
    """A ``uint64`` view of the state words of the PCG64
    ``bit_generator`` and its header; valid while it lives."""
    header = _PCG64Header.from_address(bit_generator.ctypes.state_address)
    if not header.pcg_state:
        raise ValueError("PCG64 state pointer is null")
    words = np.ctypeslib.as_array(
        (ctypes.c_uint64 * _N_WORDS).from_address(header.pcg_state))
    return words, header


@functools.cache
def _direct_seek() -> bool:
    """Whether :func:`seek` may write state words straight into a
    generator: checked once, both ways, against the ``state`` property
    on a probe PCG64.  Where the words lie in another order (a
    big-endian or emulated 128-bit build), :func:`seek` uses the
    property instead."""
    row = [0x0123456789ABCDEF, 0xFEDCBA9876543210,
           0x13579BDF2468ACE1, 0x0F1E2D3C4B5A6978]
    probe = np.random.PCG64()
    try:
        words, header = _state_view(probe)
        probe.state = _state_dict(row, has_uint32=1, uinteger=0xC0FFEE)
        if words.tolist() != row or header.has_uint32 != 1 \
                or header.uinteger != 0xC0FFEE:
            return False
        row = row[2:] + row[:2]
        words[:] = row
        header.has_uint32 = 0
        header.uinteger = 0
        return probe.state == _state_dict(row)
    except (AttributeError, TypeError, ValueError):
        return False  # no usable view: seek sets the property


def _state_dict(row, has_uint32: int = 0, uinteger: int = 0) -> dict:
    """The ``bit_generator.state`` value of the state words ``row``."""
    s_lo, s_hi, i_lo, i_hi = (int(w) for w in row)
    return {"bit_generator": "PCG64",
            "state": {"state": s_hi << 64 | s_lo, "inc": i_hi << 64 | i_lo},
            "has_uint32": has_uint32, "uinteger": uinteger}


#: ``(rng, words, header)`` of the generator :func:`seek` wrote last
#: (views ``None`` where the ``state`` property is the path); holding
#: the generator keeps the views' memory alive.  A memo only: callers
#: seek one generator many times, and building the views costs more
#: than the copy.  The tuple is replaced whole, so concurrent callers
#: at worst rebuild a view.
_last_view: tuple = (None, None, None)


def seek(rng: np.random.Generator, row) -> None:
    """Make the PCG64 generator ``rng`` draw as ``default_rng((seed, i))``
    from the start, given that stream's :func:`task_stream_states` row.

    Writes the four words into the generator's state and clears its
    buffered 32-bit half, as setting ``bit_generator.state`` does, at a
    fraction of the cost.  Where :func:`_direct_seek` fails, or for a
    bit generator other than PCG64, it sets ``bit_generator.state``
    (which raises for a generator of another kind).
    """
    global _last_view
    held, words, header = _last_view
    if held is not rng:
        bit_generator = rng.bit_generator
        if type(bit_generator) is np.random.PCG64 and _direct_seek():
            words, header = _state_view(bit_generator)
        else:
            words = header = None
        _last_view = (rng, words, header)
    if words is None:
        rng.bit_generator.state = _state_dict(row)
        return
    words[:] = row
    header.has_uint32 = 0
    header.uinteger = 0


class BatchSeededInjector(FailureInjector):
    """``FailureInjector(law, default_rng((seed, task_id)), max_failures)``
    without building that generator for the first :data:`_ROUNDS` draws.

    At its first draw the injector seeks ``shared`` (a generator other
    injectors also use) to the task's ``state`` row of
    :func:`task_stream_states` and draws
    :data:`_ROUNDS` uptimes in one ``sample`` call.  Past those it builds
    ``default_rng((seed, task_id))``, skips the same draws with one
    ``sample`` call and continues there.  ``law`` must be in
    :data:`_BATCH_LAWS`, for which both give the single draws'
    values and generator state.
    """

    def __init__(self, law: Distribution, shared: np.random.Generator,
                 state: np.ndarray, seed, task_id: int,
                 max_failures: int | None = None):
        super().__init__(law, None, max_failures=max_failures)
        self._shared = shared
        self._state = state
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
                seek(self._shared, self._state)
                self._head = self.interval_dist.sample(
                    self._shared, _ROUNDS).tolist()
            return float(self._head[k])
        if k == _ROUNDS:
            self.rng = np.random.default_rng((self._seed, self._task_id))
            self.interval_dist.sample(self.rng, _ROUNDS)
        return float(self.interval_dist.sample(self.rng, 1)[0])


def stream_injector(law: Distribution, shared: np.random.Generator,
                    state: np.ndarray, seed, task_id: int,
                    max_failures: int | None = None) -> FailureInjector:
    """The injector drawing ``law`` from ``default_rng((seed, task_id))``,
    whose :func:`task_stream_states` row is ``state``: batch-seeded on
    ``shared`` for a law in :data:`_BATCH_LAWS`, on its own generator
    otherwise."""
    if type(law) in _BATCH_LAWS:
        return BatchSeededInjector(law, shared, state, seed, task_id,
                                   max_failures)
    return FailureInjector(law, np.random.default_rng((seed, task_id)),
                           max_failures=max_failures)
