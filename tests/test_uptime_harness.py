"""Shared-uptime differential harness for the Monte-Carlo kernels.

The scalar kernel (:func:`simulate_task` fed by a replay injector), the
replay batch (:func:`simulate_tasks_replay`) and the batch round loop
(:func:`_simulate_blocked_core` fed by a fixed matrix source) must give
bit-identical wallclocks, failure counts and completion flags when they
see the same per-task uptimes — for every block schedule, with restart
delays, and under ``max_segments`` truncation.  The strategies seek the
boundaries of the segment arithmetic: uptimes that are exact float
multiples of the cycle ``L + C``, exactly the finish time, ``0.0`` and
``inf``.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.simulate import (
    _simulate_blocked_core,
    simulate_task,
    simulate_tasks_replay,
)
from repro.failures.injector import TraceReplayInjector

BLOCK_SCHEDULES = (1, 3, 8, 4096)


class _RowInjector:
    """Replays one matrix row, then ``inf`` forever.

    :class:`TraceReplayInjector` semantics without its strictly-positive
    check, so zero uptimes reach the scalar kernel too.
    """

    def __init__(self, row):
        self._row = [float(v) for v in row]
        self._pos = 0

    def next_failure_in(self) -> float:
        if self._pos >= len(self._row):
            return math.inf
        self._pos += 1
        return self._row[self._pos - 1]


def _matrix_source(mat: np.ndarray):
    """Uptime source giving round ``h`` of task ``i`` as ``mat[i, h]``
    (``inf`` past the last column)."""

    def draw(rows: np.ndarray, start: int, ends: list[int]) -> np.ndarray:
        k = ends[-1]
        out = np.full((k, rows.size), np.inf)
        for r in range(k):
            if start + r < mat.shape[1]:
                out[r] = mat[rows, start + r]
        return out

    return draw


def _core(te, x, c, r, mat, d, max_segments, block_rounds):
    return _simulate_blocked_core(
        np.asarray(te, dtype=float), np.asarray(x, dtype=np.int64),
        np.asarray(c, dtype=float), np.asarray(r, dtype=float),
        np.arange(len(te)), _matrix_source(mat), d, max_segments,
        block_rounds=block_rounds,
    )


def _scalar(te, x, c, r, mat, d, max_segments=100_000):
    return [
        simulate_task(float(te[i]), int(x[i]), float(c[i]), float(r[i]),
                      _RowInjector(mat[i]), restart_delay=d,
                      max_segments=max_segments)
        for i in range(len(te))
    ]


def _assert_same(batch, outs):
    assert batch.wallclock.tolist() == [o.wallclock for o in outs]
    assert batch.n_failures.tolist() == [o.n_failures for o in outs]
    assert batch.completed.tolist() == [o.completed for o in outs]


def _assert_all_paths_agree(te, x, c, r, mat, d, trunc):
    outs = _scalar(te, x, c, r, mat, d)
    _assert_same(simulate_tasks_replay(te, x, c, r, mat, restart_delay=d),
                 outs)
    short = _scalar(te, x, c, r, mat, d, max_segments=trunc)
    for b in BLOCK_SCHEDULES:
        _assert_same(_core(te, x, c, r, mat, d, mat.shape[1] + 1, b), outs)
        _assert_same(_core(te, x, c, r, mat, d, trunc, b), short)


@st.composite
def _task(draw, n_cols):
    """One task's parameters plus an uptime row of ``n_cols`` entries."""
    te = draw(st.floats(min_value=1e-3, max_value=1e6))
    x = draw(st.one_of(st.integers(1, 30), st.integers(1, 1_000_000)))
    c = draw(st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=50.0)))
    r = draw(st.floats(min_value=0.0, max_value=50.0))
    length = te / x
    cycle = length + c
    t_fin0 = (x - 1) * cycle + length
    uptime = st.one_of(
        st.just(0.0),
        st.just(math.inf),
        st.just(t_fin0),
        st.integers(0, 2 * x + 2).map(lambda k: k * cycle),
        st.floats(min_value=0.0, max_value=2.0 * t_fin0),
    )
    row = draw(st.lists(uptime, min_size=n_cols, max_size=n_cols))
    return te, x, c, r, row


@st.composite
def _batch(draw):
    n_cols = draw(st.integers(0, 12))
    tasks = draw(st.lists(_task(n_cols), min_size=1, max_size=8))
    te, x, c, r, rows = (list(col) for col in zip(*tasks))
    mat = np.array(rows, dtype=float).reshape(len(tasks), n_cols)
    d = draw(st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=30.0)))
    trunc = draw(st.integers(1, n_cols + 1))
    return (np.array(te), np.array(x, dtype=np.int64), np.array(c),
            np.array(r), mat, d, trunc)


class TestSharedUptimes:
    @given(batch=_batch())
    @settings(max_examples=300, deadline=None)
    def test_scalar_replay_and_core_bit_identical(self, batch):
        _assert_all_paths_agree(*batch)

    def test_floor_division_boundary(self):
        """te=1, x=20, C=0.05: the cycle is 0.1 and ``1.0 // 0.1`` is
        9, not ``floor(1.0 / 0.1) == 10``.  One failure at u=1.0 commits
        nine checkpoints on every path."""
        te, x = np.array([1.0]), np.array([20])
        c, r = np.array([0.05]), np.array([0.5])
        mat = np.array([[1.0]])
        _assert_all_paths_agree(te, x, c, r, mat, 0.0, 1)
        _assert_all_paths_agree(te, x, c, r, mat, 2.0, 1)
        ref = simulate_task(1.0, 20, 0.05, 0.5, TraceReplayInjector([1.0]))
        # Resume from checkpoint 9: ten cycles left plus the final L.
        assert ref.wallclock == 1.0 + 0.5 + (10 * (0.05 + 0.05) + 0.05)

    def test_commits_saturate_below_the_finish_time(self):
        """te=558.1898350386851, x=22, C=0: the uptime ``22 * L`` rounds
        to just below the finish time ``21 * L + L``, so the task fails
        although ``u // L`` is 22 — one more than the 21 checkpoints it
        has.  The commit count must saturate at 21 (the next round
        needs ``L`` again), not run on to -1 (which would finish it on
        any uptime).  The boundary uptime sits in round 1, so the next
        round falls in the same span of the core on every schedule."""
        te, x = np.array([558.1898350386851]), np.array([22])
        c, r = np.array([0.0]), np.array([1.0])
        u = 22 * (te[0] / 22)
        assert u < 21 * (te[0] / 22) + te[0] / 22 and u // (te[0] / 22) == 22
        mat = np.array([[1.0, u, 1.0, 1.0]])
        _assert_all_paths_agree(te, x, c, r, mat, 0.0, 3)
        out = simulate_task(te[0], 22, 0.0, 1.0, _RowInjector(mat[0]))
        assert out.n_failures == 4

    def test_task_finished_mid_block_ignores_later_inf(self):
        """Task 0 finishes in round 1 (inside the second block of the
        ramp) and is then handed an ``inf`` uptime in round 2 while
        task 1 keeps the block alive: its wallclock must stay put."""
        te = np.array([100.0, 100.0])
        x = np.array([4, 4])
        c, r = np.array([2.0, 2.0]), np.array([5.0, 5.0])
        mat = np.array([[30.0, 500.0, np.inf, np.inf],
                        [10.0, 10.0, 10.0, 10.0]])
        _assert_all_paths_agree(te, x, c, r, mat, 1.0, 3)
        res = _core(te, x, c, r, mat, 1.0, 5, 8)
        assert res.wallclock[0] == 30.0 + (5.0 + 1.0) + (2 * 27.0 + 25.0)
