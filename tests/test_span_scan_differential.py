"""Differential test: the span scan runs exactly like the round loop.

``reference_round_loop`` below is the batch round loop the span scan
replaced: one Python iteration of about ten NumPy calls per segment
round, finished tasks kept as inert ``length = nan`` lanes until the
block ends.  The span scan draws several blocks of the same schedule
ahead, scans them column-wise and rewinds the generator past the
blocks it did not consume, so for RNG-backed sources it must give the
same bits *and* leave the generator where the round loop leaves it.
Hypothesis holds the two bit-identical on the scaled source and on the
blocked source with several laws — ``Mixture`` and ``Empirical``
among them, whose draws do not concatenate, so every rewind shows —
with ``x = 1`` tasks, restart delays and ``max_segments`` truncation
landing inside a span.  The scaled and replay sources draw a whole
span in one call; they are also held to the reference at block sizes
that are not powers of two, where a ramp that assumes doubling lands
on ``block_rounds`` would go wrong.  The scan's shortcuts get cases of
their own: spans without a finish fed through F-ordered sources and a
single column, whose wallclock a row reduce would sum pairwise, and
the fast floor of ``u // (L+C)`` on quotients that round up onto a
whole number.  A call of several lanes (an ``(n, L)`` restart-cost
matrix) is held to one call per lane.
"""

from __future__ import annotations

import dataclasses
import functools
import logging
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import simulate
from repro.core.simulate import (
    DEFAULT_BLOCK_ROUNDS,
    SimulationResult,
    _block_ends,
    simulate_tasks_blocked,
    simulate_tasks_replay,
    simulate_tasks_scaled,
)
from repro.failures.distributions import (
    Empirical,
    Exponential,
    Mixture,
    Pareto,
    Weibull,
)
from repro.verify import runner
from repro.verify.scenarios import build_workload, get_scenario


@np.errstate(invalid="ignore")
def reference_round_loop(
    te_arr, x_arr, c_arr, r_arr, state, draw, restart_delay,
    max_segments, block_rounds=DEFAULT_BLOCK_ROUNDS, rng=None,
):
    """The round loop before the span scan (``rng`` is unused)."""
    n = te_arr.size
    wall = np.zeros(n, dtype=float)
    fails = np.zeros(n, dtype=np.int64)
    completed = np.zeros(n, dtype=bool)

    idx = np.arange(n)
    length_w = te_arr / x_arr
    cycle_w = length_w + c_arr
    rem_w = (x_arr - 1).astype(float)
    fcost_w = r_arr + restart_delay
    wall_w = np.zeros(n, dtype=float)

    rounds = 0
    k_next = 1
    while idx.size and rounds < max_segments:
        k = min(k_next, block_rounds, max_segments - rounds)
        k_next = min(k_next * 2, block_rounds)
        u_block = draw(state, rounds, [k])  # one block per call
        alive = np.ones(idx.size, dtype=bool)
        n_alive = idx.size
        for r in range(k):
            u = u_block[r]
            t_fin = rem_w * cycle_w + length_w
            done = u >= t_fin  # inert slots have t_fin == nan -> False
            n_done = np.count_nonzero(done)
            if n_done:
                idx_done = idx[done]
                wall[idx_done] = wall_w[done] + t_fin[done]
                fails[idx_done] = rounds + r
                completed[idx_done] = True
                alive[done] = False
                length_w[done] = np.nan
                n_alive -= n_done
                if n_alive == 0:
                    break
            rem_w -= np.minimum(u // cycle_w, rem_w)
            wall_w += u + fcost_w
        rounds += k
        if n_alive != idx.size:
            idx = idx[alive]
            length_w = length_w[alive]
            cycle_w = cycle_w[alive]
            rem_w = rem_w[alive]
            fcost_w = fcost_w[alive]
            wall_w = wall_w[alive]
            state = state[alive]

    if idx.size:
        wall[idx] = wall_w
        fails[idx] = rounds

    return SimulationResult(
        te=te_arr.copy(),
        wallclock=wall,
        n_failures=fails,
        intervals=x_arr.copy(),
        completed=completed,
    )


def run_pair(kernel, *args, seed, **kwargs):
    """``kernel`` once on the span scan and once on the reference loop,
    each with a fresh generator from ``seed``; returns both results and
    the next draw of each generator (where the stream was left)."""
    out = []
    for core in (simulate._simulate_blocked_core, reference_round_loop):
        saved = simulate._simulate_blocked_core
        simulate._simulate_blocked_core = core
        try:
            rng = np.random.default_rng(seed)
            res = kernel(*args, rng=rng, **kwargs)
        finally:
            simulate._simulate_blocked_core = saved
        out.append((res, rng.random()))
    return out


def _assert_identical(pair):
    (new, new_next), (ref, ref_next) = pair
    assert new.wallclock.tolist() == ref.wallclock.tolist()
    assert new.n_failures.tolist() == ref.n_failures.tolist()
    assert new.completed.tolist() == ref.completed.tolist()
    assert new.digest() == ref.digest()
    assert new_next == ref_next  # the generator ends where it would


LAWS = {
    0: Exponential(1 / 40.0),
    1: Mixture([Exponential(1 / 5.0), Pareto(30.0, 1.5)], [0.7, 0.3]),
    2: Empirical([3.0, 8.0, 15.0, 60.0, 400.0]),
    3: Weibull(0.7, 25.0),
}


@st.composite
def _tasks(draw):
    """A small batch whose tails run long: uptimes are short next to
    the work, some tasks have one interval (no checkpoint to commit)."""
    n = draw(st.integers(1, 10))
    te = draw(st.lists(st.floats(1.0, 600.0), min_size=n, max_size=n))
    x = draw(st.lists(st.one_of(st.just(1), st.integers(1, 40)),
                      min_size=n, max_size=n))
    c = draw(st.lists(st.floats(0.0, 20.0), min_size=n, max_size=n))
    r = draw(st.lists(st.floats(0.0, 20.0), min_size=n, max_size=n))
    d = draw(st.one_of(st.just(0.0), st.floats(0.0, 30.0)))
    max_seg = draw(st.one_of(st.integers(1, 40), st.integers(40, 3000)))
    seed = draw(st.integers(0, 2**32 - 1))
    return (np.array(te), np.array(x, dtype=np.int64), np.array(c),
            np.array(r), d, max_seg, seed)


class TestSpanScanMatchesRoundLoop:
    @given(tasks=_tasks(), scale=st.lists(st.floats(0.5, 400.0),
                                          min_size=10, max_size=10))
    @settings(max_examples=120, deadline=None)
    def test_scaled_source(self, tasks, scale):
        te, x, c, r, d, max_seg, seed = tasks
        scales = np.array(scale[:te.size])
        _assert_identical(run_pair(
            simulate_tasks_scaled, te, x, c, r, scales, seed=seed,
            restart_delay=d, max_segments=max_seg))

    @given(tasks=_tasks(),
           ids=st.lists(st.sampled_from(sorted(LAWS)), min_size=10,
                        max_size=10),
           n_laws=st.integers(2, len(LAWS)))
    @settings(max_examples=120, deadline=None)
    def test_blocked_source_with_several_laws(self, tasks, ids, n_laws):
        te, x, c, r, d, max_seg, seed = tasks
        dist_ids = np.array(ids[:te.size]) % n_laws
        laws = {k: LAWS[k] for k in range(n_laws)}
        _assert_identical(run_pair(
            simulate_tasks_blocked, te, x, c, r, dist_ids, laws, seed=seed,
            restart_delay=d, max_segments=max_seg))

    def test_truncation_mid_span_and_x1_tail(self):
        """Long-running x=1 tasks (the Empirical one never finishes)
        beside checkpointed ones, cut at round counts that are not block
        or span boundaries."""
        te = np.array([5000.0, 5000.0, 80.0, 900.0])
        x = np.array([1, 1, 4, 30])
        c, r = np.full(4, 2.0), np.full(4, 1.0)
        ids = np.array([1, 2, 0, 1])
        for max_seg in (1, 2, 3, 7, 9, 1237, 4099):
            _assert_identical(run_pair(
                simulate_tasks_blocked, te, x, c, r, ids, LAWS, seed=5,
                restart_delay=0.5, max_segments=max_seg))
            _assert_identical(run_pair(
                simulate_tasks_scaled, te, x, c, r,
                np.array([10.0, 20.0, 30.0, 15.0]), seed=5,
                max_segments=max_seg))

    def test_span_cap_does_not_change_results(self, monkeypatch):
        """With the cap down to one block per span there is nothing to
        rewind; digests and the stream position must not move."""
        rng = np.random.default_rng(3)
        n = 400
        te = rng.uniform(10, 3000, n)
        x = rng.integers(1, 12, n)
        c, r = rng.uniform(0, 5, n), rng.uniform(0, 5, n)
        ids = np.arange(n) % len(LAWS)
        scales = rng.uniform(5, 300, n)

        def digests():
            out = []
            for kernel, arg in ((simulate_tasks_blocked, (ids, LAWS)),
                                (simulate_tasks_scaled, (scales,))):
                g = np.random.default_rng(11)
                res = kernel(te, x, c, r, *arg, g, restart_delay=1.0,
                             max_segments=2000)
                out.append((res.digest(), g.random()))
            return out

        wide = digests()
        monkeypatch.setattr(simulate, "_SPAN_UPTIMES", 1)
        assert digests() == wide


class TestScaledDraws:
    def test_standard_exponential_times_scale_is_exponential(self):
        """The scaled source draws ``standard_exponential * scale``;
        it must equal ``exponential(scale)`` bit for bit, stream
        position included."""
        scales = np.array([0.5, 3.0, 250.0, 1e4, 7.25])
        for shape_k in (1, 8, 64):
            a, b = np.random.default_rng(42), np.random.default_rng(42)
            got = a.standard_exponential((shape_k, scales.size)) * scales
            want = b.exponential(scales, size=(shape_k, scales.size))
            assert got.tobytes() == want.tobytes()
            assert a.random() == b.random()


class TestDebugLog:
    def test_one_line_per_call(self, caplog):
        n = 6
        with caplog.at_level(logging.DEBUG, logger="repro.core.simulate"):
            simulate_tasks_blocked(
                np.full(n, 1000.0), np.ones(n, dtype=np.int64), 0.0, 0.0,
                np.zeros(n, dtype=np.int64), {0: Empirical([10.0])},
                np.random.default_rng(0), max_segments=100)
        records = [rec for rec in caplog.records
                   if rec.name == "repro.core.simulate"]
        assert len(records) == 1
        msg = records[0].getMessage()
        assert "6 tasks" in msg and "100 rounds" in msg
        assert "6 truncated" in msg
        assert "spans" in msg and "rewound blocks" in msg

    def test_silent_above_debug(self, caplog):
        with caplog.at_level(logging.INFO, logger="repro.core.simulate"):
            simulate_tasks_scaled(np.array([10.0]), np.array([1]), 0.0, 0.0,
                                  np.array([100.0]), np.random.default_rng(0))
        assert not [rec for rec in caplog.records
                    if rec.name == "repro.core.simulate"]


def test_rewinds_happen(caplog):
    """The Mixture and Empirical tails make the scan rewind (so the
    differential tests above are not vacuous), and it still matches."""
    rng = np.random.default_rng(1)
    n = 30
    with caplog.at_level(logging.DEBUG, logger="repro.core.simulate"):
        _assert_identical(run_pair(
            simulate_tasks_blocked, rng.uniform(50, 500, n),
            rng.integers(1, 6, n), 1.0, 1.0, np.arange(n) % 2,
            {0: LAWS[1], 1: LAWS[2]}, seed=9, max_segments=100))
    msg = next(rec.getMessage() for rec in caplog.records
               if rec.name == "repro.core.simulate")
    assert int(re.search(r"(\d+) rewound blocks", msg).group(1)) > 0


def run_pair_at(block_rounds, kernel, *args, seed=None, **kwargs):
    """``kernel`` on the span scan and on the reference loop, both at
    ``block_rounds``; returns each result with its generator's final
    ``bit_generator.state`` (``None`` for a stateless kernel)."""
    out = []
    for core in (simulate._simulate_blocked_core, reference_round_loop):
        saved = simulate._simulate_blocked_core
        simulate._simulate_blocked_core = functools.partial(
            core, block_rounds=block_rounds)
        try:
            if seed is None:
                out.append((kernel(*args, **kwargs), None))
            else:
                rng = np.random.default_rng(seed)
                res = kernel(*args, rng=rng, **kwargs)
                out.append((res, rng.bit_generator.state))
        finally:
            simulate._simulate_blocked_core = saved
    return out


def _assert_identical_state(pair):
    (new, new_state), (ref, ref_state) = pair
    assert new.wallclock.tolist() == ref.wallclock.tolist()
    assert new.n_failures.tolist() == ref.n_failures.tolist()
    assert new.completed.tolist() == ref.completed.tolist()
    assert new.digest() == ref.digest()
    assert new_state == ref_state


def _rewound_blocks(caplog) -> int:
    return sum(int(re.search(r"(\d+) rewound blocks", rec.getMessage())
                   .group(1))
               for rec in caplog.records if rec.name == "repro.core.simulate")


BLOCK_ROUNDS = (3, 6, 8)


class TestWholeSpanSources:
    """The scaled and replay sources draw each span in one call."""

    @given(tasks=_tasks(), scale=st.lists(st.floats(0.5, 400.0),
                                          min_size=10, max_size=10),
           block_rounds=st.sampled_from(BLOCK_ROUNDS))
    @settings(max_examples=120, deadline=None)
    def test_scaled_source_at_any_block_size(self, tasks, scale,
                                             block_rounds):
        te, x, c, r, d, max_seg, seed = tasks
        _assert_identical_state(run_pair_at(
            block_rounds, simulate_tasks_scaled, te, x, c, r,
            np.array(scale[:te.size]), seed=seed, restart_delay=d,
            max_segments=max_seg))

    @given(tasks=_tasks(), block_rounds=st.sampled_from(BLOCK_ROUNDS),
           data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_replay_source_at_any_block_size(self, tasks, block_rounds,
                                             data):
        te, x, c, r, d, _, _ = tasks
        cols = data.draw(st.integers(0, 60))
        mat = np.array(data.draw(st.lists(
            st.lists(st.one_of(st.floats(0.0, 200.0), st.just(np.inf)),
                     min_size=cols, max_size=cols),
            min_size=te.size, max_size=te.size)), dtype=float)
        _assert_identical_state(run_pair_at(
            block_rounds, simulate_tasks_replay, te, x, c, r,
            mat.reshape(te.size, cols), restart_delay=d))

    @pytest.mark.parametrize("block_rounds", BLOCK_ROUNDS)
    def test_rewinds_truncation_and_x1(self, block_rounds, caplog):
        """A scaled batch of one-interval tasks beside checkpointed
        ones, whose tail rewinds, cut at round counts inside spans."""
        rng = np.random.default_rng(4)
        n = 24
        te = rng.uniform(50, 5000, n)
        x = np.where(np.arange(n) % 3 == 0, 1, rng.integers(1, 30, n))
        scales = rng.uniform(5, 200, n)
        with caplog.at_level(logging.DEBUG, logger="repro.core.simulate"):
            for max_seg in (1, 2, 5, 7, 11, 100, 1237, 5000):
                _assert_identical_state(run_pair_at(
                    block_rounds, simulate_tasks_scaled, te, x, 2.0, 1.0,
                    scales, seed=max_seg, restart_delay=0.5,
                    max_segments=max_seg))
        assert _rewound_blocks(caplog) > 0


def _reference_block_ends(k, n_blocks, block_rounds, left):
    """The schedule stepped one block at a time."""
    ends, total = [], 0
    while len(ends) < n_blocks and total < left:
        total = min(total + k, left)
        ends.append(total)
        k = min(2 * k, block_rounds)
    return ends


class TestBlockEnds:
    @given(block_rounds=st.integers(1, 20), ramp=st.integers(0, 6),
           n_blocks=st.integers(1, 1100), left=st.integers(1, 10_000))
    @settings(max_examples=300, deadline=None)
    def test_matches_block_by_block_schedule(self, block_rounds, ramp,
                                             n_blocks, left):
        k = min(1 << ramp, block_rounds)
        assert (_block_ends(k, n_blocks, block_rounds, left)
                == _reference_block_ends(k, n_blocks, block_rounds, left))

    def test_ramp_caps_at_block_rounds(self):
        assert _block_ends(1, 6, 6, 100) == [1, 3, 7, 13, 19, 25]
        assert _block_ends(1, 4, 3, 100) == [1, 3, 6, 9]
        assert _block_ends(4, 3, 8, 10) == [4, 10]


class TestSpanDrawConcatenates:
    def test_standard_exponential_rows_concatenate(self):
        """The scaled source's whole-span draw relies on this: one
        ``(K, m)`` call equals the per-block calls stacked, and leaves
        the generator at the same place.  Pinned so that a NumPy change
        breaking it fails here rather than shifting every redraw."""
        m = 7
        for ends in ([1], [1, 3, 7], [1, 3, 7, 15, 23, 31], [5, 11, 12]):
            a, b = np.random.default_rng(13), np.random.default_rng(13)
            whole = a.standard_exponential((ends[-1], m))
            parts = np.concatenate([
                b.standard_exponential((hi - lo, m))
                for lo, hi in zip([0, *ends[:-1]], ends)])
            assert whole.tobytes() == parts.tobytes()
            assert a.bit_generator.state == b.bit_generator.state


def record_draws(core, layouts):
    """``core`` with its uptime source wrapped to append ``(rows,
    columns, C-ordered)`` of every matrix the source returns (rewind
    re-draws included) to ``layouts``."""

    def spied(te, x, c, r, state, draw, *args, **kwargs):
        def source(live, start, ends):
            u = draw(live, start, ends)
            layouts.append((*u.shape, u.flags.c_contiguous))
            return u

        return core(te, x, c, r, state, source, *args, **kwargs)

    return spied


def _finish_free_spans(caplog) -> int:
    return sum(int(re.search(r"(\d+) finish-free", rec.getMessage())
                   .group(1))
               for rec in caplog.records if rec.name == "repro.core.simulate")


class TestFinishFreeSpans:
    """A span without a finish reads only its last wallclock row.  Its
    rows may be summed by a reduce only where NumPy adds them in
    ``cumsum`` order: a C-ordered matrix of two or more columns.  These
    cases feed long finish-free spans through the sources where that
    does not hold."""

    def test_replay_source_is_f_ordered(self, monkeypatch, caplog):
        rng = np.random.default_rng(8)
        n = 5
        mat = rng.uniform(0.5, 30.0, (n, 400))
        # No uptime reaches a cycle but the x=200 task's (L + C = 22),
        # which commits without finishing: every task finishes on the
        # padded ``inf`` round.
        te = np.full(n, 4000.0)
        x = np.array([1, 1, 4, 200, 2])
        c, r = np.full(n, 2.0), rng.uniform(0.0, 3.0, n)
        layouts = []
        monkeypatch.setattr(simulate, "_simulate_blocked_core", record_draws(
            simulate._simulate_blocked_core, layouts))
        with caplog.at_level(logging.DEBUG, logger="repro.core.simulate"):
            got = simulate_tasks_replay(te, x, c, r, mat, restart_delay=0.5)
        monkeypatch.setattr(simulate, "_simulate_blocked_core",
                            reference_round_loop)
        want = simulate_tasks_replay(te, x, c, r, mat, restart_delay=0.5)
        assert any(k >= 8 and m >= 2 and not c_ordered
                   for k, m, c_ordered in layouts)
        assert _finish_free_spans(caplog) > 0
        assert got.completed.all()
        _assert_identical_state(((got, None), (want, None)))

    def test_scalar_tier_source_is_f_ordered(self, monkeypatch):
        """The scalar tier's ``uptimes[s:e, live]``, with a budget of
        40 failures inside 64 batch rounds: every task finishes on the
        ``inf`` round after the budget, past a 32-row span without a
        finish."""
        base = build_workload(get_scenario("exp-baseline-local"))
        n = 12
        workload = dataclasses.replace(
            base,
            te=np.linspace(3000.0, 4000.0, n),
            intervals=np.array([1, 1, 1, 3] * 3, dtype=np.int64),
            checkpoint_cost=np.full(n, 2.0),
            restart_cost=np.linspace(0.5, 2.0, n),
            dist_ids=np.zeros(n, dtype=np.int64),
            distributions={0: Exponential(1 / 10.0)},
            mem_mb=np.zeros(n),
            priority=np.zeros(n, dtype=np.int64),
            submit=np.zeros(n),
            cluster=dataclasses.replace(base.cluster,
                                        max_failures_per_task=40),
        )
        monkeypatch.setattr(runner, "_ROUNDS", 64)
        layouts = []
        monkeypatch.setattr(runner, "_simulate_blocked_core", record_draws(
            runner._simulate_blocked_core, layouts))
        got = runner.run_scalar(workload)
        monkeypatch.setattr(runner, "_simulate_blocked_core",
                            reference_round_loop)
        want = runner.run_scalar(workload)
        assert any(k >= 8 and m >= 2 and not c_ordered
                   for k, m, c_ordered in layouts)
        assert got.completed.all() and (got.n_failures == 40).all()
        assert got.wallclock.tolist() == want.wallclock.tolist()
        assert got.digest == want.digest

    def test_single_column_tail(self, caplog):
        """One checkpoint-free task stepped to ``max_segments``: its
        spans are one C-ordered column, which a reduce sums pairwise."""
        with caplog.at_level(logging.DEBUG, logger="repro.core.simulate"):
            for max_seg in (9, 100, 3000):
                _assert_identical_state(run_pair_at(
                    DEFAULT_BLOCK_ROUNDS, simulate_tasks_scaled,
                    np.array([1e6]), np.array([1]), 2.0, 1.5,
                    np.array([10.0]), seed=max_seg, restart_delay=0.25,
                    max_segments=max_seg))
        assert _finish_free_spans(caplog) > 0



class TestCommitFreeSpans:
    """A span in which no task can commit a checkpoint has one finish
    time per column and is scanned by column maximum."""

    def test_stragglers_below_their_cycle(self, caplog):
        """Checkpointed tasks whose uptimes stay below their cycle (the
        straggler tail of ``young`` and ``daly``) beside tasks that
        commit and finish."""
        te = np.array([5000.0, 6000.0, 300.0, 900.0, 40.0])
        x = np.array([5, 8, 6, 30, 2])
        scales = np.array([2.0, 3.0, 40.0, 25.0, 30.0])
        with caplog.at_level(logging.DEBUG, logger="repro.core.simulate"):
            for max_seg in (7, 500, 4000):
                _assert_identical_state(run_pair_at(
                    DEFAULT_BLOCK_ROUNDS, simulate_tasks_scaled, te, x,
                    1.0, 2.0, scales, seed=max_seg, restart_delay=0.5,
                    max_segments=max_seg))
        msg = [rec.getMessage() for rec in caplog.records
               if rec.name == "repro.core.simulate"]
        assert any(int(re.search(r"(\d+) commit-free", m).group(1)) > 0
                   for m in msg)

    def test_uptime_equal_to_the_cycle_commits(self):
        """An uptime of exactly ``L + C`` commits a checkpoint, so its
        span is not commit-free: the task then finishes on 2 cycles
        plus ``L`` (85), not 3 cycles plus ``L`` (115)."""
        te, x = np.array([100.0, 100.0]), np.array([4, 4])
        c, r = np.array([5.0, 5.0]), np.array([1.0, 1.0])
        mat = np.full((2, 40), 10.0)
        mat[0, 1] = 30.0
        for block_rounds in BLOCK_ROUNDS:
            pair = run_pair_at(block_rounds, simulate_tasks_replay,
                               te, x, c, r, mat)
            _assert_identical_state(pair)
        res = pair[0][0]
        assert res.wallclock[0] - res.wallclock[1] == (30.0 - 10.0) - 30.0


def _floor_pair(u, cycle):
    """``u // cycle`` and the scan's fast floor of it."""
    with np.errstate(invalid="ignore"):
        return u // cycle, simulate._floor_quotient(u, cycle)[0]


def _assert_same_bits(u, cycle):
    want, got = _floor_pair(u, cycle)
    assert got.tobytes() == want.tobytes(), (u, cycle, got, want)


_CYCLES = st.floats(1e-3, 1e4, allow_nan=False)


class TestFastFloor:
    """``_floor_quotient`` takes ``floor(u / c)`` and recomputes ``//``
    where that quotient is whole; it must equal ``u // c`` bit for bit."""

    def test_known_cases(self):
        # 1.0 / 0.1 rounds up to 10.0, but 1.0 // 0.1 is 9.0.
        u = np.array([[1.0, 0.0, np.inf, 2.0, 0.3, 7.5]])
        cycle = np.array([0.1, 0.1, 0.1, 1.0, 0.1, 2.5])
        _assert_same_bits(u, cycle)
        assert _floor_pair(u, cycle)[1][0, 0] == 9.0

    @staticmethod
    def _just_below(k, c):
        """``k * c`` and the three floats below it."""
        out = [k * c]
        for _ in range(3):
            out.append(float(np.nextafter(out[-1], 0.0)))
        return out

    def test_rounded_up_quotients_occur(self):
        """Uptimes just below ``k * c`` whose quotient rounds up to
        ``k`` while ``//`` says ``k - 1``: common, so the tests below
        meet them."""
        found = 0
        for c in (0.1, 0.3, 7.0 / 3.0, 1e-3 * 17):
            for k in range(1, 400):
                for u in self._just_below(k, c):
                    found += u / c == k and u // c == k - 1
                row = np.array([self._just_below(k, c)])
                _assert_same_bits(row, np.full(row.shape[1], c))
        assert found > 100

    @given(k=st.integers(1, 2**40), c=_CYCLES)
    @settings(max_examples=300, deadline=None)
    def test_quotient_rounded_up_onto_a_whole_number(self, k, c):
        row = np.array([[*self._just_below(k, c), 0.0, np.inf]])
        _assert_same_bits(row, np.full(row.shape[1], c))

    @given(data=st.data(), rows=st.integers(1, 6), cols=st.integers(1, 5))
    @settings(max_examples=300, deadline=None)
    def test_any_matrix(self, data, rows, cols):
        cycle = np.array(data.draw(st.lists(_CYCLES, min_size=cols,
                                            max_size=cols)))
        cell = st.one_of(
            st.floats(0.0, 1e7),
            st.sampled_from([0.0, np.inf]),
            # ``k * c`` stepped down by 0-3 floats
            st.tuples(st.integers(0, 10**6), st.integers(0, 3)),
        )
        u = np.empty((rows, cols))
        for i in range(rows):
            for j in range(cols):
                v = data.draw(cell)
                if isinstance(v, tuple):
                    k, below = v
                    v = k * cycle[j]
                    for _ in range(below):
                        v = np.nextafter(v, 0.0)
                u[i, j] = v
        _assert_same_bits(u, cycle)


def lanes_vs_separate(kernel, te, x, c, charges, *source, seed=None,
                      **kwargs):
    """``kernel`` once with the ``(n, L)`` matrix of ``charges`` and once
    per lane with its own column, each on a generator from ``seed``
    (none for a stateless kernel); returns ``(lane call, separate calls)``
    as ``(result, next draw)`` pairs, the lane call's result cut into
    one per lane."""

    def call(r):
        if seed is None:
            return kernel(te, x, c, r, *source, **kwargs), None
        rng = np.random.default_rng(seed)
        return kernel(te, x, c, r, *source, rng=rng, **kwargs), rng.random()

    res, nxt = call(np.stack(charges, axis=1))
    n = te.size
    lanes = [(SimulationResult(*(getattr(res, f.name)[i * n:(i + 1) * n]
                                 for f in dataclasses.fields(res))), nxt)
             for i in range(len(charges))]
    return lanes, [call(r) for r in charges]


def _assert_lanes_identical(pair):
    lanes, separate = pair
    assert len(lanes) == len(separate)
    for lane, one in zip(lanes, separate):
        _assert_identical((lane, one))


_CHARGES = st.lists(st.one_of(st.just(0.0), st.floats(0.0, 60.0)),
                    min_size=10, max_size=10)


class TestLanes:
    """Lanes of one call share the uptimes and every finish decision;
    each lane must get, bit for bit, what its own call gives, and the
    generator must end where each separate call leaves it."""

    @given(tasks=_tasks(), scale=st.lists(st.floats(0.5, 400.0),
                                          min_size=10, max_size=10),
           extra=st.lists(_CHARGES, min_size=0, max_size=3),
           zero_first=st.booleans())
    @settings(max_examples=120, deadline=None)
    def test_scaled_source(self, tasks, scale, extra, zero_first):
        te, x, c, r, d, max_seg, seed = tasks
        n = te.size
        charges = [np.zeros(n) if zero_first else r,
                   *(np.array(e[:n]) for e in extra)]
        _assert_lanes_identical(lanes_vs_separate(
            simulate_tasks_scaled, te, x, c, charges,
            np.array(scale[:n]), seed=seed, restart_delay=d,
            max_segments=max_seg))

    @given(tasks=_tasks(), extra=st.lists(_CHARGES, min_size=1, max_size=3),
           data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_replay_source(self, tasks, extra, data):
        """The replay source's F-ordered spans keep the ``cumsum`` in
        every lane."""
        te, x, c, r, d, _, _ = tasks
        n = te.size
        cols = data.draw(st.integers(0, 60))
        mat = np.array(data.draw(st.lists(
            st.lists(st.one_of(st.floats(0.0, 200.0), st.just(np.inf)),
                     min_size=cols, max_size=cols),
            min_size=n, max_size=n)), dtype=float).reshape(n, cols)
        _assert_lanes_identical(lanes_vs_separate(
            simulate_tasks_replay, te, x, c,
            [r, *(np.array(e[:n]) for e in extra)], mat, restart_delay=d))

    def test_rewinds_truncation_and_zero_charge(self, caplog):
        """A batch of one-interval tasks beside checkpointed ones, whose
        tail rewinds and runs finish-free spans, cut at round counts
        inside spans, with a lane that charges nothing."""
        rng = np.random.default_rng(4)
        n = 24
        te = rng.uniform(50, 5000, n)
        x = np.where(np.arange(n) % 3 == 0, 1, rng.integers(1, 30, n))
        scales = rng.uniform(5, 200, n)
        charges = [np.full(n, 1.0), np.zeros(n), rng.uniform(0, 40, n)]
        with caplog.at_level(logging.DEBUG, logger="repro.core.simulate"):
            for max_seg in (1, 2, 5, 7, 11, 100, 1237, 5000):
                _assert_lanes_identical(lanes_vs_separate(
                    simulate_tasks_scaled, te, x, 2.0, charges, scales,
                    seed=max_seg, restart_delay=0.5, max_segments=max_seg))
        assert _rewound_blocks(caplog) > 0
        assert _finish_free_spans(caplog) > 0
        assert any("3 lanes" in rec.getMessage() for rec in caplog.records)

    def test_single_live_column(self, caplog):
        """Stragglers that leave one live column, which every lane sums
        with the ``cumsum``."""
        te = np.array([1e6, 30.0, 50.0])
        x = np.array([1, 1, 2])
        scales = np.array([10.0, 40.0, 60.0])
        charges = [np.array([1.5, 0.5, 0.0]), np.zeros(3),
                   np.array([9.0, 3.0, 2.0])]
        with caplog.at_level(logging.DEBUG, logger="repro.core.simulate"):
            for max_seg in (9, 100, 3000):
                _assert_lanes_identical(lanes_vs_separate(
                    simulate_tasks_scaled, te, x, 2.0, charges, scales,
                    seed=max_seg, restart_delay=0.25, max_segments=max_seg))
        assert _finish_free_spans(caplog) > 0
