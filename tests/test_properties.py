"""Property-based tests (hypothesis) on the core invariants."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.adaptive import AdaptiveCheckpointer
from repro.core.formulas import (
    expected_wallclock,
    interval_to_count,
    optimal_interval_count,
    optimal_interval_count_int,
)
from repro.core.placement import select_storage, select_storage_batch
from repro.core.simulate import simulate_task, simulate_tasks_replay
from repro.failures.injector import TraceReplayInjector
from repro.metrics.cdf import ecdf
from repro.metrics.wpr import wpr_from_arrays
from repro.storage.blcr import BLCRModel

pos_te = st.floats(min_value=1.0, max_value=1e5)
pos_cost = st.floats(min_value=1e-3, max_value=50.0)
mnof_vals = st.floats(min_value=0.0, max_value=100.0)
restart_vals = st.floats(min_value=0.0, max_value=50.0)


class TestFormulaProperties:
    @given(te=pos_te, mnof=st.floats(min_value=1e-3, max_value=100.0),
           c=pos_cost, r=restart_vals)
    def test_integer_optimum_beats_neighbors(self, te, mnof, c, r):
        """Eq. 4 is convex, so the chosen integer must beat x-1 and x+1."""
        x = int(optimal_interval_count_int(te, mnof, c, r))
        assert x >= 1
        best = expected_wallclock(te, x, c, r, mnof)
        for other in (x - 1, x + 1):
            if other >= 1:
                assert best <= expected_wallclock(te, other, c, r, mnof) * (1 + 1e-12)

    @given(te=pos_te, mnof=mnof_vals, c=pos_cost)
    def test_xstar_nonnegative_and_scales(self, te, mnof, c):
        x = float(optimal_interval_count(te, mnof, c))
        assert x >= 0.0
        x4 = float(optimal_interval_count(4 * te, mnof, c))
        assert x4 == pytest.approx(2 * x, rel=1e-9)

    @given(te=pos_te, interval=st.floats(min_value=0.1, max_value=1e6))
    def test_interval_to_count_at_least_one(self, te, interval):
        assert interval_to_count(te, interval) >= 1

    @given(te=pos_te, x=st.integers(min_value=1, max_value=1000),
           c=pos_cost, r=restart_vals, mnof=mnof_vals)
    def test_wallclock_at_least_te(self, te, x, c, r, mnof):
        assert expected_wallclock(te, x, c, r, mnof) >= te


class TestSimulationProperties:
    @given(
        te=st.floats(min_value=10.0, max_value=5000.0),
        x=st.integers(min_value=1, max_value=50),
        c=st.floats(min_value=0.01, max_value=5.0),
        r=st.floats(min_value=0.0, max_value=10.0),
        intervals=st.lists(
            st.floats(min_value=0.5, max_value=2000.0), max_size=8
        ),
    )
    @settings(max_examples=200)
    def test_scalar_replay_invariants(self, te, x, c, r, intervals):
        out = simulate_task(te, x, c, r, TraceReplayInjector(intervals))
        assert out.completed
        # Wall-clock always covers the productive work.
        assert out.wallclock >= te - 1e-6
        assert out.n_failures <= len(intervals)
        assert 0 < out.wpr <= 1.0 + 1e-9

    @given(
        te=st.floats(min_value=10.0, max_value=5000.0),
        x=st.integers(min_value=1, max_value=50),
        c=st.floats(min_value=0.01, max_value=5.0),
        r=st.floats(min_value=0.0, max_value=10.0),
        intervals=st.lists(
            st.floats(min_value=0.5, max_value=2000.0), max_size=8
        ),
    )
    @settings(max_examples=100)
    def test_vectorized_replay_equals_scalar(self, te, x, c, r, intervals):
        """Bit for bit: both add ``u + R`` per failure in the same order."""
        mat = np.full((1, max(len(intervals), 1)), np.inf)
        if intervals:
            mat[0, : len(intervals)] = intervals
        batch = simulate_tasks_replay(
            np.array([te]), np.array([x]), np.array([c]), np.array([r]), mat
        )
        ref = simulate_task(te, x, c, r, TraceReplayInjector(intervals))
        assert batch.wallclock[0] == ref.wallclock
        assert batch.n_failures[0] == ref.n_failures


class TestAdaptiveProperties:
    @given(
        te=st.floats(min_value=10.0, max_value=1e5),
        c=st.floats(min_value=0.01, max_value=10.0),
        mnof=st.floats(min_value=0.0, max_value=50.0),
    )
    @settings(max_examples=100)
    def test_theorem2_chain_terminates_at_one(self, te, c, mnof):
        ck = AdaptiveCheckpointer(te=te, checkpoint_cost=c, mnof=mnof)
        x0 = ck.plan.interval_count
        for _ in range(x0 - 1):
            ck.on_checkpoint()
        assert ck.plan.interval_count == 1
        assert ck.next_checkpoint_in() == float("inf")

    @given(
        te=st.floats(min_value=10.0, max_value=1e4),
        c=st.floats(min_value=0.01, max_value=10.0),
        mnof1=st.floats(min_value=0.0, max_value=20.0),
        mnof2=st.floats(min_value=0.0, max_value=20.0),
    )
    @settings(max_examples=100)
    def test_mnof_change_monotone(self, te, c, mnof1, mnof2):
        """A larger MNOF never plans fewer intervals."""
        a = AdaptiveCheckpointer(te=te, checkpoint_cost=c, mnof=mnof1)
        b = AdaptiveCheckpointer(te=te, checkpoint_cost=c, mnof=mnof2)
        if mnof1 <= mnof2:
            assert a.plan.interval_count <= b.plan.interval_count
        else:
            assert a.plan.interval_count >= b.plan.interval_count


class TestPlacementProperties:
    @given(
        te=st.floats(min_value=1.0, max_value=1e4),
        mnof=st.floats(min_value=0.0, max_value=20.0),
        mem=st.floats(min_value=10.0, max_value=500.0),
    )
    @settings(max_examples=100)
    def test_batch_agrees_with_scalar(self, te, mnof, mem):
        local_wins, ckpt, rst = select_storage_batch(
            np.array([te]), np.array([mnof]), np.array([mem])
        )
        d = select_storage(te, mnof, BLCRModel(mem_mb=mem))
        assert bool(local_wins[0]) == d.checkpoint_target_is_local

    @given(
        te=st.floats(min_value=1.0, max_value=1e4),
        mnof=st.floats(min_value=0.0, max_value=20.0),
        mem=st.floats(min_value=10.0, max_value=500.0),
    )
    @settings(max_examples=100)
    def test_decision_costs_consistent(self, te, mnof, mem):
        d = select_storage(te, mnof, BLCRModel(mem_mb=mem))
        if d.checkpoint_target_is_local:
            assert d.cost_local <= d.cost_shared
        else:
            assert d.cost_shared <= d.cost_local
        assert d.saving == pytest.approx(abs(d.cost_local - d.cost_shared))


class TestMetricProperties:
    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6),
                    min_size=1, max_size=200))
    def test_ecdf_monotone_unit_range(self, values):
        xs, ys = ecdf(values)
        assert np.all(np.diff(xs) >= 0)
        assert np.all(np.diff(ys) >= 0)
        assert 0 < ys[0] <= 1.0
        assert ys[-1] == pytest.approx(1.0)

    @given(
        work_wall=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=100.0),
                st.floats(min_value=100.0, max_value=1000.0),
            ),
            min_size=1,
            max_size=50,
        ),
        n_jobs=st.integers(min_value=1, max_value=5),
    )
    def test_wpr_in_unit_interval(self, work_wall, n_jobs):
        work = np.array([w for w, _ in work_wall])
        wall = np.array([t for _, t in work_wall])
        ids = np.random.default_rng(0).integers(0, n_jobs, size=len(work_wall))
        out = wpr_from_arrays(work, wall, ids)
        assert np.all(out >= 0) and np.all(out <= 1.0)
