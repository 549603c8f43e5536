"""Unit tests for the Monte-Carlo execution tier.

The scalar reference (:func:`simulate_task`) and the batch kernels
(:func:`simulate_tasks_blocked`, :func:`simulate_tasks_scaled`,
:func:`simulate_tasks_replay`) must agree exactly for identical failure
sequences — these tests pin that contract plus the closed-form
arithmetic of the execution model.  ``test_uptime_harness.py`` holds
the property-based version of the agreement.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.formulas import optimal_interval_count_int
from repro.core.simulate import (
    _simulate_blocked_core,
    simulate_task,
    simulate_task_two_phase,
    simulate_tasks_blocked,
    simulate_tasks_replay,
    simulate_tasks_scaled,
)
from repro.failures.distributions import Empirical, Exponential
from repro.failures.injector import FailureInjector, TraceReplayInjector


class _ScriptedLaw:
    """Failure law whose draws pop from a fixed list of uptimes."""

    def __init__(self, uptimes):
        self.uptimes = list(uptimes)

    def sample(self, rng, size=1):
        return np.array([self.uptimes.pop(0)])


class _ConstantInjector:
    """Scalar-tier injector failing after a fixed uptime, forever."""

    def __init__(self, uptime: float):
        self.uptime = uptime

    def next_failure_in(self) -> float:
        return self.uptime


class TestScalarNoFailures:
    def test_wallclock_is_te_plus_checkpoints(self):
        out = simulate_task(100.0, 4, 2.0, 1.0, TraceReplayInjector([]))
        # 4 intervals -> 3 checkpoints of 2 s each.
        assert out.wallclock == pytest.approx(100.0 + 3 * 2.0)
        assert out.completed
        assert out.n_failures == 0
        assert out.n_checkpoints == 3

    def test_single_interval_no_overhead(self):
        out = simulate_task(50.0, 1, 2.0, 1.0, TraceReplayInjector([]))
        assert out.wallclock == pytest.approx(50.0)

    def test_wpr(self):
        out = simulate_task(100.0, 4, 2.0, 1.0, TraceReplayInjector([]))
        assert out.wpr == pytest.approx(100.0 / 106.0)


class TestScalarWithFailures:
    def test_exact_rollback_arithmetic(self):
        """te=100, x=4 (L=25, C=2, cycle=27).  One failure at uptime 30:
        one checkpoint committed (27 s), 3 s into interval 2 lost;
        restart costs R=5.  Then run to completion from checkpoint 1:
        2 cycles (54) + final 25."""
        inj = TraceReplayInjector([30.0])
        out = simulate_task(100.0, 4, 2.0, 5.0, inj)
        assert out.n_failures == 1
        assert out.wallclock == pytest.approx(30.0 + 5.0 + 2 * 27.0 + 25.0)
        assert out.completed

    def test_failure_before_first_checkpoint_loses_everything(self):
        inj = TraceReplayInjector([20.0])
        out = simulate_task(100.0, 4, 2.0, 5.0, inj)
        # 20 s lost + R, then full clean run: 3 cycles + final 25.
        assert out.wallclock == pytest.approx(20.0 + 5.0 + 3 * 27.0 + 25.0)

    def test_failure_in_final_stretch(self):
        # All checkpoints committed at 3*27=81; failure at 100 is 19 s
        # into the final run; resume from checkpoint 3: final 25 s.
        inj = TraceReplayInjector([100.0])
        out = simulate_task(100.0, 4, 2.0, 5.0, inj)
        assert out.wallclock == pytest.approx(100.0 + 5.0 + 25.0)

    def test_no_checkpoints_restart_from_scratch(self):
        inj = TraceReplayInjector([40.0, 70.0])
        out = simulate_task(100.0, 1, 2.0, 3.0, inj)
        assert out.wallclock == pytest.approx(40 + 3 + 70 + 3 + 100)
        assert out.n_failures == 2

    def test_restart_delay_added(self):
        inj = TraceReplayInjector([30.0])
        base = simulate_task(100.0, 4, 2.0, 5.0, TraceReplayInjector([30.0]))
        delayed = simulate_task(100.0, 4, 2.0, 5.0, inj, restart_delay=7.0)
        assert delayed.wallclock == pytest.approx(base.wallclock + 7.0)

    def test_max_segments_abandons(self):
        inj = FailureInjector(Exponential(10.0), np.random.default_rng(0))
        out = simulate_task(1000.0, 2, 1.0, 1.0, inj, max_segments=5)
        assert not out.completed
        assert out.n_failures == 5

    def test_validation(self):
        with pytest.raises(ValueError):
            simulate_task(0.0, 1, 1.0, 1.0, TraceReplayInjector([]))
        with pytest.raises(ValueError):
            simulate_task(1.0, 0, 1.0, 1.0, TraceReplayInjector([]))
        with pytest.raises(ValueError):
            simulate_task(1.0, 1, -1.0, 1.0, TraceReplayInjector([]))


class TestVectorizedAgreement:
    def test_replay_matches_scalar(self, rng):
        n = 200
        te = rng.uniform(50, 1000, n)
        x = rng.integers(1, 12, n)
        c = rng.uniform(0.1, 3.0, n)
        r = rng.uniform(0.1, 5.0, n)
        max_f = 6
        mat = np.full((n, max_f), np.inf)
        for i in range(n):
            k = int(rng.integers(0, max_f))
            mat[i, :k] = rng.uniform(5, 500, k)
        batch = simulate_tasks_replay(te, x, c, r, mat)
        for i in range(n):
            ivs = mat[i][np.isfinite(mat[i])]
            ref = simulate_task(
                float(te[i]), int(x[i]), float(c[i]), float(r[i]),
                TraceReplayInjector(list(ivs)),
            )
            assert batch.wallclock[i] == ref.wallclock, i
            assert batch.n_failures[i] == ref.n_failures, i
            assert bool(batch.completed[i]) == ref.completed, i

    def test_distribution_draw_matches_scalar_sequence(self):
        """simulate_tasks_blocked with one task must equal simulate_task
        driven by the same RNG stream: blocks of ``(k, 1)`` draws consume
        the stream in the scalar order."""
        dist = Exponential(1 / 200.0)
        batch = simulate_tasks_blocked(
            np.array([500.0]), np.array([5]), np.array([1.0]), np.array([2.0]),
            np.array([0]), {0: dist}, np.random.default_rng(42),
        )
        ref = simulate_task(
            500.0, 5, 1.0, 2.0,
            FailureInjector(dist, np.random.default_rng(42)),
        )
        assert ref.n_failures > 0  # not vacuous
        assert batch.wallclock[0] == ref.wallclock
        assert batch.n_failures[0] == ref.n_failures

    def test_result_accessors(self, rng):
        te = np.full(50, 300.0)
        res = simulate_tasks_blocked(
            te, np.full(50, 4), 1.0, 1.0, np.zeros(50, dtype=int),
            {0: Exponential(1 / 100.0)}, rng,
        )
        assert res.n_tasks == 50
        assert res.wpr.shape == (50,)
        assert np.all(res.wpr > 0) and np.all(res.wpr <= 1.0)
        assert 0 < res.mean_wpr() <= 1.0

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            simulate_tasks_blocked(np.array([-1.0]), np.array([1]), 1.0, 1.0,
                                   np.array([0]), {0: Exponential(1.0)}, rng)
        with pytest.raises(KeyError):
            simulate_tasks_blocked(np.array([1.0]), np.array([1]), 1.0, 1.0,
                                   np.array([9]), {0: Exponential(1.0)}, rng)
        with pytest.raises(ValueError):
            simulate_tasks_replay(np.array([1.0]), np.array([1]), 1.0, 1.0,
                                  np.zeros(3))  # wrong matrix shape


class TestReplayValidation:
    """The replay kernel validates like the other batch kernels."""

    @staticmethod
    def _replay(c=1.0, r=1.0, d=0.0, mat=((30.0,),)):
        return simulate_tasks_replay(np.array([100.0]), np.array([4]), c, r,
                                     np.array(mat), restart_delay=d)

    def test_accepts_a_plain_record(self):
        res = self._replay()
        assert res.completed[0] and res.n_failures[0] == 1

    def test_rejects_negative_checkpoint_cost(self):
        with pytest.raises(ValueError):
            self._replay(c=-5.0)

    def test_rejects_negative_restart_cost(self):
        with pytest.raises(ValueError):
            self._replay(r=-3.0)

    def test_rejects_negative_restart_delay(self):
        with pytest.raises(ValueError):
            self._replay(d=-1.0)

    def test_rejects_nan_uptime(self):
        with pytest.raises(ValueError):
            self._replay(mat=((30.0, np.nan),))

    def test_rejects_negative_uptime(self):
        with pytest.raises(ValueError):
            self._replay(mat=((-30.0,),))

    def test_rejects_row_count_mismatch(self):
        with pytest.raises(ValueError):
            simulate_tasks_replay(np.array([100.0, 50.0]), np.array([4, 2]),
                                  1.0, 1.0, np.full((3, 2), np.inf))

    def test_inf_padding_and_zero_uptime_are_valid(self):
        res = self._replay(mat=((0.0, np.inf, np.inf),))
        assert res.completed[0] and res.n_failures[0] == 1


class TestTwoPhase:
    def test_no_failures_completes_with_phase1_plan(self):
        calm = Exponential(1e-9)
        out = simulate_task_two_phase(
            100.0, 2.0, 1.0, calm, calm, 2.0, 2.0,
            np.random.default_rng(0),
        )
        assert out.completed
        # Failure-free: wall-clock is te plus exactly the checkpoints
        # written (including the adaptive one at the regime switch).
        assert out.wallclock == pytest.approx(100.0 + out.n_checkpoints * 2.0)
        assert out.n_failures == 0

    def test_adaptive_beats_static_calm_to_hot(self):
        calm = Exponential(1e-6)
        hot = Exponential(1 / 100.0)
        walls = {}
        for adaptive in (True, False):
            rng = np.random.default_rng(7)
            total = 0.0
            for _ in range(300):
                out = simulate_task_two_phase(
                    600.0, 1.0, 1.0, calm, hot, 0.0, 5.0, rng,
                    adaptive=adaptive,
                )
                total += out.wallclock
            walls[adaptive] = total
        assert walls[True] < walls[False] * 0.75

    def test_hot_to_calm_no_big_difference(self):
        hot = Exponential(1 / 100.0)
        calm = Exponential(1e-6)
        walls = {}
        for adaptive in (True, False):
            rng = np.random.default_rng(7)
            total = 0.0
            for _ in range(200):
                out = simulate_task_two_phase(
                    600.0, 1.0, 1.0, hot, calm, 6.0, 0.1, rng,
                    adaptive=adaptive,
                )
                total += out.wallclock
            walls[adaptive] = total
        assert walls[True] == pytest.approx(walls[False], rel=0.15)

    def test_wall_at_least_te(self, rng):
        out = simulate_task_two_phase(
            300.0, 1.0, 1.0, Exponential(1 / 500.0), Exponential(1 / 200.0),
            1.0, 2.0, rng,
        )
        assert out.wallclock >= 300.0

    def test_validation(self, rng):
        d = Exponential(1.0)
        with pytest.raises(ValueError):
            simulate_task_two_phase(0.0, 1.0, 1.0, d, d, 1.0, 1.0, rng)
        with pytest.raises(ValueError):
            simulate_task_two_phase(1.0, 1.0, 1.0, d, d, 1.0, 1.0, rng,
                                    switch_fraction=1.5)
        with pytest.raises(ValueError):
            simulate_task_two_phase(1.0, 0.0, 1.0, d, d, 1.0, 1.0, rng)

    @pytest.mark.parametrize("bad", [
        {"te": np.nan}, {"checkpoint_cost": np.nan},
        {"restart_cost": np.nan}, {"restart_cost": -30.0},
        {"restart_delay": np.nan}, {"restart_delay": -30.0},
        {"mnof_phase1": np.nan}, {"mnof_phase2": np.nan},
        {"mnof_phase1": -1.0}, {"switch_fraction": np.nan},
    ])
    def test_rejects_nan_and_negative_inputs(self, bad):
        args = dict(te=100.0, checkpoint_cost=1.0, restart_cost=1.0,
                    dist_phase1=Exponential(1.0), dist_phase2=Exponential(1.0),
                    mnof_phase1=1.0, mnof_phase2=1.0,
                    rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            simulate_task_two_phase(**{**args, **bad})

    def test_adaptive_phase2_is_simulate_task_on_the_rest(self):
        """te=100, x1=10 (L=10, C=1), switch at 55 (j_s=5).  Phase 1
        fails at 23 (checkpoints 1-2 committed) and then reaches the
        switch; from there the run is ``simulate_task`` on the
        remaining 45 s with the recomputed x2."""
        phase1 = _ScriptedLaw([23.0, 40.0])
        phase2_uptimes = [12.0, 3.0, 30.0]
        phase2 = _ScriptedLaw(phase2_uptimes + [np.inf])
        out = simulate_task_two_phase(
            100.0, 1.0, 2.0, phase1, phase2, 2.0, 8.0,
            np.random.default_rng(0), switch_fraction=0.55, restart_delay=0.5,
        )
        assert out.intervals == 10
        assert not phase1.uptimes and not phase2.uptimes
        x2 = optimal_interval_count_int(45.0, 8.0 * 45.0 / 100.0, 1.0)
        rest = simulate_task(45.0, x2, 1.0, 2.0,
                             TraceReplayInjector(phase2_uptimes),
                             restart_delay=0.5)
        assert out.completed == rest.completed
        assert out.n_failures == 1 + rest.n_failures
        assert out.n_checkpoints == 5 + 1 + rest.n_checkpoints
        phase1_wall = 23.0 + 2.5 + 3 * 11.0 + 5.0
        assert out.wallclock == pytest.approx(phase1_wall + 1.0 + rest.wallclock)

    def test_switch_on_a_position_counts_it_before_the_switch(self):
        """x1 = 6 puts position 3 on the switch in exact arithmetic,
        where the float ``0.5 * te // L`` says 2.0; the integer rule
        writes position 3 before the adaptive checkpoint."""
        te, mnof = 95.62767002516944, 0.691358024691358
        assert optimal_interval_count_int(te, mnof, 1.0) == 6
        assert 0.5 * te // (te / 6) == 2.0
        calm = _ScriptedLaw([np.inf] * 2)
        out = simulate_task_two_phase(te, 1.0, 1.0, calm, calm, mnof, mnof,
                                      np.random.default_rng(0))
        rest = te - 0.5 * te
        x2 = optimal_interval_count_int(rest, mnof * rest / te, 1.0)
        assert out.completed and out.n_failures == 0
        assert out.n_checkpoints == 3 + 1 + (x2 - 1)
        assert out.wallclock == pytest.approx(te + out.n_checkpoints * 1.0)


class TestBlockedFastPath:
    """The redraw kernels on the blocked round loop."""

    def _batch(self, n=20_000, seed=0):
        rng = np.random.default_rng(seed)
        te = rng.uniform(100, 2000, n)
        x = np.maximum(1, (np.sqrt(te) / 3).astype(np.int64))
        c = rng.uniform(0.1, 2.0, n)
        r = rng.uniform(0.5, 3.0, n)
        return te, x, c, r

    def test_deterministic_for_fixed_seed(self):
        te, x, c, r = self._batch(n=2000)
        dists = {0: Exponential(1 / 250.0)}
        ids = np.zeros(te.size, dtype=np.int64)
        d1 = simulate_tasks_blocked(
            te, x, c, r, ids, dists, np.random.default_rng(9)).digest()
        d2 = simulate_tasks_blocked(
            te, x, c, r, ids, dists, np.random.default_rng(9)).digest()
        assert d1 == d2

    def test_scaled_matches_per_task_exponential(self):
        """simulate_tasks_scaled is the frailty redraw: per-task
        exponential means.  Cross-check against the blocked catalog
        path with per-task Exponential distributions."""
        te, x, c, r = self._batch(n=5000, seed=3)
        scales = np.random.default_rng(8).uniform(100, 900, te.size)
        res = simulate_tasks_scaled(te, x, c, r, scales,
                                    np.random.default_rng(5))
        dists = {i: Exponential(1.0 / scales[i]) for i in range(te.size)}
        ref = simulate_tasks_blocked(te, x, c, r, np.arange(te.size),
                                     dists, np.random.default_rng(6))
        assert res.summary()["mean_wallclock"] == pytest.approx(
            ref.summary()["mean_wallclock"], rel=0.03)
        assert res.summary()["mean_failures"] == pytest.approx(
            ref.summary()["mean_failures"], rel=0.03, abs=0.05)

    def test_validation(self):
        with pytest.raises(ValueError):
            _simulate_blocked_core(
                np.array([1.0]), np.array([1]), np.array([1.0]),
                np.array([1.0]), np.array([0]), None, 0.0, 10,
                block_rounds=0)
        with pytest.raises(KeyError):
            simulate_tasks_blocked(
                np.array([1.0]), np.array([1]), 1.0, 1.0, np.array([9]),
                {0: Exponential(1.0)}, np.random.default_rng(0))
        with pytest.raises(ValueError):
            simulate_tasks_scaled(
                np.array([1.0]), np.array([1]), 1.0, 1.0, np.array([0.0]),
                np.random.default_rng(0))


_NAN = float("nan")
_GOOD = dict(te=100.0, checkpoint_cost=1.0, restart_cost=1.0,
             restart_delay=0.0)


class TestNanInputsRejected:
    """A ``nan`` parameter used to pass validation and run the full
    ``max_segments`` rounds into a silently truncated task."""

    @pytest.mark.parametrize("param", sorted(_GOOD))
    def test_scalar(self, param):
        p = {**_GOOD, param: _NAN}
        with pytest.raises(ValueError):
            simulate_task(p["te"], 4, p["checkpoint_cost"], p["restart_cost"],
                          _ConstantInjector(10.0),
                          restart_delay=p["restart_delay"])

    @pytest.mark.parametrize("param", sorted(_GOOD))
    def test_blocked(self, param):
        p = {**_GOOD, param: _NAN}
        with pytest.raises(ValueError):
            simulate_tasks_blocked(
                np.array([50.0, p["te"]]), np.array([4, 4]),
                p["checkpoint_cost"], p["restart_cost"], np.zeros(2, int),
                {0: Exponential(1 / 100.0)}, np.random.default_rng(0),
                restart_delay=p["restart_delay"])

    @pytest.mark.parametrize("param", sorted(_GOOD) + ["interval_scale"])
    def test_scaled(self, param):
        p = {**_GOOD, "interval_scale": 100.0, param: _NAN}
        with pytest.raises(ValueError):
            simulate_tasks_scaled(
                np.array([50.0, p["te"]]), np.array([4, 4]),
                p["checkpoint_cost"], p["restart_cost"],
                np.array([100.0, p["interval_scale"]]),
                np.random.default_rng(0), restart_delay=p["restart_delay"])


class TestTruncationRule:
    """max_segments truncation must be identical across tiers: after
    ``max_segments`` failures a task reports ``completed=False``, its
    accumulated wallclock, and (scalar tier) the checkpoints actually
    committed."""

    MAX_SEG = 50

    def test_scalar_vs_vector_never_completing(self):
        """Pathological scenario: every uptime is 10 s, the task needs
        1000 s uninterrupted — no tier may ever complete it, and all
        must truncate identically."""
        n = 8
        te = np.full(n, 1000.0)
        x = np.ones(n, dtype=np.int64)
        dists = {0: Empirical([10.0])}  # always draws exactly 10.0
        ids = np.zeros(n, dtype=np.int64)
        blk = simulate_tasks_blocked(te, x, 0.0, 2.0, ids, dists,
                                     np.random.default_rng(0),
                                     max_segments=self.MAX_SEG)
        ref = simulate_task(1000.0, 1, 0.0, 2.0, _ConstantInjector(10.0),
                            max_segments=self.MAX_SEG)
        assert not ref.completed
        assert ref.n_failures == self.MAX_SEG
        assert ref.n_checkpoints == 0  # nothing ever committed
        assert ref.wallclock == pytest.approx(self.MAX_SEG * 12.0)
        assert not blk.completed.any()
        np.testing.assert_array_equal(blk.n_failures, self.MAX_SEG)
        np.testing.assert_array_equal(blk.wallclock, ref.wallclock)

    def test_scalar_truncation_reports_committed_checkpoints(self):
        """te=100, x=4 (L=25, C=2, cycle=27): uptime 30 commits exactly
        one checkpoint per segment until the cap."""
        out = simulate_task(100.0, 4, 2.0, 1.0, _ConstantInjector(30.0),
                            max_segments=2)
        assert not out.completed
        assert out.n_failures == 2
        assert out.n_checkpoints == 2  # one per 30-s uptime (30 // 27)

    def test_summary_surfaces_truncation_count(self):
        n = 5
        dists = {0: Empirical([10.0])}
        res = simulate_tasks_blocked(
            np.full(n, 1000.0), np.ones(n, dtype=np.int64), 0.0, 0.0,
            np.zeros(n, dtype=np.int64), dists, np.random.default_rng(0),
            max_segments=10)
        s = res.summary()
        assert s["n_truncated"] == float(n)
        assert s["completion_rate"] == 0.0

    def test_summary_zero_truncated_when_all_complete(self, rng):
        res = simulate_tasks_blocked(
            np.full(10, 100.0), np.full(10, 2), 1.0, 1.0,
            np.zeros(10, dtype=np.int64), {0: Exponential(1 / 1000.0)}, rng)
        assert res.summary()["n_truncated"] == 0.0


class TestCanonicalWprSemantics:
    """Regression pins for the unified WPR definition (clamped to
    [0, 1]; wallclock <= 0 maps to 0.0) across the simulation layer."""

    def test_task_outcome_clamped(self):
        from repro.core.simulate import TaskOutcome

        out = TaskOutcome(te=100.0, wallclock=106.0, n_failures=0,
                          n_checkpoints=3, intervals=4, completed=True)
        assert out.wpr == pytest.approx(100.0 / 106.0)
        degenerate = TaskOutcome(te=100.0, wallclock=0.0, n_failures=0,
                                 n_checkpoints=0, intervals=1,
                                 completed=False)
        assert degenerate.wpr == 0.0
        # float noise above 1 clamps instead of leaking
        noisy = TaskOutcome(te=100.0 * (1 + 1e-12), wallclock=100.0,
                            n_failures=0, n_checkpoints=0, intervals=1,
                            completed=True)
        assert noisy.wpr == 1.0

    def test_simulation_result_clamped(self):
        from repro.core.simulate import SimulationResult

        res = SimulationResult(
            te=np.array([100.0, 50.0, 10.0]),
            wallclock=np.array([200.0, 0.0, 10.0 - 1e-13]),
            n_failures=np.zeros(3, dtype=np.int64),
            intervals=np.ones(3, dtype=np.int64),
            completed=np.array([True, False, True]),
        )
        np.testing.assert_allclose(res.wpr, [0.5, 0.0, 1.0])
        assert res.summary()["mean_wpr"] == pytest.approx((0.5 + 0.0 + 1.0) / 3)

    def test_matches_metrics_task_wpr(self):
        """One definition across layers: the simulation tiers and
        metrics.task_wpr agree wherever the latter's validation admits
        the input."""
        from repro.core.simulate import TaskOutcome
        from repro.metrics.wpr import task_wpr

        out = TaskOutcome(te=90.0, wallclock=120.0, n_failures=1,
                          n_checkpoints=2, intervals=3, completed=True)
        assert out.wpr == task_wpr(90.0, 120.0)
