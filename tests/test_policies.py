"""Unit tests for checkpoint policies and task profiles."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.policies import (
    DalyPolicy,
    FixedCountPolicy,
    FixedIntervalPolicy,
    NoCheckpointPolicy,
    OptimalCountPolicy,
    TaskProfile,
    YoungPolicy,
)

PROFILE = TaskProfile(
    te=300.0, checkpoint_cost=1.0, restart_cost=2.0, mnof=2.0, mtbf=150.0,
    priority=3,
)


class TestTaskProfile:
    def test_validation(self):
        with pytest.raises(ValueError):
            TaskProfile(te=0.0, checkpoint_cost=1.0)
        with pytest.raises(ValueError):
            TaskProfile(te=1.0, checkpoint_cost=0.0)
        with pytest.raises(ValueError):
            TaskProfile(te=1.0, checkpoint_cost=1.0, restart_cost=-1.0)
        with pytest.raises(ValueError):
            TaskProfile(te=1.0, checkpoint_cost=1.0, mnof=-1.0)
        with pytest.raises(ValueError):
            TaskProfile(te=1.0, checkpoint_cost=1.0, mtbf=0.0)

    def test_with_remaining(self):
        half = PROFILE.with_remaining(150.0, 1.0)
        assert half.te == 150.0
        assert half.mnof == 1.0
        assert half.checkpoint_cost == PROFILE.checkpoint_cost

    def test_defaults(self):
        p = TaskProfile(te=10.0, checkpoint_cost=1.0)
        assert p.mnof == 0.0
        assert math.isinf(p.mtbf)


ALL_POLICIES = {
    "optimal": OptimalCountPolicy(),
    "young": YoungPolicy(),
    "daly": DalyPolicy(),
    "fixed-interval": FixedIntervalPolicy(120.0),
    "fixed-count": FixedCountPolicy(7),
    "none": NoCheckpointPolicy(),
}


@pytest.mark.parametrize("name", list(ALL_POLICIES))
def test_vectorized_matches_scalar(name):
    """Every policy's batch form equals its per-task form, task by task."""
    pol = ALL_POLICIES[name]
    te = np.array([18.0, 100.0, 300.0, 500.0, 900.0, 1000.0, 2000.0])
    c = np.array([2.0, 1.0, 2.0, 1.0, 1.0, 2.0, 0.05])
    r = np.array([0.0, 0.5, 0.0, 3.0, 0.0, 1.0, 2.0])
    mnof = np.array([2.0, 0.0, 1.5, 0.3, 0.0, 4.0, 9.0])
    mtbf = np.array([9.0, 50.0, 200.0, np.inf, np.inf, 100.0, 1000.0])
    batch = pol.interval_counts(te, c, r, mnof, mtbf)
    assert batch.dtype == np.int64
    for i in range(te.size):
        prof = TaskProfile(te=te[i], checkpoint_cost=c[i], restart_cost=r[i],
                           mnof=mnof[i], mtbf=float(mtbf[i]))
        assert batch[i] == pol.interval_count(prof), i


class TestOptimalCountPolicy:
    def test_paper_example(self):
        p = TaskProfile(te=18.0, checkpoint_cost=2.0, mnof=2.0)
        assert OptimalCountPolicy().interval_count(p) == 3

    def test_zero_mnof_one_interval(self):
        p = TaskProfile(te=100.0, checkpoint_cost=1.0, mnof=0.0)
        assert OptimalCountPolicy().interval_count(p) == 1

    def test_checkpoint_interval(self):
        p = TaskProfile(te=18.0, checkpoint_cost=2.0, mnof=2.0)
        assert OptimalCountPolicy().checkpoint_interval(p) == pytest.approx(6.0)


class TestYoungPolicy:
    def test_matches_formula(self):
        pol = YoungPolicy()
        tc = math.sqrt(2 * PROFILE.checkpoint_cost * PROFILE.mtbf)
        assert pol.interval_count(PROFILE) == max(1, round(PROFILE.te / tc))

    def test_infinite_mtbf_no_checkpoints(self):
        p = TaskProfile(te=100.0, checkpoint_cost=1.0)
        assert YoungPolicy().interval_count(p) == 1

    def test_larger_mtbf_fewer_checkpoints(self):
        p_small = TaskProfile(te=600.0, checkpoint_cost=1.0, mtbf=50.0)
        p_big = TaskProfile(te=600.0, checkpoint_cost=1.0, mtbf=5000.0)
        pol = YoungPolicy()
        assert pol.interval_count(p_small) > pol.interval_count(p_big)


class TestDalyPolicy:
    def test_close_to_young_for_small_c(self):
        p = TaskProfile(te=10_000.0, checkpoint_cost=0.1, mtbf=10_000.0)
        young = YoungPolicy().interval_count(p)
        daly = DalyPolicy().interval_count(p)
        assert abs(young - daly) <= 1

    def test_infinite_mtbf(self):
        p = TaskProfile(te=100.0, checkpoint_cost=1.0)
        assert DalyPolicy().interval_count(p) == 1


class TestFixedPolicies:
    def test_fixed_interval(self):
        pol = FixedIntervalPolicy(50.0)
        p = TaskProfile(te=300.0, checkpoint_cost=1.0)
        assert pol.interval_count(p) == 6

    def test_fixed_interval_validation(self):
        with pytest.raises(ValueError):
            FixedIntervalPolicy(0.0)

    def test_fixed_count(self):
        pol = FixedCountPolicy(7)
        assert pol.interval_count(PROFILE) == 7

    def test_fixed_count_validation(self):
        with pytest.raises(ValueError):
            FixedCountPolicy(0)

    def test_no_checkpoint(self):
        assert NoCheckpointPolicy().interval_count(PROFILE) == 1

    def test_vectorized_shapes(self):
        te = np.array([100.0, 200.0, 300.0])
        out = FixedCountPolicy(4).interval_counts(te, 1.0, 0.0, 0.0, np.inf)
        np.testing.assert_array_equal(out, [4, 4, 4])
        out = FixedIntervalPolicy(100.0).interval_counts(te, 1.0, 0.0, 0.0, np.inf)
        np.testing.assert_array_equal(out, [1, 2, 3])

    def test_names_distinct(self):
        names = {
            OptimalCountPolicy().name, YoungPolicy().name, DalyPolicy().name,
            FixedIntervalPolicy(1.0).name, FixedCountPolicy(1).name,
            NoCheckpointPolicy().name,
        }
        assert len(names) == 6
