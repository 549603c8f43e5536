"""Unit tests for MNOF/MTBF estimation."""

from __future__ import annotations

import math

import pytest

from repro.core.estimators import (
    GroupedFailureEstimator,
    mnof_from_counts,
    mtbf_from_intervals,
)


class TestBasicEstimators:
    def test_mnof_mean(self):
        assert mnof_from_counts([0, 1, 2, 1]) == 1.0

    def test_mnof_empty_rejected(self):
        with pytest.raises(ValueError):
            mnof_from_counts([])

    def test_mnof_negative_rejected(self):
        with pytest.raises(ValueError):
            mnof_from_counts([1, -1])

    def test_mtbf_mean(self):
        assert mtbf_from_intervals([100.0, 300.0]) == 200.0

    def test_mtbf_empty_is_inf(self):
        assert mtbf_from_intervals([]) == math.inf

    def test_mtbf_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            mtbf_from_intervals([100.0, 0.0])


class TestGroupedEstimator:
    @pytest.fixture
    def est(self):
        e = GroupedFailureEstimator()
        e.add_task(1, 500.0, 2, [100.0, 200.0])
        e.add_task(1, 800.0, 1, [50.0])
        e.add_task(1, 5000.0, 0, [])
        e.add_task(2, 400.0, 3, [10.0, 20.0, 30.0])
        return e

    def test_counts(self, est):
        assert est.n_tasks == 4
        assert est.priorities() == (1, 2)

    def test_group_stats(self, est):
        g = est.group_stats(1)
        assert g.n_tasks == 3
        assert g.n_failures == 3
        assert g.mnof == pytest.approx(1.0)
        assert g.mtbf == pytest.approx((100 + 200 + 50) / 3)

    def test_length_cap_filters(self, est):
        g = est.group_stats(1, length_cap=1000.0)
        assert g.n_tasks == 2
        assert g.mnof == pytest.approx(1.5)

    def test_missing_group_raises(self, est):
        with pytest.raises(KeyError):
            est.group_stats(7)
        with pytest.raises(KeyError):
            est.group_stats(1, length_cap=100.0)

    def test_lookups(self, est):
        mnof = est.mnof_lookup()
        mtbf = est.mtbf_lookup()
        assert set(mnof) == {1, 2}
        assert mnof[2] == pytest.approx(3.0)
        assert mtbf[2] == pytest.approx(20.0)

    def test_failure_free_group_mtbf_inf(self):
        e = GroupedFailureEstimator()
        e.add_task(5, 100.0, 0, [])
        assert e.group_stats(5).mtbf == math.inf

    def test_table_covers_caps(self, est):
        rows = est.table(length_caps=(1000.0, math.inf))
        caps = {r.length_cap for r in rows}
        assert caps == {1000.0, math.inf}

    def test_validation(self):
        e = GroupedFailureEstimator()
        with pytest.raises(ValueError):
            e.add_task(1, 0.0, 0, [])
        with pytest.raises(ValueError):
            e.add_task(1, 10.0, -1, [])
        with pytest.raises(ValueError):
            e.add_task(1, 10.0, 1, [-5.0])
