"""Unit tests for the metrics package."""

from __future__ import annotations

import numpy as np
import pytest

from repro.metrics.cdf import ecdf, fraction_above, fraction_below, quantile
from repro.metrics.summary import compare_wallclock, group_min_avg_max
from repro.metrics.wpr import job_wpr, task_wpr, wpr_from_arrays


class TestTaskWPR:
    def test_basic(self):
        assert task_wpr(90.0, 100.0) == pytest.approx(0.9)

    def test_clamped_at_one(self):
        assert task_wpr(100.0, 100.0) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            task_wpr(10.0, 0.0)
        with pytest.raises(ValueError):
            task_wpr(-1.0, 10.0)
        with pytest.raises(ValueError):
            task_wpr(20.0, 10.0)


class TestJobWPR:
    def test_task_time_weighted(self):
        # (50 + 150) / (100 + 200) = 2/3
        assert job_wpr([50.0, 150.0], [100.0, 200.0]) == pytest.approx(2 / 3)

    def test_validation(self):
        with pytest.raises(ValueError):
            job_wpr([], [])
        with pytest.raises(ValueError):
            job_wpr([1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            job_wpr([1.0], [0.0])


class TestWprFromArrays:
    def test_groups_by_job(self):
        work = np.array([50.0, 150.0, 90.0])
        wall = np.array([100.0, 200.0, 100.0])
        ids = np.array([0, 0, 1])
        out = wpr_from_arrays(work, wall, ids)
        np.testing.assert_allclose(out, [2 / 3, 0.9])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            wpr_from_arrays(np.ones(2), np.ones(3), np.ones(3))


class TestCDF:
    def test_ecdf_basic(self):
        xs, ys = ecdf([3.0, 1.0, 2.0])
        np.testing.assert_allclose(xs, [1, 2, 3])
        np.testing.assert_allclose(ys, [1 / 3, 2 / 3, 1.0])

    def test_fractions(self):
        vals = [1.0, 2.0, 3.0, 4.0]
        assert fraction_below(vals, 2.5) == 0.5
        assert fraction_above(vals, 2.5) == 0.5
        assert fraction_below(vals, 1.0) == 0.0

    def test_quantile(self):
        assert quantile([1.0, 2.0, 3.0], 0.5) == 2.0
        with pytest.raises(ValueError):
            quantile([1.0], 1.5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ecdf([])
        with pytest.raises(ValueError):
            fraction_below([], 1.0)


class TestGroupMinAvgMax:
    def test_grouping(self):
        vals = [1.0, 3.0, 10.0, 20.0]
        keys = [1, 1, 2, 2]
        out = group_min_avg_max(vals, keys)
        assert len(out) == 2
        g1, g2 = out
        assert (g1.key, g1.min, g1.avg, g1.max, g1.n) == (1, 1.0, 2.0, 3.0, 2)
        assert (g2.key, g2.min, g2.avg, g2.max, g2.n) == (2, 10.0, 15.0, 20.0, 2)

    def test_sorted_by_key(self):
        out = group_min_avg_max([1.0, 2.0], [5, 2])
        assert [g.key for g in out] == [2, 5]

    def test_validation(self):
        with pytest.raises(ValueError):
            group_min_avg_max([], [])
        with pytest.raises(ValueError):
            group_min_avg_max([1.0], [1, 2])


class TestCompareWallclock:
    def test_known_arrays(self):
        a = np.array([90.0, 100.0, 120.0])  # faster, tie, slower
        b = np.array([100.0, 100.0, 100.0])
        cmp_ = compare_wallclock(a, b)
        assert cmp_.n_jobs == 3
        assert cmp_.frac_a_faster == pytest.approx(1 / 3)
        assert cmp_.frac_b_faster == pytest.approx(1 / 3)
        assert cmp_.mean_speedup_when_a_faster == pytest.approx(0.1)
        assert cmp_.mean_slowdown_when_b_faster == pytest.approx(0.2)
        assert cmp_.mean_delta == pytest.approx((-10 + 0 + 20) / 3)
        np.testing.assert_allclose(cmp_.ratio, [0.9, 1.0, 1.2])
        np.testing.assert_allclose(cmp_.delta, [-10.0, 0.0, 20.0])

    def test_summary_renders(self):
        cmp_ = compare_wallclock([90.0], [100.0])
        assert "faster" in cmp_.summary()

    def test_validation(self):
        with pytest.raises(ValueError):
            compare_wallclock([1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            compare_wallclock([], [])
        with pytest.raises(ValueError):
            compare_wallclock([0.0], [1.0])


class TestCanonicalWprHelpers:
    """Pins for the canonical clamped WPR (the single definition every
    layer delegates to)."""

    def test_wpr_ratio_semantics(self):
        from repro.metrics.wpr import wpr_ratio

        assert wpr_ratio(90.0, 100.0) == pytest.approx(0.9)
        assert wpr_ratio(100.0, 100.0) == 1.0
        assert wpr_ratio(100.0 + 1e-9, 100.0) == 1.0  # clamped, not raised
        assert wpr_ratio(50.0, 0.0) == 0.0  # degenerate wallclock
        assert wpr_ratio(50.0, -1.0) == 0.0

    def test_wpr_array_semantics(self):
        from repro.metrics.wpr import wpr_array

        out = wpr_array(np.array([90.0, 100.0, 50.0, 10.0]),
                        np.array([100.0, 100.0, 0.0, 5.0]))
        np.testing.assert_allclose(out, [0.9, 1.0, 0.0, 1.0])

    def test_task_wpr_delegates_to_canonical(self):
        from repro.metrics.wpr import task_wpr, wpr_ratio

        for work, wall in [(90.0, 100.0), (1.0, 1.0), (0.0, 5.0)]:
            assert task_wpr(work, wall) == wpr_ratio(work, wall)
