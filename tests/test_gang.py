"""Tests for coordinated (gang) checkpointing."""

from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.gang import (
    gang_interval_count,
    gang_mnof,
    simulate_gang,
    weak_scaling_table,
)
from repro.failures.injector import FailureInjector, GangInjector, TraceReplayInjector
from repro.failures.distributions import Exponential


class TestGangInjector:
    def test_min_of_members(self):
        gang = GangInjector([
            TraceReplayInjector([50.0]),
            TraceReplayInjector([20.0]),
            TraceReplayInjector([80.0]),
        ])
        assert gang.next_failure_in() == 20.0

    def test_exhausted_members_give_inf(self):
        gang = GangInjector([TraceReplayInjector([10.0])])
        gang.next_failure_in()
        assert gang.next_failure_in() == math.inf

    def test_reset_propagates(self):
        gang = GangInjector([TraceReplayInjector([10.0])])
        gang.next_failure_in()
        gang.reset()
        assert gang.next_failure_in() == 10.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            GangInjector([])

    def test_exponential_min_rate_adds(self, rng):
        # min of m exponentials(scale) ~ exponential(scale/m).
        m, scale = 8, 1000.0
        gang = GangInjector([
            FailureInjector(Exponential(1 / scale), rng) for _ in range(m)
        ])
        draws = [gang.next_failure_in() for _ in range(4000)]
        assert np.mean(draws) == pytest.approx(scale / m, rel=0.1)


class TestGangFormulas:
    def test_mnof_sums(self):
        assert gang_mnof([0.5, 1.5, 2.0]) == 4.0

    def test_interval_count_scales_sqrt_m(self):
        te, c = 3600.0, 5.0
        x1 = gang_interval_count(te, [0.2], c)
        x16 = gang_interval_count(te, [0.2] * 16, c)
        # Integer rounding aside, the count scales with sqrt(m) = 4.
        assert x16 == pytest.approx(4 * x1, rel=0.15)

    def test_validation(self):
        with pytest.raises(ValueError):
            gang_mnof([])
        with pytest.raises(ValueError):
            gang_mnof([-1.0])


class TestSimulateGang:
    def test_failure_free_limit(self, rng):
        out = simulate_gang(100.0, 4, 2.0, 1.0, [1e12, 1e12], rng)
        assert out.completed
        assert out.wallclock == pytest.approx(100.0 + 3 * 2.0)

    def test_more_ranks_more_failures(self):
        def mean_failures(m, seed=0):
            rng = np.random.default_rng(seed)
            tot = 0
            for _ in range(100):
                out = simulate_gang(500.0, 10, 1.0, 1.0,
                                    np.full(m, 2000.0), rng)
                tot += out.n_failures
            return tot / 100

        assert mean_failures(16) > mean_failures(1)

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            simulate_gang(100.0, 4, 1.0, 1.0, [], rng)
        with pytest.raises(ValueError):
            simulate_gang(100.0, 4, 1.0, 1.0, [0.0], rng)


class TestWeakScaling:
    def test_gang_aware_wins_at_scale(self):
        rows = weak_scaling_table(
            rank_counts=(1, 16, 64), n_samples=60, seed=3
        )
        by_m = {r.n_ranks: r for r in rows}
        # At one rank both policies coincide.
        assert by_m[1].x_gang_aware == by_m[1].x_naive
        assert abs(by_m[1].improvement) < 0.02
        # At scale the naive plan under-checkpoints and loses WPR.
        assert by_m[64].x_gang_aware > by_m[64].x_naive
        assert by_m[64].improvement > 0.01
        # And the advantage grows with the gang size.
        assert by_m[64].improvement > by_m[16].improvement - 0.005

    def test_rows_independent_of_hash_seed(self):
        # Each policy's stream is seeded by a fixed id, never by the
        # per-process randomised ``hash`` of a string.
        code = (
            "from repro.core.gang import weak_scaling_table\n"
            "print(weak_scaling_table(rank_counts=(4,), n_samples=50))\n"
        )
        repo_root = Path(__file__).parents[1]
        rows = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ)
            env["PYTHONPATH"] = os.pathsep.join(
                [str(repo_root / "src")]
                + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
            )
            env["PYTHONHASHSEED"] = hash_seed
            out = subprocess.run(
                [sys.executable, "-c", code], capture_output=True,
                text=True, check=True, cwd=repo_root, env=env,
            )
            rows.append(out.stdout)
        assert rows[0] == rows[1]

    def test_row_fields(self):
        (row,) = weak_scaling_table(rank_counts=(4,), n_samples=20)
        assert row.n_ranks == 4
        assert 0 < row.wpr_naive <= 1.0
        assert 0 < row.wpr_gang_aware <= 1.0
