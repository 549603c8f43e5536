"""Tests for the non-blocking checkpoint model (Algorithm 1, line 7)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.simulate import simulate_task, simulate_task_async_checkpoints
from repro.failures.distributions import Exponential
from repro.failures.injector import FailureInjector, TraceReplayInjector


class TestAsyncNoFailures:
    def test_no_wallclock_overhead(self):
        """Writes overlap execution: failure-free wall-clock equals te."""
        out = simulate_task_async_checkpoints(
            100.0, 4, 2.0, 1.0, TraceReplayInjector([])
        )
        assert out.completed
        assert out.wallclock == pytest.approx(100.0)

    def test_blocking_counterpart_pays_for_writes(self):
        blocking = simulate_task(100.0, 4, 2.0, 1.0, TraceReplayInjector([]))
        async_ = simulate_task_async_checkpoints(
            100.0, 4, 2.0, 1.0, TraceReplayInjector([])
        )
        assert blocking.wallclock == async_.wallclock + 3 * 2.0


class TestAsyncCommitWindow:
    def test_failure_during_write_voids_checkpoint(self):
        """te=100, x=4 (L=25, C=2).  Checkpoint 1 commits at uptime 27.
        Failure at 26: inside the write window -> rollback to scratch."""
        inj = TraceReplayInjector([26.0])
        out = simulate_task_async_checkpoints(100.0, 4, 2.0, 5.0, inj)
        # 26 lost + R, then clean run of the full 100.
        assert out.wallclock == pytest.approx(26.0 + 5.0 + 100.0)

    def test_failure_after_commit_keeps_checkpoint(self):
        inj = TraceReplayInjector([27.5])
        out = simulate_task_async_checkpoints(100.0, 4, 2.0, 5.0, inj)
        # Checkpoint at progress 25 committed (27 <= 27.5); resume from
        # 25: remaining pure work = 75.
        assert out.wallclock == pytest.approx(27.5 + 5.0 + 75.0)
        assert out.n_failures == 1

    def test_multiple_commits_in_one_segment(self):
        # Uptime 60: commits at 27 (pos 25) and 52 (pos 50); fails at 60.
        inj = TraceReplayInjector([60.0])
        out = simulate_task_async_checkpoints(100.0, 4, 2.0, 5.0, inj)
        assert out.wallclock == pytest.approx(60.0 + 5.0 + 50.0)

    def test_cap_at_interior_positions(self):
        # Huge uptime before failure in the final run: only 3 interior
        # checkpoints exist.
        inj = TraceReplayInjector([99.0])
        out = simulate_task_async_checkpoints(100.0, 4, 2.0, 5.0, inj)
        # All 3 committed (uptimes 27/52/77 <= 99); resume from 75.
        assert out.wallclock == pytest.approx(99.0 + 5.0 + 25.0)

    def test_failure_charge_is_u_plus_restart_and_delay(self):
        """One failure, cut there: the wallclock is that one charge,
        ``u + (R + d)`` as in every other kernel."""
        out = simulate_task_async_checkpoints(
            100.0, 1, 0.0, 0.2, TraceReplayInjector([0.1]),
            restart_delay=0.3, max_segments=1,
        )
        assert not out.completed and out.n_failures == 1
        assert out.wallclock == 0.1 + (0.2 + 0.3)


class TestAsyncVsBlockingUnderFailures:
    def test_async_never_slower_on_average(self, rng):
        """Removing blocking writes can only shorten expected wall-clock
        when the commit window is small relative to the interval."""
        total_async = total_block = 0.0
        for seed in range(300):
            dist = Exponential(1 / 150.0)
            a = simulate_task_async_checkpoints(
                500.0, 10, 1.0, 2.0,
                FailureInjector(dist, np.random.default_rng(seed)),
            )
            b = simulate_task(
                500.0, 10, 1.0, 2.0,
                FailureInjector(dist, np.random.default_rng(seed)),
            )
            total_async += a.wallclock
            total_block += b.wallclock
        assert total_async < total_block

    def test_validation(self):
        with pytest.raises(ValueError):
            simulate_task_async_checkpoints(0.0, 1, 1.0, 1.0,
                                            TraceReplayInjector([]))
        with pytest.raises(ValueError):
            simulate_task_async_checkpoints(1.0, 0, 1.0, 1.0,
                                            TraceReplayInjector([]))
        with pytest.raises(ValueError):
            simulate_task_async_checkpoints(1.0, 1, -1.0, 1.0,
                                            TraceReplayInjector([]))
