"""Unit tests for the failure injectors."""

from __future__ import annotations

import math

import pytest

from repro.failures.distributions import Exponential
from repro.failures.injector import FailureInjector, TraceReplayInjector


class TestFailureInjector:
    def test_draws_and_counts(self, rng):
        inj = FailureInjector(Exponential(0.1), rng)
        v = inj.next_failure_in()
        assert v > 0
        assert inj.failures_seen == 1

    def test_budget_exhaustion(self, rng):
        inj = FailureInjector(Exponential(0.1), rng, max_failures=2)
        assert inj.next_failure_in() != math.inf
        assert inj.next_failure_in() != math.inf
        assert inj.next_failure_in() == math.inf
        assert inj.failures_seen == 2

    def test_reset(self, rng):
        inj = FailureInjector(Exponential(0.1), rng, max_failures=1)
        inj.next_failure_in()
        assert inj.next_failure_in() == math.inf
        inj.reset()
        assert inj.next_failure_in() != math.inf


class TestTraceReplayInjector:
    def test_replays_in_order(self):
        inj = TraceReplayInjector([5.0, 10.0, 2.0])
        assert [inj.next_failure_in() for _ in range(3)] == [5.0, 10.0, 2.0]

    def test_exhaustion_returns_inf(self):
        inj = TraceReplayInjector([1.0])
        inj.next_failure_in()
        assert inj.next_failure_in() == math.inf
        assert inj.remaining == 0

    def test_empty_record_never_fails(self):
        inj = TraceReplayInjector([])
        assert inj.next_failure_in() == math.inf

    def test_reset_rewinds(self):
        inj = TraceReplayInjector([3.0, 4.0])
        inj.next_failure_in()
        inj.reset()
        assert inj.next_failure_in() == 3.0
        assert inj.remaining == 1

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            TraceReplayInjector([1.0, 0.0])
