"""Unit tests for the discrete-event simulation engine."""

from __future__ import annotations

import gc
import types

import pytest

from repro.sim import (
    AllOf,
    Environment,
    Event,
    Interrupt,
    SimulationError,
    Timeout,
)


class TestEnvironmentBasics:
    def test_initial_time(self):
        assert Environment().now == 0.0
        assert Environment(5.0).now == 5.0

    def test_timeout_advances_clock(self):
        env = Environment()
        env.timeout(3.0)
        env.run()
        assert env.now == 3.0

    def test_timeout_negative_delay_rejected(self):
        env = Environment()
        with pytest.raises(ValueError):
            env.timeout(-1.0)

    def test_run_until_time_stops_exactly(self):
        env = Environment()
        fired = []
        env.process(iter_fire(env, fired, [1.0, 2.0, 5.0]))
        env.run(until=3.0)
        assert fired == [1.0, 2.0]
        assert env.now == 3.0

    def test_run_until_past_raises(self):
        env = Environment()
        env.timeout(1.0)
        env.run()
        with pytest.raises(ValueError):
            env.run(until=0.5)

    def test_peek_empty_is_inf(self):
        assert Environment().peek() == float("inf")

    def test_step_empty_raises(self):
        with pytest.raises(SimulationError):
            Environment().step()

    def test_same_time_events_fifo(self):
        env = Environment()
        order = []

        def proc(tag):
            yield env.timeout(1.0)
            order.append(tag)

        env.process(proc("a"))
        env.process(proc("b"))
        env.process(proc("c"))
        env.run()
        assert order == ["a", "b", "c"]


def iter_fire(env, sink, delays):
    last = 0.0
    for d in delays:
        yield env.timeout(d - last)
        last = d
        sink.append(env.now)


class TestEvents:
    def test_succeed_carries_value(self):
        env = Environment()
        ev = env.event()
        ev.succeed(42)
        results = []

        def proc():
            results.append((yield ev))

        env.process(proc())
        env.run()
        assert results == [42]

    def test_double_trigger_rejected(self):
        env = Environment()
        ev = env.event()
        ev.succeed()
        with pytest.raises(SimulationError):
            ev.succeed()
        with pytest.raises(SimulationError):
            ev.fail(RuntimeError("x"))

    def test_fail_requires_exception(self):
        env = Environment()
        with pytest.raises(TypeError):
            env.event().fail("not an exception")  # type: ignore[arg-type]

    def test_failed_event_raises_in_process(self):
        env = Environment()
        ev = env.event()
        ev.fail(RuntimeError("boom"))
        caught = []

        def proc():
            try:
                yield ev
            except RuntimeError as exc:
                caught.append(str(exc))

        env.process(proc())
        env.run()
        assert caught == ["boom"]

    def test_unhandled_failed_event_surfaces(self):
        env = Environment()
        ev = env.event()
        ev.fail(RuntimeError("unseen"))
        with pytest.raises(RuntimeError, match="unseen"):
            env.run()

    def test_run_until_event_returns_value(self):
        env = Environment()

        def proc():
            yield env.timeout(2.0)
            return "done"

        p = env.process(proc())
        assert env.run(until=p) == "done"
        assert env.now == 2.0

    def test_run_until_event_that_never_fires(self):
        env = Environment()
        ev = env.event()
        env.timeout(1.0)
        with pytest.raises(SimulationError):
            env.run(until=ev)


class TestProcesses:
    def test_return_value_is_event_value(self):
        env = Environment()

        def child():
            yield env.timeout(1.0)
            return 7

        def parent(sink):
            val = yield env.process(child())
            sink.append(val)

        sink = []
        env.process(parent(sink))
        env.run()
        assert sink == [7]

    def test_yield_non_event_errors(self):
        env = Environment()

        def bad():
            yield "not an event"

        env.process(bad())
        # Nobody waits on the failed process, so the error surfaces at run.
        with pytest.raises(SimulationError):
            env.run()

    def test_yield_bool_errors(self):
        env = Environment()

        def bad():
            yield True  # bools are not delays

        env.process(bad())
        with pytest.raises(SimulationError):
            env.run()

    def test_interrupt_delivers_cause(self):
        env = Environment()
        causes = []

        def victim():
            try:
                yield env.timeout(10.0)
            except Interrupt as i:
                causes.append((i.cause, env.now))

        def attacker(v):
            yield env.timeout(1.0)
            v.interrupt("failure-x")

        v = env.process(victim())
        env.process(attacker(v))
        env.run()
        # Interrupt delivered at t=1 (the victim's own timeout still
        # drains the queue afterwards, so final env.now is 10).
        assert causes == [("failure-x", 1.0)]

    def test_interrupt_dead_process_is_noop(self):
        env = Environment()

        def quick():
            yield env.timeout(0.5)

        p = env.process(quick())
        env.run()
        assert not p.is_alive
        p.interrupt()  # must not raise

    def test_uncaught_interrupt_terminates_process(self):
        env = Environment()

        def victim():
            yield env.timeout(10.0)

        def attacker(v):
            yield env.timeout(1.0)
            v.interrupt()

        v = env.process(victim())
        env.process(attacker(v))
        env.run()
        assert not v.is_alive
        assert v.value is None

    def test_process_exception_propagates_to_waiter(self):
        env = Environment()

        def fails():
            yield env.timeout(1.0)
            raise ValueError("inner")

        def waiter(sink):
            try:
                yield env.process(fails())
            except ValueError as exc:
                sink.append(str(exc))

        sink = []
        env.process(waiter(sink))
        env.run()
        assert sink == ["inner"]

    def test_finished_process_releases_itself(self):
        """A finished process keeps no bound method (of itself or its
        generator), so it dies by reference count, yet stays yieldable
        and ignores interrupts."""
        env = Environment()
        got = []

        def child():
            yield 1.0
            return "done"

        def parent(p):
            yield 2.0
            got.append((yield p))  # finished at t=1: resumes inline

        p = env.process(child())
        env.process(parent(p))
        env.run()
        assert got == ["done"] and not p.is_alive
        methods = (types.MethodType, types.BuiltinMethodType)
        assert not [r for r in gc.get_referents(p) if isinstance(r, methods)]
        p.interrupt("late")
        assert env.peek() == float("inf")

    def test_immediately_processed_event_resumes_inline(self):
        env = Environment()
        seen = []

        def proc():
            ev = env.event()
            ev.succeed("x")
            yield env.timeout(1.0)  # let ev be processed
            val = yield ev  # already processed: resumes inline
            seen.append(val)

        env.process(proc())
        env.run()
        assert seen == ["x"]


class TestRawWaits:
    """The allocation-free ``yield <delay>`` path must behave exactly
    like ``yield env.timeout(delay)``."""

    def test_raw_wait_advances_clock(self):
        env = Environment()
        at = []

        def proc():
            yield 2.0
            at.append(env.now)
            yield 3
            at.append(env.now)

        env.process(proc())
        env.run()
        assert at == [2.0, 5.0]

    def test_raw_wait_resumes_with_none(self):
        env = Environment()
        got = []

        def proc():
            got.append((yield 1.0))

        env.process(proc())
        env.run()
        assert got == [None]

    def test_raw_wait_numpy_scalar(self):
        np = pytest.importorskip("numpy")
        env = Environment()
        at = []

        def proc():
            yield np.float64(1.5)
            at.append(env.now)

        env.process(proc())
        env.run()
        assert at == [1.5]

    def test_raw_wait_negative_rejected(self):
        env = Environment()

        def proc():
            yield -1.0

        env.process(proc())
        with pytest.raises(SimulationError):
            env.run()

    def test_raw_wait_interleaves_like_timeouts(self):
        """Mixed raw and Timeout waits at equal timestamps keep the
        creation-order FIFO tie-break."""
        env = Environment()
        order = []

        def raw(tag):
            yield 1.0
            order.append(tag)

        def wrapped(tag):
            yield env.timeout(1.0)
            order.append(tag)

        env.process(raw("a"))
        env.process(wrapped("b"))
        env.process(raw("c"))
        env.run()
        assert order == ["a", "b", "c"]

    def test_interrupt_during_raw_wait(self):
        env = Environment()
        causes = []

        def victim():
            try:
                yield 10.0
            except Interrupt as i:
                causes.append((i.cause, env.now))

        def attacker(v):
            yield 1.0
            v.interrupt("raw-kill")

        v = env.process(victim())
        env.process(attacker(v))
        env.run()
        assert causes == [("raw-kill", 1.0)]
        # The stale wake drains at t=10 like a cancelled Timeout.
        assert env.now == 10.0

    def test_raw_wait_rearm_after_interrupt(self):
        """A process interrupted mid-raw-wait can arm fresh raw waits;
        the stale wake must not fire it early."""
        env = Environment()
        at = []

        def victim():
            try:
                yield 10.0
            except Interrupt:
                pass
            yield 5.0  # fresh wait armed at t=1, fires at t=6
            at.append(env.now)

        def attacker(v):
            yield 1.0
            v.interrupt()

        v = env.process(victim())
        env.process(attacker(v))
        env.run()
        assert at == [6.0]

    def test_raw_wakes_count_as_processed_events(self):
        env = Environment()

        def proc():
            yield 1.0

        env.process(proc())
        env.run()
        # bootstrap wake + timeout wake + process-completion event
        assert env.events_processed == 3

    def test_step_handles_raw_wakes(self):
        env = Environment()
        at = []

        def proc():
            yield 1.0
            at.append(env.now)

        env.process(proc())
        env.step()  # bootstrap
        env.step()  # the raw wake
        assert at == [1.0]


class TestAbsoluteWakes:
    """``yield env.wake_at(t)`` is a raw wake armed at ``t`` itself."""

    def test_wakes_at_the_exact_time(self):
        now, t = 16.988302482342316, 55.83377559005746
        # A relative wait of (t - now) would land one ulp late.
        assert now + (t - now) != t
        env = Environment()
        at = []

        def proc():
            yield now
            yield env.wake_at(t)
            at.append(env.now)

        env.process(proc())
        env.run()
        assert at == [t]

    def test_orders_like_a_relative_wake_armed_at_the_same_moment(self):
        env = Environment()
        order = []

        def absolute(tag):
            yield env.wake_at(1.0)
            order.append(tag)

        def relative(tag):
            yield 1.0
            order.append(tag)

        env.process(relative("a"))
        env.process(absolute("b"))
        env.process(relative("c"))
        env.run()
        assert order == ["a", "b", "c"]

    def test_interrupt_cancels_it(self):
        env = Environment()
        causes = []

        def victim():
            try:
                yield env.wake_at(10.0)
                causes.append("woke")
            except Interrupt as i:
                causes.append((i.cause, env.now))

        def attacker(v):
            yield 1.0
            v.interrupt("kill")

        v = env.process(victim())
        env.process(attacker(v))
        env.run()
        assert causes == [("kill", 1.0)]

    def test_rejects_the_past_and_callers_outside_a_process(self):
        env = Environment()
        with pytest.raises(SimulationError):
            env.wake_at(1.0)

        def proc():
            yield 2.0
            yield env.wake_at(1.0)

        env.process(proc())
        with pytest.raises(SimulationError):
            env.run()


def _deferred_scenario(use_at):
    """Processes created before the run that start later, with
    ``process(at=)`` or with a first statement that waits until then.
    Returns the log and the processed-event count."""
    env = Environment()
    log = []

    def deferred(tag, at, waits):
        if not use_at:
            yield at - env.now
        log.append((tag, "start", env.now))
        for w in waits:
            yield w
            log.append((tag, w, env.now))
        if tag == "a":
            env.process(deferred("a-child", env.now, [0.0]))

    # Ties at t=1 (two starts), t=2 (a start and two wakes) and t=2.5.
    starts = [("a", 1.0, [1.0, 0.5]), ("b", 1.0, [0.5, 1.0]),
              ("c", 0.0, [2.0]), ("d", 2.0, [0.5])]
    for tag, at, waits in starts:
        gen = deferred(tag, at, waits)
        env.process(gen, at=at) if use_at else env.process(gen)
    env.run()
    return log, env.events_processed


class TestDeferredStarts:
    """``process(at=)``: the bootstrap entry sits at ``at``."""

    def test_orders_like_a_first_wait_and_saves_the_bootstrap_pop(self):
        log, events = _deferred_scenario(use_at=True)
        ref_log, ref_events = _deferred_scenario(use_at=False)
        assert log == ref_log
        assert [e[0] for e in log if e[1] == "start"] == \
            ["c", "a", "b", "d", "a-child"]
        # One processed event fewer per process, the child included.
        assert events == ref_events - 5

    def test_rejects_the_past(self):
        env = Environment()

        def proc():
            yield 1.0

        env.run(until=1.0)
        env.process(proc(), at=1.0)  # now is fine
        with pytest.raises(SimulationError):
            env.process(proc(), at=0.5)


def _deadline_scenario(use_watchdog):
    """Victims waiting on a deadline at an instant other processes'
    wakes share, armed with :meth:`Environment.deadline` or with the
    watchdog process it stands in for.  Returns the log."""
    env = Environment()
    log = []

    def victim(tag, start, delay):
        yield start
        if use_watchdog:
            me = env.active_process

            def dog():
                try:
                    yield delay
                    me.interrupt()
                except Interrupt:
                    pass

            watchdog = env.process(dog())
            try:
                yield 100.0
            except Interrupt as i:
                if i.cause is not None:
                    watchdog.interrupt()
                log.append((tag, i.cause or "deadline", env.now))
        else:
            try:
                yield env.deadline(delay).wait()
                log.append((tag, "deadline", env.now))
            except Interrupt as i:
                log.append((tag, i.cause, env.now))

    def bystander(tag, *waits):
        for w in waits:
            yield w
        log.append((tag, "woke", env.now))

    def attacker(at, target):
        yield at
        target.interrupt("kill")

    # Alone at t=1 (no start entry needed): a wake armed before the
    # deadline wins the tie at t=2, one armed after loses it.
    env.process(victim("alone", 1.0, 1.0))
    env.process(bystander("armed-before", 2.0))
    env.process(bystander("armed-after", 1.5, 0.5))
    # At t=3 behind another wake of the same instant: that one's wait,
    # armed before the watchdog's start would pop, wins the tie at t=4.
    env.process(victim("behind", 3.0, 1.0))
    env.process(bystander("same-instant", 3.0, 1.0))
    # Killed at its deadline's own instant, before the start pops: the
    # deadline never fires.
    doomed = env.process(victim("doomed", 5.0, 1.0))
    env.process(attacker(5.0, doomed))
    env.run()
    return log


class TestDeadlines:
    """A deadline orders like the watchdog process it stands in for."""

    def test_orders_like_a_watchdog_process(self):
        log = _deadline_scenario(use_watchdog=False)
        assert log == _deadline_scenario(use_watchdog=True)
        assert log == [
            ("armed-before", "woke", 2.0), ("alone", "deadline", 2.0),
            ("armed-after", "woke", 2.0),
            ("same-instant", "woke", 4.0), ("behind", "deadline", 4.0),
            ("doomed", "kill", 5.0)]

    def test_releases_its_start_callback_once_popped(self):
        def run(with_deadline):
            env = Environment()
            seen = []

            def proc():
                yield 0.0
                env.timeout(0.0)  # queued at now: the start entry is pushed
                if with_deadline:
                    seen.append(env.deadline(2.0))
                yield 1.0

            env.process(proc())
            env.run()
            return env.events_processed, seen

        events, (watch,) = run(True)
        # The real start entry is one extra pop, which drops the callback.
        assert events == run(False)[0] + 1
        assert watch._resume_cb is None

    def test_pushes_nothing_unless_waited_on(self):
        env = Environment()

        def proc():
            env.deadline(5.0)
            yield 1.0

        env.process(proc())
        env.run()
        # Bootstrap, the one wait, exit: no entry for the deadline.
        assert (env.events_processed, env.now) == (3, 1.0)

    def test_rejects_negative_delays_and_callers_outside_a_process(self):
        env = Environment()
        with pytest.raises(SimulationError):
            env.deadline(1.0)

        def proc():
            yield 0.5
            env.deadline(-1.0)

        env.process(proc())
        with pytest.raises(SimulationError):
            env.run()


class TestConditions:
    def test_all_of_waits_for_everything(self):
        env = Environment()
        at = []

        def proc():
            t1 = env.timeout(1.0)
            t2 = env.timeout(4.0)
            yield env.all_of([t1, t2])
            at.append(env.now)

        env.process(proc())
        env.run()
        assert at == [4.0]

    def test_all_of_empty_triggers_immediately(self):
        env = Environment()
        cond = AllOf(env, [])
        assert cond.triggered

    def test_mixed_environment_rejected(self):
        env1, env2 = Environment(), Environment()
        with pytest.raises(SimulationError):
            AllOf(env1, [env1.timeout(1.0), env2.timeout(1.0)])

