"""Core of the discrete-event simulation engine.

The design follows the classic event-loop architecture:

* an :class:`Environment` owns a binary heap of ``(time, priority, seq,
  event)`` entries;
* an :class:`Event` carries a value and a list of callbacks that run
  when the event *triggers*;
* a :class:`Process` wraps a generator; every value the generator yields
  must be an :class:`Event`, and the process resumes when that event
  triggers (receiving the event's value via ``send``/``throw``).

Only the features needed by the cluster model are implemented, which
keeps the hot loop short: scheduling is O(log n) per event, and resuming
a process does no allocation beyond the generator frame itself.

Fast-path discipline
--------------------
The event loop is the DES tier's innermost kernel, so the hot paths are
deliberately flattened:

* :meth:`Environment.run` inlines the pop/dispatch loop instead of
  calling :meth:`Environment.step` per event (the single-step method
  remains the debugging/test API);
* :meth:`Environment.timeout` and the :class:`Process` bootstrap build
  their events by direct slot assignment and push the heap entry
  inline, skipping the generic ``Event.__init__`` chain;
* a process may ``yield`` a bare ``float``/``int`` delay instead of a
  :class:`Timeout`.  The engine then pushes a *raw wake* heap entry
  ``(time, priority, seq, None, process)`` — no event object, no
  callbacks list, nothing to re-wrap — and resumes the process
  directly when it pops.  The entry's unique ``seq`` doubles as the
  process's wake generation (``process._wgen``); cancellation
  (interrupt) zeroes the generation, so a stale entry is recognized
  and skipped when it surfaces, exactly like a cancelled Timeout
  draining with no callbacks left.  This is the allocation-free wait the
  cluster executor uses for its homogeneous interval/overhead waits;
* a process may also wait until an *absolute* time: ``yield
  env.wake_at(t)`` arms the same raw wake at ``t`` itself rather than
  at ``now + delay``.  A model that computes a wake time by a chain of
  float additions (``((now + a) + b) + c``) needs this to land exactly
  where the chain of relative waits would have, because ``now + (t -
  now)`` need not equal ``t`` in floating point.  The cluster executor
  uses it to run a local-ramdisk segment as one wake;
* a :class:`Deadline` stands in for a watchdog process that sleeps and
  then interrupts its owner: the owner waits on it as on a raw wake
  under the key the watchdog's deadline entry would have had, and
  nothing is pushed unless the owner waits on it;
* ``env.process(gen, at=t)`` pushes the bootstrap entry at ``t``, so a
  process that would only wait from now until ``t`` costs no bootstrap
  pop (see :meth:`Environment.process` for when the order is the same);
* nothing the engine holds is a reference cycle once it is done with
  it: a finished :class:`Process` drops its cached bound methods, and a
  :class:`Deadline` its start callback once that entry pops.  A finished
  process, its generator and its return value thus die by reference
  count instead of waiting for the cyclic collector.

None of this changes observable behaviour: every entry still receives
its ``(time, priority, seq)`` key in exactly the order the equivalent
one-at-a-time ``env.timeout`` calls would have assigned (a raw wake's
seq is taken immediately after the generator yields, with no
scheduling in between — the same point a ``Timeout`` constructed in
the yield expression would have taken it), ties are broken by the
unique ``seq``, and stale raw wakes count toward
:attr:`Environment.events_processed` exactly like a drained cancelled
Timeout.  The pop order — and therefore every simulation result and
event count — is bit-identical to the straightforward implementation.
"""

from __future__ import annotations

from heapq import heappop, heappush
from collections.abc import Generator
from typing import Any, Callable

__all__ = [
    "AllOf",
    "Deadline",
    "Environment",
    "Event",
    "Interrupt",
    "Process",
    "SimulationError",
    "Timeout",
]

#: Scheduling priority for "urgent" events (interrupt deliveries), which
#: sort before every other event at the same timestamp.
URGENT = 0
#: Default scheduling priority.
NORMAL = 1
#: Failure deliveries sort after normal events at the same timestamp, so
#: a process registered at time ``t`` can still attach to a failed event
#: before the failure is processed (and have the exception thrown into
#: it, rather than surfacing as unhandled).
LAST = 2


class SimulationError(Exception):
    """Raised for misuse of the engine (e.g. double-trigger of an event)."""


class Interrupt(Exception):
    """Thrown into a process when :meth:`Process.interrupt` is called.

    The ``cause`` attribute carries an arbitrary user object describing
    why the process was interrupted (for the cluster model: the failure
    event that killed the task).
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence in virtual time.

    An event starts *pending*, may be *triggered* with either a value
    (:meth:`succeed`) or an exception (:meth:`fail`), and once processed
    invokes its callbacks exactly once.
    """

    __slots__ = ("env", "callbacks", "_value", "_exc", "_triggered", "_processed")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: list[Callable[[Event], None]] | None = []
        self._value: Any = None
        self._exc: BaseException | None = None
        self._triggered = False
        self._processed = False

    # ------------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """Whether the event has been scheduled to fire."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """Whether the callbacks have already run."""
        return self._processed

    @property
    def ok(self) -> bool:
        """Whether the event triggered with a value (not an exception)."""
        return self._triggered and self._exc is None

    @property
    def value(self) -> Any:
        """The event's value (or raises if the event failed)."""
        if self._exc is not None:
            raise self._exc
        return self._value

    # ------------------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._triggered:
            raise SimulationError(f"{self!r} already triggered")
        self._triggered = True
        self._value = value
        env = self.env
        seq = env._seq + 1
        env._seq = seq
        heappush(env._queue, (env._now, NORMAL, seq, self))
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Trigger the event with an exception ``exc``."""
        if self._triggered:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exc, BaseException):
            raise TypeError(f"fail() needs an exception, got {exc!r}")
        self._triggered = True
        self._exc = exc
        env = self.env
        seq = env._seq + 1
        env._seq = seq
        heappush(env._queue, (env._now, LAST, seq, self))
        return self

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "processed" if self._processed else (
            "triggered" if self._triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that triggers ``delay`` time units after creation."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        self.env = env
        self.callbacks = []
        self._value = value
        self._exc = None
        self._triggered = True
        self._processed = False
        self.delay = delay
        seq = env._seq + 1
        env._seq = seq
        heappush(env._queue, (env._now + delay, NORMAL, seq, self))


class AllOf(Event):
    """Triggers when *all* operand events have triggered."""

    __slots__ = ("events", "_count")

    def __init__(self, env: "Environment", events: list[Event]):
        super().__init__(env)
        self.events = list(events)
        self._count = 0
        if not self.events:
            self.succeed({})
            return
        for ev in self.events:
            if ev.env is not env:
                raise SimulationError("events from different environments")
            if ev._processed:
                self._check(ev)
            else:
                assert ev.callbacks is not None
                ev.callbacks.append(self._check)

    def _check(self, ev: Event) -> None:
        if self._triggered:
            return
        self._count += 1
        if ev._exc is not None:
            self.fail(ev._exc)
        elif self._count >= len(self.events):
            self.succeed({e: e._value for e in self.events if e._processed or e is ev})


class _RawTrigger:
    """Shared sentinel a raw wake resumes a process with.

    Immutable and stateless: ``_resume`` only reads ``_exc``/``_value``
    from its trigger, so one instance serves every raw wake.
    """

    __slots__ = ()
    _exc = None
    _value = None


_RAW_WAKE = _RawTrigger()


class _Armed:
    """What :meth:`Environment.wake_at` returns: the wake is already
    in the heap, so yielding this only suspends the process."""

    __slots__ = ()


_ARMED = _Armed()


class Process(Event):
    """A running generator; also an event that triggers on completion.

    The generator may ``yield`` any :class:`Event`.  When that event is
    processed, the generator resumes with the event's value (or the
    event's exception is thrown into it).  It may also ``yield`` a bare
    non-negative ``float``/``int``: an allocation-free timeout for
    ``delay`` time units that resumes the process with ``None`` (see
    the module docstring's raw-wake contract).  Calling
    :meth:`interrupt` throws :class:`Interrupt` into the generator at
    the current time.
    """

    __slots__ = ("gen", "_target", "name", "_send", "_throw", "_resume_cb",
                 "_wgen")

    def __init__(self, env: "Environment", gen: Generator,
                 name: str | None = None, at: float | None = None):
        if at is None:
            at = env._now
        elif at < env._now:
            raise SimulationError(
                f"process {name!r} asked to start at {at!r}, before "
                f"now={env._now!r}")
        super().__init__(env)
        self.gen = gen
        self.name = name or getattr(gen, "__name__", "process")
        self._target: Event | None = None
        # Bound methods cached once: every wait of this process reuses
        # the same callback object instead of re-binding per resume.
        # ``_retire`` drops them when the generator finishes.
        self._send = gen.send
        self._throw = gen.throw
        self._resume_cb = self._resume
        # Bootstrap: resume the generator at ``at`` (as soon as the sim
        # starts by default), via a raw wake.  The wake generation IS
        # the armed entry's unique heap seq (``_wgen == entry seq``
        # means live), so arming costs no extra counter and the entry
        # no extra slot.
        seq = env._seq + 1
        env._seq = seq
        self._wgen = seq
        heappush(env._queue, (at, NORMAL, seq, None, self))

    @property
    def is_alive(self) -> bool:
        """Whether the underlying generator has not finished yet."""
        return not self._triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process (idempotent once dead)."""
        if not self.is_alive:
            return
        env = self.env
        ev = Event.__new__(Event)
        ev.env = env
        ev.callbacks = [self._resume_cb]
        ev._value = None
        ev._exc = Interrupt(cause)
        ev._triggered = True
        ev._processed = False
        # Detach from whatever the process currently waits on: remove
        # the callback from an event target, or invalidate a pending
        # raw wake by zeroing the generation (no heap entry carries
        # seq 0, so the stale entry drains as a no-op, like a
        # cancelled Timeout).
        if self._target is not None and self._target.callbacks is not None:
            try:
                self._target.callbacks.remove(self._resume_cb)
            except ValueError:
                pass
        self._target = None
        self._wgen = 0
        env._seq += 1
        heappush(env._queue, (env._now, URGENT, env._seq, ev))

    # ------------------------------------------------------------------
    def _resume(self, trigger: "Event | _RawTrigger") -> None:
        env = self.env
        env._active = self
        send = self._send
        try:
            while True:
                if trigger is _RAW_WAKE:
                    target = send(None)
                elif trigger._exc is None:
                    target = send(trigger._value)
                else:
                    target = self._throw(trigger._exc)
                cls = target.__class__
                if cls is not float and cls is not int:
                    if target is _ARMED:
                        return
                    if isinstance(target, Event):
                        if target._processed:
                            # Already fired: loop immediately with its
                            # outcome.
                            trigger = target
                            continue
                        self._target = target
                        target.callbacks.append(self._resume_cb)
                        return
                    # NumPy scalars subclass float/int but fail the
                    # exact-class fast check; bool is excluded.
                    if (isinstance(target, (float, int))
                            and cls is not bool):
                        target = float(target)
                    else:
                        raise SimulationError(
                            f"process {self.name!r} yielded non-event "
                            f"{target!r}")
                # Raw wake: no Timeout object, just a heap entry.  A
                # stale ``_target`` (the previous event wait, always
                # processed by now) needs no clearing: interrupt's
                # detach is guarded by ``callbacks is not None``.
                if target < 0:
                    raise SimulationError(
                        f"process {self.name!r} yielded negative "
                        f"delay {target!r}")
                seq = env._seq + 1
                env._seq = seq
                self._wgen = seq
                heappush(env._queue,
                         (env._now + target, NORMAL, seq, None, self))
                return
        except StopIteration as stop:
            self._retire()
            self.succeed(stop.value)
        except Interrupt:
            # Interrupt escaped the generator: treat as normal termination
            # with the interrupt cause as the value (a killed task).
            self._retire()
            self.succeed(None)
        except BaseException as exc:
            self._retire()
            self.fail(exc)
        finally:
            env._active = None

    def _retire(self) -> None:
        """Drop what only a live generator needs.  ``_resume_cb`` is a
        bound method of this process, so keeping it would leave every
        finished process as cyclic garbage for the collector; without
        it the process, its generator and its return value die by
        reference count.  A finished process stays yieldable
        (``_processed``) and :meth:`interrupt` on it is a no-op."""
        self._target = None
        self._send = self._throw = self._resume_cb = None


class Deadline:
    """A watchdog's deadline, pushed only if its owner waits on it.

    A watchdog process started now (``yield delay``, then interrupt the
    owner) pushes a start entry at ``now``; when that entry pops, the
    watchdog's ``yield`` takes the seq of its deadline entry at
    :attr:`when` ``= now + delay``.  A ``Deadline`` holds that time and
    that seq, and :meth:`wait` arms a raw wake of its owner under the
    deadline entry's key, so every other entry orders around the wake
    exactly as around the watchdog's, same-instant ties included.  A
    deadline nobody waits on pushes nothing.

    Create it in the owner's process right before the owner arms its
    next wait, with nothing scheduled in between, after a raw wake (so
    no other callback of the same event runs before the next pop).  The
    owner waits on one thing at a time and settles a tie between its
    own wake and the deadline itself; the deadline's key orders it
    against every other entry.

    If no queued entry sorts before the start entry, that entry would
    pop right after the owner arms its next wait, so the deadline's
    seq would sort after every entry queued now and before every later
    push but that wait.  The seq ``env._seq + 0.5`` sorts the same way
    against every entry the deadline can be pending with, so it is
    taken at once and nothing is pushed for the start.  Otherwise the
    start entry is pushed and popped for real (one processed event,
    like the watchdog's): its pop takes the seq, and arms the owner's
    wake if the owner waits on the deadline already.
    """

    __slots__ = ("env", "owner", "when", "seq", "_wgen", "_resume_cb")

    def __init__(self, env: "Environment", delay: float):
        if delay < 0:
            raise SimulationError(f"deadline with negative delay {delay!r}")
        owner = env._active
        if owner is None:
            raise SimulationError("deadline() called outside a process")
        self.env = env
        self.owner = owner
        now = env._now
        self.when = now + delay
        queue = env._queue
        head = queue[0] if queue else None
        if head is None or head[0] > now or head[1] > NORMAL:
            self.seq = env._seq + 0.5
        else:
            # The raw-wake dispatch reads ``_wgen`` and calls
            # ``_resume_cb``.
            seq = env._seq + 1
            env._seq = seq
            self._wgen = seq
            self._resume_cb = self._start
            self.seq = None
            heappush(queue, (now, NORMAL, seq, None, self))

    def _start(self, _trigger) -> None:
        # Popped once: drop the bound method that points back at self.
        self._resume_cb = None
        env = self.env
        seq = env._seq + 1
        env._seq = seq
        self.seq = seq
        owner = self.owner
        if owner._wgen == self._wgen:
            # The owner waits on the deadline (and was not interrupted).
            owner._wgen = seq
            heappush(env._queue, (self.when, NORMAL, seq, None, owner))

    def wait(self) -> _Armed:
        """Arm the owner's wake at :attr:`when`; the owner must yield the
        return value at once (``yield deadline.wait()``)."""
        owner = self.owner
        if self.seq is None:
            # Armed by the start entry's pop, under the seq it takes.
            owner._wgen = self._wgen
        else:
            owner._wgen = self.seq
            heappush(self.env._queue,
                     (self.when, NORMAL, self.seq, None, owner))
        return _ARMED


class Environment:
    """The simulation clock and event loop.

    Parameters
    ----------
    initial_time:
        Starting value of :attr:`now`.
    """

    __slots__ = ("_now", "_queue", "_seq", "_active", "_processed_count")

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        #: entries are ``(time, priority, seq, event)`` for events and
        #: ``(time, priority, seq, None, process)`` for raw wakes (the
        #: seq doubles as the wake generation); comparisons never reach
        #: index 3 because ``seq`` is unique.
        self._queue: list[tuple] = []
        self._seq = 0
        self._active: Process | None = None
        self._processed_count = 0

    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total events processed so far: heap pops, stale entries
        included.

        Two runs of the same model with the same seed must process the
        same number of events in the same order; the verification
        subsystem uses this count as a cheap whole-run determinism probe.
        """
        return self._processed_count

    @property
    def active_process(self) -> Process | None:
        """The process currently being resumed, if any."""
        return self._active

    # -- factories ------------------------------------------------------
    def event(self) -> Event:
        """Create a fresh pending :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create a :class:`Timeout` firing ``delay`` from now."""
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        ev = Timeout.__new__(Timeout)
        ev.env = self
        ev.callbacks = []
        ev._value = value
        ev._exc = None
        ev._triggered = True
        ev._processed = False
        ev.delay = delay
        seq = self._seq + 1
        self._seq = seq
        heappush(self._queue, (self._now + delay, NORMAL, seq, ev))
        return ev

    def wake_at(self, when: float) -> _Armed:
        """Arm a raw wake of the active process at absolute time ``when``.

        The process must yield the return value at once (``yield
        env.wake_at(t)``).  The heap entry is ``(when, NORMAL, seq)``
        with its seq taken here, so it orders exactly like a relative
        raw wake armed at the same moment that lands on ``when``.
        """
        proc = self._active
        if proc is None:
            raise SimulationError("wake_at() called outside a process")
        if when < self._now:
            raise SimulationError(
                f"process {proc.name!r} asked to wake at {when!r}, before "
                f"now={self._now!r}")
        seq = self._seq + 1
        self._seq = seq
        proc._wgen = seq
        heappush(self._queue, (when, NORMAL, seq, None, proc))
        return _ARMED

    def deadline(self, delay: float) -> Deadline:
        """The active process's :class:`Deadline` ``delay`` from now."""
        return Deadline(self, float(delay))

    def process(self, gen: Generator, name: str | None = None,
                at: float | None = None) -> Process:
        """Register a generator as a new :class:`Process`.

        The generator first runs at absolute time ``at`` (default: now);
        ``at < now`` raises :class:`SimulationError`.  Against a process
        started now whose first statement is ``yield at - now``, this
        saves one processed event (the bootstrap pop at ``now``) and
        takes the entry's seq at creation instead of at that pop.  The
        two orders agree when every process created before that pop
        starts this way: the bootstrap pops would run in creation order
        and push nothing but their own waits, so each wait's seq keeps
        its place among the others and before every later push.
        """
        return Process(self, gen, name, at)

    def all_of(self, events: list[Event]) -> AllOf:
        """Condition event triggering once all ``events`` have fired."""
        return AllOf(self, events)

    # -- event loop ------------------------------------------------------
    def step(self) -> None:
        """Process exactly one entry from the queue.

        The single-step debugging/test API; :meth:`run` inlines the
        same dispatch (pop → advance clock → run callbacks) for speed.
        """
        if not self._queue:
            raise SimulationError("empty schedule")
        entry = heappop(self._queue)
        t = entry[0]
        if t < self._now:  # pragma: no cover - defensive
            raise SimulationError("time went backwards")
        self._now = t
        self._processed_count += 1
        event = entry[3]
        if event is None:
            # Raw wake: resume the process unless the entry went stale
            # (the process was interrupted since arming this wait).
            proc = entry[4]
            if proc._wgen == entry[2]:
                proc._resume_cb(_RAW_WAKE)
            return
        callbacks = event.callbacks
        event.callbacks = None
        event._processed = True
        if callbacks:
            for cb in callbacks:
                cb(event)
        elif event._exc is not None and not isinstance(event._exc, Interrupt):
            # A failed event nobody waits on: surface the error.
            raise event._exc

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else float("inf")

    def run(self, until: "float | Event | None" = None) -> Any:
        """Run the simulation.

        ``until`` may be ``None`` (run until the queue drains), a number
        (run until that time) or an :class:`Event` (run until it is
        processed, returning its value).

        Each loop below is :meth:`step` inlined with the queue and
        dispatch locals hoisted out of the iteration — identical event
        ordering, about half the per-event interpreter overhead.
        """
        queue = self._queue
        pop = heappop
        raw_wake = _RAW_WAKE
        if until is None:
            count = 0
            try:
                while queue:
                    entry = pop(queue)
                    self._now = entry[0]
                    count += 1
                    event = entry[3]
                    if event is None:
                        proc = entry[4]
                        if proc._wgen == entry[2]:
                            proc._resume_cb(raw_wake)
                        continue
                    callbacks = event.callbacks
                    event.callbacks = None
                    event._processed = True
                    if callbacks:
                        for cb in callbacks:
                            cb(event)
                    elif (event._exc is not None
                          and not isinstance(event._exc, Interrupt)):
                        raise event._exc
            finally:
                self._processed_count += count
            return None
        if isinstance(until, Event):
            stop = until
            count = 0
            try:
                while not stop._processed:
                    if not queue:
                        raise SimulationError(
                            "simulation ran out of events before `until` "
                            "triggered")
                    entry = pop(queue)
                    self._now = entry[0]
                    count += 1
                    event = entry[3]
                    if event is None:
                        proc = entry[4]
                        if proc._wgen == entry[2]:
                            proc._resume_cb(raw_wake)
                        continue
                    callbacks = event.callbacks
                    event.callbacks = None
                    event._processed = True
                    if callbacks:
                        for cb in callbacks:
                            cb(event)
                    elif (event._exc is not None
                          and not isinstance(event._exc, Interrupt)):
                        raise event._exc
            finally:
                self._processed_count += count
            return stop.value
        horizon = float(until)
        if horizon < self._now:
            raise ValueError(f"until={horizon} lies in the past (now={self._now})")
        count = 0
        try:
            while queue and queue[0][0] <= horizon:
                entry = pop(queue)
                self._now = entry[0]
                count += 1
                event = entry[3]
                if event is None:
                    proc = entry[4]
                    if proc._wgen == entry[2]:
                        proc._resume_cb(raw_wake)
                    continue
                callbacks = event.callbacks
                event.callbacks = None
                event._processed = True
                if callbacks:
                    for cb in callbacks:
                        cb(event)
                elif (event._exc is not None
                      and not isinstance(event._exc, Interrupt)):
                    raise event._exc
        finally:
            self._processed_count += count
        self._now = horizon
        return None
