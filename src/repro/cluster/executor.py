"""Task execution with checkpointing, failure handling and migration.

One :class:`TaskExecutor` drives one task through the cluster:

1. acquire a VM from the greedy scheduler (queue wait is endogenous);
2. run equidistant intervals, writing checkpoints on the task's storage
   target, which adds its contention to the planned checkpoint cost;
3. when the failure deadline (uptime drawn from the injector) comes
   before the next interval or checkpoint end, lose the progress since
   the last committed checkpoint, release the VM, pay detection +
   restart (migration) costs, and resume from the checkpoint on a newly
   acquired VM;
4. record everything in a :class:`~repro.cluster.records.TaskRecord`.

The plan (interval count, uncontended checkpoint cost, restart cost,
migration type) is the task's row of the platform's one
:func:`~repro.core.placement.resolve_tasks` call, so the DES compares
Formula (3) against Young's formula under identical placement and
contention conditions.

The reference model
-------------------
A *segment* is the run of intervals and checkpoints between one
placement and the next failure or completion.  The model the executor
reproduces waits once per interval end and once per checkpoint end,
and arms the failure as a separate *watchdog* process that sleeps
``uptime`` and then interrupts the task; completing the segment or a
host crash cancels the watchdog.  Every count below, and
:attr:`~repro.cluster.records.PlatformResult.n_events`, is that
model's.

*Boundary rule.*  The reference model arms the segment's first wake
before the watchdog arms the failure deadline, and every later wake
after it, so at an exactly equal time the first wake wins the tie and
every later wake loses it: a task whose first interval ends exactly at
its deadline completes that interval (and the task, if it was the
last one); a checkpoint that would end exactly at the deadline is
lost.

*Stale entries.*  A cancelled wait leaves a stale heap entry that the
reference model pops (and counts) only if its run gets that far: every
one in a run that drains, those at or before the stop time in a
host-monitor run, which stops at the last job completion (an entry
armed before the last completion sorts before the stop event at the
same instant).  A segment reports the time of each such entry through
``credit_stale`` and the platform counts it by that rule; events that
always count go through ``credit_skipped``.

Per-interval segments
---------------------
A task on shared storage runs each wait: NFS in-flight counts set
other tasks' checkpoint prices, so every instant is observable.  The
executor runs no watchdog.  Before each interval or checkpoint wait it
compares the wait's end (``now + length``, or ``now + cost`` after
``begin_checkpoint``) with the deadline ``now + uptime`` taken at the
segment start, and waits on whichever comes first, by the boundary
rule.  It waits on the deadline through a
:class:`~repro.sim.engine.Deadline`, a raw wake under the heap key the
watchdog's deadline entry would have had, so the entries of every
other task at the same instant are served in the watchdog's order.  A
checkpoint cut by the deadline still runs ``end_checkpoint``.  Host
monitors interrupt the task process directly.

*Events.*  A segment with a finite uptime credits the watchdog's
interrupt and exit, and its start unless the deadline had to push one
to learn its key.  Its stale entry is the watchdog's deadline on
completion, the end of the cut wait on failure, and on a host crash
whichever of the two the task was not waiting on (none if the crash
came before the watchdog's start).

One-wake segments
-----------------
A task on a local ramdisk runs each segment as **one wake**: it walks
the segment's interval and checkpoint ends in place, with the same
float additions the per-interval waits make (``t = t + length``, ``t =
t + C``), compares each with the deadline by the boundary rule, and
waits once, at the absolute time of completion or failure.  The
ramdisk prices every checkpoint at the flat planned C (Table 2, local
rows) and nobody reads its in-flight count, and the platform runs
every trace to its last completion, so no other task and no reader of
the record can observe an instant inside the segment.  The walk writes
nothing; the checkpoints it passed are added to the record when the
wake pops, one at a time as the per-interval loop adds them.

*Host crashes.*  A host monitor may interrupt the wake at any instant.
The executor then settles the segment by walking the same float chain
from the segment start to the crash instant: the wakes strictly before
the crash are done (their checkpoints count), and the wait in progress
at the crash is the reference model's stale entry.  The crash wipes the
ramdisk, so the task restarts from scratch as on every type-A host
failure.

*Events.*  With ``i`` the interval and checkpoint wakes the reference
model would have processed, the one wake stands in for ``i`` wakes
plus the watchdog's events; it processes one itself.

- Completion: ``i - 1 + 3`` (the watchdog's start, interrupt and
  exit) plus the stale deadline; ``i - 1`` with an infinite uptime
  (no watchdog).
- Failure: ``i + 3`` (the watchdog's start, deadline, interrupt and
  exit, less the one wake) plus the end of the cut wait.
- Host crash: ``i``, ``+ 3`` if the segment is watched, plus the end
  of the wait in progress and the deadline (unless the crash came at
  the segment start, before the watchdog's start), minus the segment's
  own wake, which the engine now pops as a stale entry: it is reported
  through ``debit_stale`` and counted off by the same stop-time rule.

Same-instant ties *between different tasks* are outside the boundary
rule for one-wake segments: the one wake takes its heap sequence
number at the segment start, where the reference model took the last
wake's at the previous checkpoint end (and the watchdog's after the
segment start), so an entry of another task landing at the bit-equal
instant may be served in the other order.  The differential test
(``tests/test_executor_differential.py``) builds one such tie: the
task records agree, the queue peak does not.  The same holds for a host
crash at the bit-equal instant of a wake: the settlement treats the
wake as in progress, which is the reference order when the crash entry
was armed first.
"""

from __future__ import annotations

from typing import Callable

from repro.cluster.records import TaskRecord
from repro.cluster.scheduler import GreedyScheduler
from repro.sim.engine import Environment, Interrupt
from repro.storage.devices import StorageDevice
from repro.trace.models import Task

__all__ = ["TaskExecutor"]

_INF = float("inf")


class TaskExecutor:
    """Runs one task to completion on the simulated cluster.

    Parameters
    ----------
    env, scheduler, config:
        Shared simulation infrastructure.
    task:
        The task to execute.
    intervals:
        Number of equidistant intervals (``x - 1`` checkpoints).
    checkpoint_cost:
        Uncontended seconds per checkpoint on this task's target; the
        device adds its contention on top.
    restart_cost:
        Seconds each restart costs under this task's migration type.
    migration_type:
        ``"A"`` when checkpoints are local (each segment runs as one
        wake), ``"B"`` when shared (module docstring).
    device_for_vm:
        Callable mapping the currently held VM to the storage device
        checkpoints are written to.  Only the per-interval loop asks: a
        one-wake segment prices its checkpoints at the planned cost and
        touches no device.
    injector:
        Failure injector (``next_failure_in() -> float``).
    record:
        Mutable record collecting the measurements.
    credit_skipped:
        Called with the number of reference-model events a segment
        skipped (module docstring).
    credit_stale:
        Called with the time of each stale heap entry of the reference
        model that a segment skipped.
    debit_stale:
        Called with the time of each stale heap entry a segment left
        that the reference model would not have (a crashed one wake).
    """

    def __init__(
        self,
        env: Environment,
        scheduler: GreedyScheduler,
        config,
        task: Task,
        intervals: int,
        checkpoint_cost: float,
        restart_cost: float,
        migration_type: str,
        device_for_vm: Callable[[object], StorageDevice],
        injector,
        record: TaskRecord,
        credit_skipped: Callable[[int], None],
        credit_stale: Callable[[float], None],
        debit_stale: Callable[[float], None],
    ):
        self.env = env
        self.scheduler = scheduler
        self.config = config
        self.task = task
        self.intervals = intervals
        self.checkpoint_cost = checkpoint_cost
        self.restart_cost = restart_cost
        self.migration_type = migration_type
        self.device_for_vm = device_for_vm
        self.injector = injector
        self.record = record
        self.credit_skipped = credit_skipped
        self.credit_stale = credit_stale
        self.debit_stale = debit_stale

    # ------------------------------------------------------------------
    # The waits below yield bare floats (the engine's allocation-free
    # raw-wake path) instead of Timeout objects; the scheduling order
    # and event counts are identical — see the engine module docstring.
    def _walk(self, t: float, committed: int, length: float, stop: float,
              first_wins: bool):
        """Walk a one-wake segment from time ``t`` to ``stop`` (module
        docstring), writing nothing.

        The first wake wins a tie with ``stop`` if ``first_wins``, every
        later wake loses it.  Returns ``(end, committed, last_commit_at,
        wakes, cut)``: the completion time, or ``stop`` if the walk got
        there first; the checkpoints committed by then; the time of the
        last commit; how many interval and checkpoint wakes the
        reference model would have processed; and the end of the wait
        ``stop`` cuts (``None`` on completion).
        """
        x = self.intervals
        cost = self.checkpoint_cost
        last_commit_at = t
        wakes = 0
        while True:
            t_next = t + length
            if t_next > stop or (t_next == stop
                                 and (wakes or not first_wins)):
                return stop, committed, last_commit_at, wakes, t_next
            wakes += 1
            t = t_next
            if committed == x - 1:
                return t, committed, last_commit_at, wakes, None
            t_next = t + cost
            if t_next >= stop:
                return stop, committed, last_commit_at, wakes, t_next
            wakes += 1
            t = t_next
            committed += 1
            last_commit_at = t

    def _finish(self, vm, completed: bool) -> TaskRecord:
        """Release ``vm`` (if held) and close the record."""
        rec = self.record
        if vm is not None:
            self.scheduler.release(vm)
        rec.finish_time = self.env.now
        rec.completed = completed
        rec.storage_target = self.migration_type
        return rec

    def run(self):
        """Generator process executing the task (register with
        ``env.process``)."""
        env = self.env
        cfg = self.config
        rec = self.record
        task = self.task
        rec.submit_time = env.now

        x = self.intervals
        length = float(task.te / x)
        committed = 0  # completed intervals whose checkpoint is durable
        restart_due = 0.0  # restart cost owed at the next placement
        # Checkpoints on a local ramdisk: each segment is one wake.
        one_wake = self.migration_type == "A"

        while committed < x:
            # -- placement --------------------------------------------------
            wait_from = env.now
            vm = yield self.scheduler.acquire(task.task_id, task.mem_mb)
            vm.current_task_id = task.task_id
            rec.queue_wait += env.now - wait_from
            if rec.first_start_time is None:
                rec.first_start_time = env.now
            yield cfg.placement_overhead
            if restart_due > 0.0:
                rec.restart_overhead += restart_due
                yield restart_due
                restart_due = 0.0

            # Register for host-failure interrupts only while actually
            # executing (the try blocks below catch them).
            vm.current_process = env.active_process
            uptime = self.injector.next_failure_in()

            watched = uptime != _INF
            deadline = env.now + float(uptime) if watched else _INF
            if one_wake:
                start = env.now
                end, done_to, last_commit_at, wakes, cut = self._walk(
                    start, committed, length, deadline, True)
                try:
                    yield env.wake_at(end)
                except Interrupt as itr:
                    # A host crash: settle the segment at this instant.
                    # Wakes strictly before it are done; the wait in
                    # progress is the reference model's stale entry.
                    _, done_to, last_commit_at, wakes, cut = self._walk(
                        start, committed, length, env.now, False)
                    self.credit_skipped(wakes + 3 if watched else wakes)
                    self.credit_stale(cut)
                    # The watchdog's deadline entry, once its start
                    # popped: a crash at the segment start came first.
                    if watched and env.now > start:
                        self.credit_stale(deadline)
                    # The engine pops this segment's own wake, now stale.
                    self.debit_stale(end)
                    cause = itr.cause
                else:
                    if cut is None:
                        if watched:
                            self.credit_skipped(wakes - 1 + 3)
                            self.credit_stale(deadline)
                        else:
                            self.credit_skipped(wakes - 1)
                    else:
                        self.credit_skipped(wakes + 3)
                        self.credit_stale(cut)
                    cause = "task-failure"
                # The checkpoints passed, one at a time as the
                # per-interval loop adds them.
                rec.n_checkpoints += done_to - committed
                for _ in range(done_to - committed):
                    rec.checkpoint_overhead += self.checkpoint_cost
                if cut is None:
                    return self._finish(vm, True)
                committed = done_to
            else:
                device = self.device_for_vm(vm)
                begin_checkpoint = device.begin_checkpoint
                end_checkpoint = device.end_checkpoint
                planned_cost = self.checkpoint_cost
                if watched:
                    # Armed right before the first wait (engine contract).
                    watch = env.deadline(uptime)
                    # The reference watchdog's interrupt and exit, and
                    # its start unless the deadline pushed one itself.
                    self.credit_skipped(3 if watch.reserved else 2)
                # ``now`` tracks env.now: a raw wait of ``d`` wakes at
                # exactly ``now + d``.
                now = last_commit_at = env.now
                first = True
                on_deadline = False
                try:
                    while True:
                        due = now + length
                        # The first wake wins a tie with the deadline,
                        # later ones lose.
                        if due > deadline or (due == deadline and not first):
                            on_deadline = True
                            yield watch.wait()
                            break
                        first = False
                        yield length
                        now = due
                        if committed == x - 1:
                            # Final interval: the task completes.
                            if watched:
                                self.credit_stale(deadline)
                            return self._finish(vm, True)
                        cost, token = begin_checkpoint(planned_cost)
                        try:
                            due = now + cost
                            if due >= deadline:
                                on_deadline = True
                                yield watch.wait()
                                break
                            yield cost
                        finally:
                            end_checkpoint(token)
                        now = last_commit_at = due
                        committed += 1
                        rec.n_checkpoints += 1
                        rec.checkpoint_overhead += cost
                    self.credit_stale(due)
                    cause = "task-failure"
                except Interrupt as itr:
                    # A host crash: of the reference's two stale entries
                    # (the wait, the watchdog's deadline) one is real.
                    if on_deadline:
                        self.credit_stale(due)
                    elif watched and watch.started:
                        self.credit_stale(deadline)
                    cause = itr.cause

            # Failure: lose progress since the last committed checkpoint.
            rec.n_failures += 1
            rec.n_migrations += 1
            rec.rollback_loss += env.now - last_commit_at
            if cause == "host-failure" and self.migration_type == "A":
                # The local ramdisk died with the host: every
                # checkpoint is gone and the task restarts from
                # scratch (§1's reliability argument for shared disks).
                committed = 0
            if rec.n_failures >= cfg.max_failures_per_task:
                return self._finish(vm, False)
            self.scheduler.release(vm)
            yield cfg.failure_detection_delay
            restart_due = self.restart_cost

        return self._finish(None, True)
