"""Task execution with checkpointing, failure handling and migration.

One :class:`TaskExecutor` drives one task through the cluster:

1. acquire a VM from the greedy scheduler (queue wait is endogenous);
2. run equidistant intervals, writing checkpoints on the task's storage
   target, which adds its contention to the planned checkpoint cost;
3. when the failure watchdog fires (uptime drawn from the injector),
   lose the progress since the last committed checkpoint, release the
   VM, pay detection + restart (migration) costs, and resume from the
   checkpoint on a newly acquired VM;
4. record everything in a :class:`~repro.cluster.records.TaskRecord`.

The plan (interval count, uncontended checkpoint cost, restart cost,
migration type) is the task's row of the platform's one
:func:`~repro.core.placement.resolve_tasks` call, so the DES compares
Formula (3) against Young's formula under identical placement and
contention conditions.

One-wake segments
-----------------
A *segment* is the run of intervals and checkpoints between one
placement and the next failure or completion.  Per interval it costs
two heap events (interval end, checkpoint end) plus a watchdog
process.  When nothing outside the task can observe an instant inside
the segment, the executor runs it as **one wake** instead: it walks
the segment's interval and checkpoint ends in place, with the same
float additions the per-interval waits make (``t = t + length``, ``t =
t + C``), compares each with the failure deadline ``now + uptime``,
and waits once, at the absolute time of completion or failure
(:meth:`~repro.sim.engine.Environment.wake_at`), with no watchdog.

*When.*  The task checkpoints to a local ramdisk, which prices every
checkpoint at the flat planned C (Table 2, local rows) and whose
in-flight count nobody reads; and the run has no host monitors
(nothing interrupts a task but its own failure).  The platform runs
every trace to its last completion, so nothing reads a record
mid-segment.  Shared devices (NFS in-flight counts set other tasks'
prices) and host-crash runs (a host monitor may interrupt at any
instant) keep the per-interval loop.

*Boundary rule.*  The per-interval model arms the segment's first wake
before the watchdog arms the failure deadline, and every later wake
after it, so at an exactly equal time the first wake wins the tie and
every later wake loses it: a task whose first interval ends exactly at
its deadline completes that interval (and the task, if it was the
last one); a checkpoint that would end exactly at the deadline is
lost.  The walk applies the same rule.  Checkpoint counts and overhead
are added one checkpoint at a time, as the per-interval loop adds them.

*Events.*  The skipped wakes are credited through the executor's
``credit_skipped`` callable and the platform adds them to the engine's
own count, so :attr:`~repro.cluster.records.PlatformResult.n_events`
equals the per-interval model's.  With ``i`` the interval and checkpoint wakes
that would have fired, the per-interval model processes ``i`` wakes
plus four watchdog events on completion (its start, the cancelling
interrupt, its exit, its stale deadline), ``i`` alone with an infinite
uptime (no watchdog), and ``i`` plus five on failure (start, deadline,
interrupt, exit, the task's stale wake); the one-wake segment
processes one, so it credits ``i - 1 + 4``, ``i - 1`` and ``i + 4``.

Same-instant ties *between different tasks* are outside this rule:
the one wake takes its heap sequence number at the segment start,
where the per-interval model took the last wake's at the previous
checkpoint end, so an entry of another task landing at the bit-equal
instant may be served in the other order.  The differential test
(``tests/test_executor_differential.py``) builds one such tie: the
task records agree, the queue peak does not.
"""

from __future__ import annotations

from typing import Callable

from repro.cluster.records import TaskRecord
from repro.cluster.scheduler import GreedyScheduler
from repro.sim.engine import Environment, Interrupt, Process
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
        ``"A"`` when checkpoints are local, ``"B"`` when shared.
    device_for_vm:
        Callable mapping the currently held VM to the storage device
        checkpoints are written to (the local-ramdisk target moves with
        the task; shared targets are fixed).
    injector:
        Failure injector (``next_failure_in() -> float``).
    record:
        Mutable record collecting the measurements.
    credit_skipped:
        When given, run each segment as one wake and pass this callable
        the per-interval-model events each segment skipped (see the
        module docstring for when a caller may: local ramdisk, no host
        monitors); ``None`` keeps the
        per-interval loop.
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
        credit_skipped: Callable[[int], None] | None = None,
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

    # ------------------------------------------------------------------
    # The waits below yield bare floats (the engine's allocation-free
    # raw-wake path) instead of Timeout objects; the scheduling order
    # and event counts are identical — see the engine module docstring.
    def _watchdog(self, victim: Process, delay: float):
        """Interrupt ``victim`` after ``delay`` (cancelled by interrupt)."""
        try:
            yield float(delay)
            victim.interrupt("task-failure")
        except Interrupt:
            return

    def _walk(self, t: float, committed: int, length: float,
              deadline: float):
        """Walk a one-wake segment from time ``t`` (module docstring).

        Returns ``(end, committed, last_commit_at, wakes, completed)``:
        the completion or failure time, the intervals durably done by
        then, the time of the last commit, and how many interval and
        checkpoint wakes the per-interval model would have processed.
        """
        x = self.intervals
        cost = self.checkpoint_cost
        rec = self.record
        last_commit_at = t
        wakes = 0
        while True:
            t_next = t + length
            # The first wake wins a tie with the deadline, later ones lose.
            if t_next > deadline or (wakes and t_next == deadline):
                return deadline, committed, last_commit_at, wakes, False
            wakes += 1
            t = t_next
            if committed == x - 1:
                return t, x, last_commit_at, wakes, True
            t_next = t + cost
            if t_next >= deadline:
                return deadline, committed, last_commit_at, wakes, False
            wakes += 1
            t = t_next
            committed += 1
            rec.n_checkpoints += 1
            rec.checkpoint_overhead += cost
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
            # executing (the try block below catches them).
            vm.current_process = env.active_process
            uptime = self.injector.next_failure_in()

            if self.credit_skipped is not None:
                watched = uptime != _INF
                end, committed, last_commit_at, wakes, done = self._walk(
                    env.now, committed, length,
                    env.now + float(uptime) if watched else _INF)
                yield env.wake_at(end)
                if done:
                    self.credit_skipped(wakes - 1 + (4 if watched else 0))
                    return self._finish(vm, True)
                self.credit_skipped(wakes + 4)
                cause = "task-failure"
            else:
                device = self.device_for_vm(vm)
                me = env.active_process
                dog = (
                    env.process(self._watchdog(me, uptime),
                                name=f"dog-{task.task_id}")
                    if uptime != _INF
                    else None
                )
                last_commit_at = env.now
                try:
                    while committed < x:
                        if committed == x - 1:
                            # Final interval: run to completion, no checkpoint.
                            yield length
                            committed = x
                            break
                        yield length
                        cost, token = device.begin_checkpoint(
                            self.checkpoint_cost)
                        try:
                            yield cost
                        finally:
                            device.end_checkpoint(token)
                        committed += 1
                        rec.n_checkpoints += 1
                        rec.checkpoint_overhead += cost
                        last_commit_at = env.now
                    # Segment completed the task: cancel the watchdog.
                    if dog is not None:
                        dog.interrupt()
                    return self._finish(vm, True)
                except Interrupt as itr:
                    # Cancel the task-failure watchdog if another source
                    # (the host monitor) interrupted us, so it cannot
                    # fire later.
                    if dog is not None and dog.is_alive:
                        dog.interrupt()
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
