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

A *segment* is the run of intervals and checkpoints between one
placement and the next failure or completion.  Its failure deadline
lies ``uptime`` after the segment start, with ``uptime`` drawn from the
injector when the segment starts.

*Boundary rule.*  At an exactly equal time the segment's first wake
wins the tie with the deadline and every later wake loses it: a task
whose first interval ends exactly at its deadline completes that
interval (and the task, if it was the last one); a checkpoint that
would end exactly at the deadline is lost.

Per-interval segments
---------------------
A task on shared storage runs each wait: NFS in-flight counts set
other tasks' checkpoint prices, so every instant is observable.  Before
each interval or checkpoint wait the executor compares the wait's end
(``now + length``, or ``now + cost`` after ``begin_checkpoint``) with
the deadline and waits on whichever comes first, by the boundary rule.
It waits on the deadline through a :class:`~repro.sim.engine.Deadline`,
whose heap key orders the failure among other tasks' entries at the
same instant as a failure watchdog started at the segment start would:
an NFS checkpoint the deadline cuts ends before another task, arriving
at the same instant later, prices its own.  A checkpoint cut by the
deadline still runs ``end_checkpoint``.  Host monitors interrupt the
task process directly.

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
at the crash, including one ending at the bit-equal instant, is lost.
The crash wipes the ramdisk, so the task restarts from scratch as on
every type-A host failure.

*Ties between tasks.*  The one wake takes its heap sequence number at
the segment start, so among other tasks' entries at the bit-equal
instant it is served in segment-start order, where per-interval waits
would be served in the order of the previous checkpoint end.  The
differential test (``tests/test_executor_differential.py``) builds one
such tie: the task records agree, the queue peak does not.
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

    # ------------------------------------------------------------------
    # The waits below yield bare floats (the engine's allocation-free
    # raw-wake path) instead of Timeout objects; the scheduling order is
    # identical — see the engine module docstring.
    def _walk(self, t: float, committed: int, length: float, stop: float,
              first_wins: bool):
        """Walk a one-wake segment from time ``t`` to ``stop`` (module
        docstring), writing nothing.

        The first wake wins a tie with ``stop`` if ``first_wins``, every
        later wake loses it.  Returns ``(end, committed, last_commit_at,
        cut)``: the completion time, or ``stop`` if the walk got there
        first; the checkpoints committed by then; the time of the last
        commit; and whether ``stop`` cut the segment.
        """
        x = self.intervals
        cost = self.checkpoint_cost
        last_commit_at = t
        while True:
            t_next = t + length
            if t_next > stop or (t_next == stop and not first_wins):
                return stop, committed, last_commit_at, True
            first_wins = False
            t = t_next
            if committed == x - 1:
                return t, committed, last_commit_at, False
            t_next = t + cost
            if t_next >= stop:
                return stop, committed, last_commit_at, True
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
                end, done_to, last_commit_at, cut = self._walk(
                    start, committed, length, deadline, True)
                try:
                    yield env.wake_at(end)
                    cause = "task-failure"
                except Interrupt as itr:
                    # A host crash: settle the segment at this instant;
                    # wakes strictly before it are done.
                    _, done_to, last_commit_at, cut = self._walk(
                        start, committed, length, env.now, False)
                    cause = itr.cause
                # The checkpoints passed, one at a time as the
                # per-interval loop adds them.
                rec.n_checkpoints += done_to - committed
                for _ in range(done_to - committed):
                    rec.checkpoint_overhead += self.checkpoint_cost
                if not cut:
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
                # ``now`` tracks env.now: a raw wait of ``d`` wakes at
                # exactly ``now + d``.
                now = last_commit_at = env.now
                first = True
                try:
                    while True:
                        due = now + length
                        # The first wake wins a tie with the deadline,
                        # later ones lose.
                        if due > deadline or (due == deadline and not first):
                            yield watch.wait()
                            break
                        first = False
                        yield length
                        now = due
                        if committed == x - 1:
                            # Final interval: the task completes.
                            return self._finish(vm, True)
                        cost, token = begin_checkpoint(planned_cost)
                        try:
                            due = now + cost
                            if due >= deadline:
                                yield watch.wait()
                                break
                            yield cost
                        finally:
                            end_checkpoint(token)
                        now = last_commit_at = due
                        committed += 1
                        rec.n_checkpoints += 1
                        rec.checkpoint_overhead += cost
                    cause = "task-failure"
                except Interrupt as itr:
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
