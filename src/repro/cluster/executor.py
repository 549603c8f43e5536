"""Task execution with checkpointing, failure handling and migration.

One :class:`TaskExecutor` drives one task through the cluster:

1. acquire a VM from the greedy scheduler (queue wait is endogenous);
2. run equidistant intervals, writing checkpoints on the task's storage
   target with congestion pricing from the device;
3. when the failure watchdog fires (uptime drawn from the injector),
   lose the progress since the last committed checkpoint, release the
   VM, pay detection + restart (migration) costs, and resume from the
   checkpoint on a newly acquired VM;
4. record everything in a :class:`~repro.cluster.records.TaskRecord`.

The plan (interval count, restart cost, migration type) is the task's
row of the platform's one :func:`~repro.core.placement.resolve_tasks`
call, so the DES compares Formula (3) against Young's formula under
identical placement and contention conditions.
"""

from __future__ import annotations

from typing import Callable

from repro.cluster.records import TaskRecord
from repro.cluster.scheduler import GreedyScheduler
from repro.sim.engine import Environment, Interrupt, Process
from repro.storage.devices import StorageDevice
from repro.trace.models import Task

__all__ = ["TaskExecutor"]


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
    """

    def __init__(
        self,
        env: Environment,
        scheduler: GreedyScheduler,
        config,
        task: Task,
        intervals: int,
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
        self.restart_cost = restart_cost
        self.migration_type = migration_type
        self.device_for_vm = device_for_vm
        self.injector = injector
        self.record = record

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
            device = self.device_for_vm(vm)
            uptime = self.injector.next_failure_in()
            me = env.active_process
            dog = (
                env.process(self._watchdog(me, uptime), name=f"dog-{task.task_id}")
                if uptime != float("inf")
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
                    cost, token = device.begin_checkpoint(task.mem_mb)
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
                self.scheduler.release(vm)
                rec.finish_time = env.now
                rec.completed = True
                rec.storage_target = self.migration_type
                return rec
            except Interrupt as itr:
                # Failure: lose progress since the last committed checkpoint.
                # Cancel the task-failure watchdog if another source (the
                # host monitor) interrupted us, so it cannot fire later.
                if dog is not None and dog.is_alive:
                    dog.interrupt()
                rec.n_failures += 1
                rec.n_migrations += 1
                rec.rollback_loss += env.now - last_commit_at
                if itr.cause == "host-failure" and self.migration_type == "A":
                    # The local ramdisk died with the host: every
                    # checkpoint is gone and the task restarts from
                    # scratch (§1's reliability argument for shared disks).
                    committed = 0
                self.scheduler.release(vm)
                if rec.n_failures >= cfg.max_failures_per_task:
                    rec.finish_time = env.now
                    rec.completed = False
                    rec.storage_target = self.migration_type
                    return rec
                yield cfg.failure_detection_delay
                restart_due = self.restart_cost

        rec.finish_time = env.now
        rec.completed = True
        rec.storage_target = self.migration_type
        return rec
