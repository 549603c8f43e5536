"""The per-interval task executor and memory-priced storage devices,
vendored as the benchmark baseline.

A snapshot of ``TaskExecutor.run`` (``src/repro/cluster/executor.py``)
and of the storage devices (``src/repro/storage/devices.py``, with
``contention_factor_nfs`` from ``costmodel.py``) as of git ce2d30c,
before checkpoints were priced from the task's plan, local segments
ran as one wake and the per-interval loop dropped its failure
watchdog.  ``run_des_bench.py`` measures the executor speedup against
it.  Two adaptations let it drive the current platform: the
constructor accepts (and ignores) the plan's checkpoint cost, and each
device the platform hands out is mirrored by a snapshot device of the
same kind (a DM-NFS mirror shares the original's generator, so server
draws are unchanged).  Not part of the package — benchmarks only.
"""

from __future__ import annotations

import weakref

import numpy as np

from repro.sim.engine import Interrupt
from repro.storage import devices as current
from repro.storage.costmodel import (
    NFS_CONTENTION_AVG,
    checkpoint_cost_local,
    checkpoint_cost_nfs,
)

__all__ = ["TaskExecutor"]


def contention_factor_nfs(parallel_degree: int) -> float:
    """Table 2 contention multiplier, fitting the trend on every call."""
    if parallel_degree < 1:
        raise ValueError(f"parallel degree must be >= 1, got {parallel_degree}")
    base = NFS_CONTENTION_AVG[0]
    if parallel_degree <= len(NFS_CONTENTION_AVG):
        return NFS_CONTENTION_AVG[parallel_degree - 1] / base
    xs = np.arange(1, len(NFS_CONTENTION_AVG) + 1, dtype=float)
    ys = np.asarray(NFS_CONTENTION_AVG)
    slope = float(np.polyfit(xs, ys, 1)[0])
    return (ys[-1] + slope * (parallel_degree - len(ys))) / base


class LocalRamdisk:
    def __init__(self):
        self._active = 0

    def begin_checkpoint(self, mem_mb: float):
        self._active += 1
        return checkpoint_cost_local(mem_mb), self

    def end_checkpoint(self, token) -> None:
        if self._active <= 0:
            raise RuntimeError("end_checkpoint without matching begin_checkpoint")
        self._active -= 1


class NFSServer:
    def __init__(self):
        self._active = 0
        self.peak_parallel = 0

    def begin_checkpoint(self, mem_mb: float):
        self._active += 1
        self.peak_parallel = max(self.peak_parallel, self._active)
        cost = checkpoint_cost_nfs(mem_mb) * contention_factor_nfs(self._active)
        return cost, self

    def end_checkpoint(self, token) -> None:
        if self._active <= 0:
            raise RuntimeError("end_checkpoint without matching begin_checkpoint")
        self._active -= 1


class DMNFS:
    def __init__(self, n_servers: int, rng):
        self.servers = [NFSServer() for _ in range(n_servers)]
        self.rng = rng

    def begin_checkpoint(self, mem_mb: float):
        server = self.servers[int(self.rng.integers(0, len(self.servers)))]
        return server.begin_checkpoint(mem_mb)

    def end_checkpoint(self, token) -> None:
        token.end_checkpoint(token)


#: snapshot mirror of each device the platform handed out
_MIRRORS: "weakref.WeakKeyDictionary[object, object]" = (
    weakref.WeakKeyDictionary())


def _mirror(device):
    twin = _MIRRORS.get(device)
    if twin is None:
        if isinstance(device, current.DMNFS):
            twin = DMNFS(device.n_servers, device.rng)
        elif isinstance(device, current.NFSServer):
            twin = NFSServer()
        else:
            twin = LocalRamdisk()
        _MIRRORS[device] = twin
    return twin


class TaskExecutor:
    """Runs one task to completion on the simulated cluster."""

    def __init__(self, *, env, scheduler, config, task, intervals,
                 restart_cost, migration_type, device_for_vm, injector,
                 record, checkpoint_cost=None):
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

    def _watchdog(self, victim, delay: float):
        """Interrupt ``victim`` after ``delay`` (cancelled by interrupt)."""
        try:
            yield float(delay)
            victim.interrupt("task-failure")
        except Interrupt:
            return

    def run(self):
        """Generator process executing the task."""
        env = self.env
        cfg = self.config
        rec = self.record
        task = self.task
        rec.submit_time = env.now

        x = self.intervals
        length = float(task.te / x)
        committed = 0
        restart_due = 0.0

        while committed < x:
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

            vm.current_process = env.active_process
            device = _mirror(self.device_for_vm(vm))
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
                if dog is not None:
                    dog.interrupt()
                self.scheduler.release(vm)
                rec.finish_time = env.now
                rec.completed = True
                rec.storage_target = self.migration_type
                return rec
            except Interrupt as itr:
                if dog is not None and dog.is_alive:
                    dog.interrupt()
                rec.n_failures += 1
                rec.n_migrations += 1
                rec.rollback_loss += env.now - last_commit_at
                if itr.cause == "host-failure" and self.migration_type == "A":
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
