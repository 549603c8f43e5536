"""The platform façade: wire hosts, scheduler, storage and executors.

:class:`CloudPlatform` reproduces the paper's testbed behaviour
end-to-end: jobs arrive per the trace, sequential-task jobs run their
tasks one after another, bag-of-task jobs fan out, every task is
checkpointed per the configured policy, and failures are injected from
the per-priority catalog.  Before any job starts, one
:func:`~repro.core.placement.resolve_tasks` call plans every task of
the trace (storage target, checkpoint and restart cost, interval
count); each task's executor then reads its row.  Local-ramdisk tasks
run each segment as one wake, which a host crash settles at the crash
instant; shared-storage tasks run the watchdog-free per-interval loop
(:mod:`repro.cluster.executor`).  A task draws its failures from
``default_rng((seed, task_id))``; one
:func:`~repro.failures.streams.task_stream_states` call computes every
such state for the trace, as one row of ``uint64`` words per task, and
each task's injector seeks a shared generator to its row
(:func:`~repro.failures.streams.stream_injector`).
Each job process starts at its submit time and each host monitor at
its first crash (``Environment.process(at=)``), so nothing waits from
t=0.  The returned :class:`~repro.cluster.records.PlatformResult`
carries per-task and per-job measurements (WPR, wall-clock, overheads,
queueing); its ``n_events`` is the number of heap entries the run's
event loop popped (:attr:`~repro.sim.engine.Environment.events_processed`).
"""

from __future__ import annotations

import math

import numpy as np

from repro.cluster.config import ClusterConfig
from repro.cluster.executor import TaskExecutor
from repro.cluster.host import PhysicalHost
from repro.cluster.records import JobRecord, PlatformResult, TaskRecord
from repro.cluster.scheduler import GreedyScheduler
from repro.core.placement import by_priority, resolve_tasks
from repro.core.policies import CheckpointPolicy
from repro.failures.catalog import PriorityFailureModel, google_like_catalog
from repro.failures.distributions import Exponential
from repro.failures.injector import TraceReplayInjector
from repro.failures.streams import stream_injector, task_stream_states
from repro.sim.engine import Environment
from repro.storage.devices import DMNFS, NFSServer, StorageDevice
from repro.trace.models import Job, JobType, Trace

__all__ = ["CloudPlatform"]


class CloudPlatform:
    """A simulated data center executing traces under a checkpoint policy.

    Parameters
    ----------
    config:
        Deployment knobs (defaults mirror the paper's 32-host testbed).
    catalog:
        Per-priority failure model used to inject failures (defaults to
        the calibrated Google-like catalog).
    seed:
        Root seed; every task gets an independent child RNG stream so
        runs are reproducible and policy comparisons can share failure
        randomness by reusing the seed.
    """

    def __init__(
        self,
        config: ClusterConfig | None = None,
        catalog: PriorityFailureModel | None = None,
        seed: int = 0,
    ):
        self.config = config if config is not None else ClusterConfig()
        self.catalog = catalog if catalog is not None else google_like_catalog()
        self.seed = seed

    # ------------------------------------------------------------------
    def _build(self):
        cfg = self.config
        env = Environment()
        hosts: list[PhysicalHost] = []
        vm_id = 0
        for h in range(cfg.n_hosts):
            host = PhysicalHost(host_id=h, mem_mb=cfg.host_mem_mb)
            for _ in range(cfg.vms_on_host(h)):
                host.add_vm(vm_id, cfg.vm_mem_mb, cfg.vm_ramdisk_mb)
                vm_id += 1
            hosts.append(host)
        scheduler = GreedyScheduler(env, hosts)
        return env, hosts, scheduler

    # ------------------------------------------------------------------
    def run_trace(
        self,
        trace: Trace,
        policy: CheckpointPolicy,
        mnof_by_priority: dict[int, float] | None = None,
        mtbf_by_priority: dict[int, float] | None = None,
        replay_history: bool = False,
        _stream_states: np.ndarray | None = None,
    ) -> PlatformResult:
        """Execute ``trace`` under ``policy`` and collect records.

        Parameters
        ----------
        mnof_by_priority, mtbf_by_priority:
            The *believed* failure statistics fed to the policy (the
            paper estimates them per priority group from history).
            Missing priorities default to MNOF 0 / MTBF ``inf`` — i.e.
            "no failures expected", yielding a single interval.
        replay_history:
            When true, failures replay each task's recorded historical
            intervals (trace-driven injection, like the paper's
            ``kill -9`` replays); otherwise fresh intervals are drawn
            from the catalog.
        _stream_states:
            The :func:`~repro.failures.streams.task_stream_states`
            array of ``trace.tasks()`` (one row of state words per
            task), when the caller computed it in one batch for several
            traces (:mod:`repro.des.sharding`).
        """
        cfg = self.config
        env, hosts, scheduler = self._build()
        job_records: list[JobRecord] = []

        # Plan every task up front; row = position in trace.tasks().
        tasks = list(trace.tasks())
        n = len(tasks)
        priority = np.fromiter((t.priority for t in tasks), np.int64, n)
        local, ckpt, restart, intervals = resolve_tasks(
            cfg.storage,
            policy,
            np.fromiter((t.te for t in tasks), float, n),
            np.fromiter((t.mem_mb for t in tasks), float, n),
            by_priority(mnof_by_priority or {}, priority, 0.0),
            by_priority(mtbf_by_priority or {}, priority, math.inf),
        )
        # Type-B tasks write to DM-NFS, unless the mode is plain "nfs".
        # The device (and DM-NFS's server-choice stream, seeded on its
        # own) is built only when some task writes to it.
        shared_device = None
        if not local.all():
            shared_device = (
                NFSServer(0) if cfg.storage == "nfs"
                else DMNFS(cfg.n_hosts,
                           np.random.default_rng((self.seed, 0xD15C))))
        local, ckpt, restart, intervals = (
            local.tolist(), ckpt.tolist(), restart.tolist(),
            intervals.tolist())
        # Per-host ramdisk checkpoints and no host-crash monitors: no
        # shared resource couples concurrently running tasks.
        no_contention = cfg.storage == "local" and cfg.host_mtbf is None

        if not replay_history:
            # Every task's default_rng((seed, task_id)) state, in one batch.
            streams = (task_stream_states(
                self.seed, [t.task_id for t in tasks])
                if _stream_states is None else _stream_states)
            # Each task seeks it to its own stream before drawing.
            shared_rng = np.random.default_rng(0)

        def start_task(task, row: int, jrec: JobRecord):
            """Record, plan and launch one task; returns its process."""
            record = TaskRecord(
                task_id=task.task_id,
                job_id=task.job_id,
                priority=task.priority,
                te=task.te,
                mem_mb=task.mem_mb,
            )
            jrec.tasks.append(record)
            if replay_history:
                injector = TraceReplayInjector(task.failure_intervals)
            else:
                injector = stream_injector(
                    # Frailty ground truth: the task's private
                    # exponential law.
                    Exponential(1.0 / task.interval_scale)
                    if task.interval_scale > 0
                    else self.catalog.interval_distribution(task.priority),
                    shared_rng, streams[row], self.seed, task.task_id,
                    max_failures=cfg.max_failures_per_task,
                )

            fixed_device = None if local[row] else shared_device

            def device_for_vm(vm) -> StorageDevice:
                if fixed_device is not None:
                    return fixed_device
                return vm.host.ramdisk

            executor = TaskExecutor(
                env=env,
                scheduler=scheduler,
                config=cfg,
                task=task,
                intervals=intervals[row],
                checkpoint_cost=ckpt[row],
                restart_cost=restart[row],
                migration_type="A" if local[row] else "B",
                device_for_vm=device_for_vm,
                injector=injector,
                record=record,
            )
            return env.process(executor.run(), name=f"task-{task.task_id}")

        def job_process(job: Job, first_row: int, jrec: JobRecord):
            """Started at the job's submit time (``env.process(at=)``)."""
            rows = enumerate(job.tasks, first_row)
            if job.job_type is JobType.SEQUENTIAL:
                for row, task in rows:
                    yield start_task(task, row, jrec)
            else:
                procs = [start_task(task, row, jrec) for row, task in rows]
                if no_contention:
                    # A completed Process stays yieldable, so joining
                    # the fan-out one process at a time observes the
                    # same completion instant as an AllOf — without the
                    # condition event or its per-operand callbacks.
                    for proc in procs:
                        yield proc
                else:
                    yield env.all_of(procs)

        def host_lifecycle(host, mtbf: float, repair: float, hrng):
            """§2 liveness model: the host crashes at exponential times,
            killing every task running on its VMs; after repair it
            rejoins and queued work can use it again.  Started at its
            first crash (``env.process(at=)``)."""
            while True:
                scheduler.set_host_up(host, False)
                host.n_crashes += 1
                for vm in host.vms:
                    proc = vm.current_process
                    if vm.busy and proc is not None and proc.is_alive:
                        proc.interrupt("host-failure")
                yield float(repair)
                scheduler.set_host_up(host, True)
                yield float(hrng.exponential(mtbf))

        # Monitors and jobs start at their first event rather than with
        # a wait from t=0: every entry pushed here precedes every later
        # push either way, so the pop order is the same.
        if cfg.host_mtbf is not None:
            for host in hosts:
                hrng = np.random.default_rng((self.seed, 0x4057, host.host_id))
                env.process(
                    host_lifecycle(host, cfg.host_mtbf, cfg.host_repair_time,
                                   hrng),
                    name=f"host-monitor-{host.host_id}",
                    at=float(hrng.exponential(cfg.host_mtbf)),
                )

        job_procs = []
        first_row = 0
        for job in trace:
            jrec = JobRecord(
                job_id=job.job_id,
                job_type=job.job_type.value,
                priority=job.priority,
                submit_time=job.submit_time,
            )
            job_records.append(jrec)
            job_procs.append(env.process(
                job_process(job, first_row, jrec), name=f"job-{job.job_id}",
                at=max(0.0, float(job.submit_time))))
            first_row += job.n_tasks

        if cfg.host_mtbf is not None:
            # Host monitors run forever; stop once every job completed.
            env.run(until=env.all_of(job_procs))
        else:
            env.run()
        # env.now is the last event's time, which may be a stale wake
        # of a cancelled wait; the makespan is the last task completion.
        finishes = [
            t.finish_time
            for j in job_records
            for t in j.tasks
            if t.finish_time is not None
        ]
        return PlatformResult(
            jobs=job_records,
            makespan=max(finishes) if finishes else env.now,
            peak_queue_length=scheduler.peak_queue_length,
            n_events=env.events_processed,
        )
