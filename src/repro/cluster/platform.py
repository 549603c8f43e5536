"""The platform façade: wire hosts, scheduler, storage and executors.

:class:`CloudPlatform` reproduces the paper's testbed behaviour
end-to-end: jobs arrive per the trace, sequential-task jobs run their
tasks one after another, bag-of-task jobs fan out, every task is
checkpointed per the configured policy, and failures are injected from
the per-priority catalog.  The returned
:class:`~repro.cluster.records.PlatformResult` carries per-task and
per-job measurements (WPR, wall-clock, overheads, queueing).
"""

from __future__ import annotations

import math

import numpy as np

from repro.cluster.config import ClusterConfig
from repro.cluster.executor import TaskExecutor
from repro.cluster.host import PhysicalHost
from repro.cluster.records import JobRecord, PlatformResult, TaskRecord
from repro.cluster.scheduler import GreedyScheduler
from repro.core.placement import select_storage
from repro.core.policies import CheckpointPolicy, TaskProfile
from repro.failures.catalog import PriorityFailureModel, google_like_catalog
from repro.failures.injector import FailureInjector, TraceReplayInjector
from repro.sim.engine import Environment
from repro.storage.blcr import BLCRModel, MigrationType
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
        # Contention-free deployments (per-host ramdisk checkpoints, no
        # host-crash monitors) have no shared resource coupling
        # concurrently running tasks, so the engine's no-contention
        # mode applies: fan-out joins skip condition-event bookkeeping.
        env = Environment(
            no_contention=(cfg.storage == "local" and cfg.host_mtbf is None)
        )
        hosts: list[PhysicalHost] = []
        vm_id = 0
        for h in range(cfg.n_hosts):
            host = PhysicalHost(host_id=h, mem_mb=cfg.host_mem_mb)
            for _ in range(cfg.vms_on_host(h)):
                host.add_vm(vm_id, cfg.vm_mem_mb, cfg.vm_ramdisk_mb)
                vm_id += 1
            hosts.append(host)
        scheduler = GreedyScheduler(env, hosts)
        device_rng = np.random.default_rng((self.seed, 0xD15C))
        nfs = NFSServer(0)
        dmnfs = DMNFS(cfg.n_hosts, device_rng)
        return env, hosts, scheduler, nfs, dmnfs

    def _storage_for_task(
        self,
        te: float,
        mnof: float,
        mem_mb: float,
        nfs: NFSServer,
        dmnfs: DMNFS,
    ) -> tuple[str, float, object]:
        """Resolve the storage mode for one task.

        Returns ``(migration_type, checkpoint_cost, fixed_device)``;
        ``fixed_device`` is ``None`` for the local target (the device
        follows the VM's host).
        """
        cfg = self.config
        blcr = BLCRModel(mem_mb=mem_mb)
        if cfg.storage == "local":
            return "A", blcr.checkpoint_cost_local, None
        if cfg.storage == "nfs":
            return "B", blcr.checkpoint_cost_shared, nfs
        if cfg.storage == "dmnfs":
            return "B", blcr.checkpoint_cost_shared, dmnfs
        # auto: §4.2.2 comparison between local ramdisk and DM-NFS.
        decision = select_storage(te, mnof, blcr)
        if decision.target is MigrationType.A:
            return "A", blcr.checkpoint_cost_local, None
        return "B", blcr.checkpoint_cost_shared, dmnfs

    # ------------------------------------------------------------------
    def run_trace(
        self,
        trace: Trace,
        policy: CheckpointPolicy,
        mnof_by_priority: dict[int, float] | None = None,
        mtbf_by_priority: dict[int, float] | None = None,
        replay_history: bool = False,
        until: float | None = None,
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
        until:
            Optional simulation-time horizon (default: run to quiescence).
        """
        cfg = self.config
        env, hosts, scheduler, nfs, dmnfs = self._build()
        rng_root = np.random.default_rng(self.seed)
        job_records: list[JobRecord] = []
        mnof_map = mnof_by_priority or {}
        mtbf_map = mtbf_by_priority or {}

        def make_executor(task, record: TaskRecord) -> TaskExecutor:
            mnof = mnof_map.get(task.priority, 0.0)
            mtbf = mtbf_map.get(task.priority, math.inf)
            mig, ckpt_cost, fixed_device = self._storage_for_task(
                task.te, mnof, task.mem_mb, nfs, dmnfs
            )
            blcr = BLCRModel(mem_mb=task.mem_mb)
            profile = TaskProfile(
                te=task.te,
                checkpoint_cost=ckpt_cost,
                restart_cost=blcr.restart_cost(mig),
                mnof=mnof,
                mtbf=mtbf,
                priority=task.priority,
            )
            if replay_history:
                injector = TraceReplayInjector(task.failure_intervals)
            elif task.interval_scale > 0:
                # Frailty ground truth: the task's private exponential law.
                from repro.failures.distributions import Exponential

                injector = FailureInjector(
                    Exponential(1.0 / task.interval_scale),
                    np.random.default_rng((self.seed, task.task_id)),
                    max_failures=cfg.max_failures_per_task,
                )
            else:
                injector = FailureInjector(
                    self.catalog.interval_distribution(task.priority),
                    np.random.default_rng((self.seed, task.task_id)),
                    max_failures=cfg.max_failures_per_task,
                )

            def device_for_vm(vm) -> StorageDevice:
                if fixed_device is not None:
                    return fixed_device
                return vm.host.ramdisk

            return TaskExecutor(
                env=env,
                scheduler=scheduler,
                config=cfg,
                task=task,
                policy=policy,
                profile=profile,
                device_for_vm=device_for_vm,
                blcr=blcr,
                migration_type=mig,
                injector=injector,
                record=record,
            )

        def job_process(job: Job, jrec: JobRecord):
            yield max(0.0, job.submit_time - env.now)
            if job.job_type is JobType.SEQUENTIAL:
                for task in job.tasks:
                    rec = TaskRecord(
                        task_id=task.task_id,
                        job_id=job.job_id,
                        priority=task.priority,
                        te=task.te,
                        mem_mb=task.mem_mb,
                    )
                    jrec.tasks.append(rec)
                    ex = make_executor(task, rec)
                    yield env.process(ex.run(), name=f"task-{task.task_id}")
            else:
                procs = []
                for task in job.tasks:
                    rec = TaskRecord(
                        task_id=task.task_id,
                        job_id=job.job_id,
                        priority=task.priority,
                        te=task.te,
                        mem_mb=task.mem_mb,
                    )
                    jrec.tasks.append(rec)
                    ex = make_executor(task, rec)
                    procs.append(env.process(ex.run(), name=f"task-{task.task_id}"))
                if env.no_contention:
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
            rejoins and queued work can use it again."""
            while True:
                yield float(hrng.exponential(mtbf))
                scheduler.set_host_up(host, False)
                host.n_crashes += 1
                for vm in host.vms:
                    proc = vm.current_process
                    if vm.busy and proc is not None and proc.is_alive:
                        proc.interrupt("host-failure")
                yield float(repair)
                scheduler.set_host_up(host, True)

        if cfg.host_mtbf is not None:
            for host in hosts:
                env.process(
                    host_lifecycle(
                        host,
                        cfg.host_mtbf,
                        cfg.host_repair_time,
                        np.random.default_rng((self.seed, 0x4057, host.host_id)),
                    ),
                    name=f"host-monitor-{host.host_id}",
                )

        job_procs = []
        for job in trace:
            jrec = JobRecord(
                job_id=job.job_id,
                job_type=job.job_type.value,
                priority=job.priority,
                submit_time=job.submit_time,
            )
            job_records.append(jrec)
            job_procs.append(
                env.process(job_process(job, jrec), name=f"job-{job.job_id}")
            )

        if until is not None:
            env.run(until=until)
        elif cfg.host_mtbf is not None:
            # Host monitors run forever; stop once every job completed.
            env.run(until=env.all_of(job_procs))
        else:
            env.run()
        # Keep RNG root alive for deterministic extension points.
        del rng_root
        # env.now is inflated by cancelled watchdog timeouts that drain
        # at their original (possibly huge) deadlines; the meaningful
        # makespan is the last task completion.
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
