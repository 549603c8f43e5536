"""Tests for host-failure injection and checkpoint-loss semantics."""

from __future__ import annotations

import gc
import types

import numpy as np
import pytest

from repro.cluster import CloudPlatform, ClusterConfig
from repro.cluster.executor import TaskExecutor
from repro.cluster.records import TaskRecord
from repro.sim.engine import Environment, Process
from repro.core.policies import FixedCountPolicy, NoCheckpointPolicy
from repro.trace.models import Job, JobType, Task, Trace


def _bot_trace(n_tasks=10, te=2000.0, interval_scale=1e9):
    tasks = tuple(
        Task(task_id=k, job_id=0, index=k, te=te, mem_mb=100.0,
             priority=1, interval_scale=interval_scale)
        for k in range(n_tasks)
    )
    return Trace((Job(job_id=0, job_type=JobType.BAG_OF_TASKS,
                      submit_time=0.0, tasks=tasks),))


class TestHostFailureConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ClusterConfig(host_mtbf=0.0)
        with pytest.raises(ValueError):
            ClusterConfig(host_repair_time=-1.0)

    def test_default_no_host_failures(self):
        assert ClusterConfig().host_mtbf is None


class TestHostFailures:
    def test_tasks_survive_host_crashes(self):
        cfg = ClusterConfig(n_hosts=4, host_mtbf=2500.0,
                            host_repair_time=50.0, storage="dmnfs")
        res = CloudPlatform(cfg, seed=5).run_trace(
            _bot_trace(), FixedCountPolicy(10)
        )
        recs = res.jobs[0].tasks
        assert all(t.completed for t in recs)
        # With 10 x 2000 s of work and a 2500 s per-host MTBF, crashes
        # must have struck at least one task.
        assert sum(t.n_failures for t in recs) > 0

    def test_local_checkpoints_lost_on_host_death(self):
        """The §1 reliability argument: under host crashes, shared-disk
        checkpointing beats local ramdisks because local checkpoints die
        with the host."""
        results = {}
        for storage in ("local", "dmnfs"):
            cfg = ClusterConfig(n_hosts=4, host_mtbf=3000.0,
                                host_repair_time=60.0, storage=storage)
            res = CloudPlatform(cfg, seed=5).run_trace(
                _bot_trace(), FixedCountPolicy(10)
            )
            results[storage] = res.mean_wpr()
        assert results["dmnfs"] > results["local"]

    def test_crash_counters(self):
        cfg = ClusterConfig(n_hosts=2, host_mtbf=1000.0,
                            host_repair_time=10.0, storage="dmnfs")
        plat = CloudPlatform(cfg, seed=1)
        res = plat.run_trace(_bot_trace(n_tasks=4, te=3000.0),
                             NoCheckpointPolicy())
        assert all(t.completed for t in res.jobs[0].tasks)

    def test_no_mtbf_means_no_crashes(self):
        cfg = ClusterConfig(n_hosts=2, storage="dmnfs")
        res = CloudPlatform(cfg, seed=1).run_trace(
            _bot_trace(n_tasks=4, te=500.0), NoCheckpointPolicy()
        )
        assert all(t.n_failures == 0 for t in res.jobs[0].tasks)

    def test_deterministic(self):
        cfg = ClusterConfig(n_hosts=4, host_mtbf=2500.0,
                            host_repair_time=50.0, storage="dmnfs")
        r1 = CloudPlatform(cfg, seed=5).run_trace(
            _bot_trace(), FixedCountPolicy(10))
        r2 = CloudPlatform(cfg, seed=5).run_trace(
            _bot_trace(), FixedCountPolicy(10))
        assert r1.mean_wpr() == r2.mean_wpr()
        assert r1.makespan == r2.makespan

class TestEventCount:
    @pytest.mark.parametrize("storage, host_mtbf, interval_scale", [
        ("nfs", None, 800.0),
        ("local", 1500.0, 1e9),
    ], ids=["nfs-task-failures", "local-host-crashes"])
    def test_n_events_is_what_the_engine_popped(
            self, monkeypatch, storage, host_mtbf, interval_scale):
        from repro.cluster import platform

        envs = []

        class Recording(Environment):
            __slots__ = ()

            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                envs.append(self)

        monkeypatch.setattr(platform, "Environment", Recording)
        cfg = ClusterConfig(n_hosts=3, vms_per_host=2, host_mtbf=host_mtbf,
                            host_repair_time=50.0, storage=storage)
        res = CloudPlatform(cfg, seed=5).run_trace(
            _bot_trace(n_tasks=8, interval_scale=interval_scale),
            FixedCountPolicy(10))
        assert sum(t.n_failures for t in res.task_records) > 0
        (env,) = envs
        assert res.n_events == env.events_processed > 0


class TestFinishedWorkIsFreedByRefcount:
    def test_no_task_or_job_state_in_cyclic_garbage(self):
        """Finished task and job processes, their generators, executors
        and records die by reference count, host crashes included; only
        the never-ending host monitors and VM <-> host links are left
        for the cyclic collector."""
        cfg = ClusterConfig(n_hosts=3, vms_per_host=2, host_mtbf=1500.0,
                            host_repair_time=50.0, storage="local")
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            res = CloudPlatform(cfg, seed=5).run_trace(
                _bot_trace(n_tasks=8), FixedCountPolicy(10))
            assert sum(t.n_failures for t in res.task_records) > 0
            del res
            gc.collect()
            garbage = list(gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        leaked = [
            o for o in garbage
            if isinstance(o, (TaskExecutor, TaskRecord))
            or (isinstance(o, Process)
                and o.name.startswith(("task-", "job-")))
            or (isinstance(o, types.GeneratorType)
                and o.__name__ in ("run", "job_process"))
        ]
        assert leaked == []
        assert any(isinstance(o, Process) for o in garbage)  # monitors


class TestCrashBeforeTheTaskRegisters:
    """Known defect, pinned until its fix ships behind a model version.

    A task registers with its VM (``vm.current_process``) only after
    the placement and restart waits, so a host crash inside them does
    not interrupt it: the task keeps running on the dead host, and
    under local storage its ramdisk checkpoints survive the crash.
    At base seed 0, ``host-crashes-local-wipe`` at 500 tasks has 2 of
    the 322 VMs busy at a crash in that window.
    """

    @pytest.mark.xfail(strict=True, reason="a host crash during the "
                       "placement wait does not interrupt the task")
    def test_crash_during_placement_kills_the_task(self):
        crash = float(np.random.default_rng((0, 0x4057, 0)).exponential(10.0))
        cfg = ClusterConfig(n_hosts=1, vms_per_host=1, storage="local",
                            placement_overhead=2 * crash, host_mtbf=10.0,
                            host_repair_time=1000.0, max_failures_per_task=1)
        task = Task(task_id=0, job_id=0, index=0, te=50.0, mem_mb=100.0,
                    priority=1)
        trace = Trace((Job(job_id=0, job_type=JobType.SEQUENTIAL,
                           submit_time=0.0, tasks=(task,)),))
        res = CloudPlatform(cfg, seed=0).run_trace(
            trace, NoCheckpointPolicy(), replay_history=True)
        (rec,) = res.task_records
        # The crash uses up the task's one-failure budget.
        assert (rec.n_failures, rec.completed, rec.finish_time) == \
            (1, False, crash)
