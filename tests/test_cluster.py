"""Unit and integration tests for the cluster DES."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.config import ClusterConfig
from repro.cluster.host import PhysicalHost
from repro.cluster.platform import CloudPlatform
from repro.cluster.scheduler import GreedyScheduler
from repro.core.policies import NoCheckpointPolicy, OptimalCountPolicy, YoungPolicy
from repro.sim.engine import Environment
from repro.trace.models import Job, JobType, Task, Trace
from repro.trace.stats import build_estimator


class TestClusterConfig:
    def test_defaults_match_paper(self):
        cfg = ClusterConfig()
        assert cfg.n_hosts == 32
        assert cfg.vms_per_host == 7
        assert cfg.n_vms == 224
        assert cfg.vm_mem_mb == 1024.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ClusterConfig(n_hosts=0)
        with pytest.raises(ValueError):
            ClusterConfig(vms_per_host=20)  # exceeds host memory
        with pytest.raises(ValueError):
            ClusterConfig(storage="tape")
        with pytest.raises(ValueError):
            ClusterConfig(failure_detection_delay=-1.0)


class TestHostsAndVMs:
    def test_vm_capacity_enforced(self):
        host = PhysicalHost(host_id=0, mem_mb=2048.0)
        host.add_vm(0, 1024.0, 1024.0)
        host.add_vm(1, 1024.0, 1024.0)
        with pytest.raises(ValueError):
            host.add_vm(2, 1024.0, 1024.0)

    def test_available_memory_tracks_busy(self):
        host = PhysicalHost(host_id=0, mem_mb=4096.0)
        vm = host.add_vm(0, 1024.0, 1024.0)
        host.add_vm(1, 1024.0, 1024.0)
        assert host.available_mem_mb == 2048.0
        vm.assign(7)
        assert host.available_mem_mb == 1024.0
        assert host.n_idle_vms == 1
        vm.release()
        assert host.available_mem_mb == 2048.0

    def test_double_assign_rejected(self):
        host = PhysicalHost(host_id=0, mem_mb=2048.0)
        vm = host.add_vm(0, 1024.0, 1024.0)
        vm.assign(1)
        with pytest.raises(RuntimeError):
            vm.assign(2)

    def test_fits_checks_memory_and_ramdisk(self):
        host = PhysicalHost(host_id=0, mem_mb=2048.0)
        vm = host.add_vm(0, 1024.0, 512.0)
        assert vm.fits(500.0)
        assert not vm.fits(700.0)  # ramdisk too small
        assert not vm.fits(1500.0)


class TestGreedyScheduler:
    def _make(self, n_hosts=2, vms=2):
        env = Environment()
        hosts = []
        vm_id = 0
        for h in range(n_hosts):
            host = PhysicalHost(host_id=h, mem_mb=4096.0)
            for _ in range(vms):
                host.add_vm(vm_id, 1024.0, 1024.0)
                vm_id += 1
            hosts.append(host)
        return env, hosts, GreedyScheduler(env, hosts)

    def test_immediate_grant(self):
        env, hosts, sched = self._make()
        ev = sched.acquire(1, 100.0)
        assert ev.triggered
        env.run()
        vm = ev.value
        assert vm.busy

    def test_max_available_memory_host_chosen(self):
        env, hosts, sched = self._make()
        # Occupy one VM on host 0: host 1 now has more available memory.
        hosts[0].vms[0].assign(99)
        ev = sched.acquire(1, 100.0)
        env.run()
        assert ev.value.host.host_id == 1

    def test_queue_when_full(self):
        env, hosts, sched = self._make(n_hosts=1, vms=1)
        ev1 = sched.acquire(1, 100.0)
        ev2 = sched.acquire(2, 100.0)
        env.run()
        assert ev1.triggered and not ev2.triggered
        assert sched.queue_length == 1
        sched.release(ev1.value)
        env.run()
        assert ev2.triggered

    def test_small_task_not_head_blocked(self):
        env, hosts, sched = self._make(n_hosts=1, vms=1)
        ev1 = sched.acquire(1, 100.0)
        env.run()
        big = sched.acquire(2, 10_000.0)  # can never fit
        small = sched.acquire(3, 100.0)
        sched.release(ev1.value)
        env.run()
        assert small.triggered
        assert not big.triggered

    def test_grant_counters(self):
        env, hosts, sched = self._make()
        sched.acquire(1, 100.0)
        sched.acquire(2, 100.0)
        env.run()
        assert sched.total_grants == 2

    def test_validation(self):
        env = Environment()
        with pytest.raises(ValueError):
            GreedyScheduler(env, [])
        _, _, sched = self._make()
        with pytest.raises(ValueError):
            sched.acquire(1, 0.0)


def _single_task_trace(te=300.0, mem=100.0, priority=1, n=1, bot=False):
    jobs = []
    tid = 0
    for j in range(n):
        tasks = tuple(
            Task(task_id=tid + k, job_id=j, index=k, te=te, mem_mb=mem,
                 priority=priority, interval_scale=1e9)
            for k in range(2 if bot else 1)
        )
        tid += len(tasks)
        jobs.append(Job(
            job_id=j,
            job_type=JobType.BAG_OF_TASKS if bot else JobType.SEQUENTIAL,
            submit_time=float(j),
            tasks=tasks,
        ))
    return Trace(tuple(jobs))


class TestPlatformIntegration:
    def test_failure_free_task_wallclock(self):
        """With a near-infinite interval scale the task never fails; the
        wall-clock is te + checkpoints + placement overhead."""
        trace = _single_task_trace()
        cfg = ClusterConfig(placement_overhead=0.5)
        plat = CloudPlatform(cfg, seed=1)
        res = plat.run_trace(trace, NoCheckpointPolicy())
        (job,) = res.jobs
        assert job.completed
        (task,) = job.tasks
        assert task.n_failures == 0
        assert task.wallclock == pytest.approx(300.0 + 0.5)

    def test_checkpoint_overhead_accounted(self):
        trace = _single_task_trace()
        cfg = ClusterConfig(placement_overhead=0.0)
        plat = CloudPlatform(cfg, seed=1)
        from repro.core.policies import FixedCountPolicy
        res = plat.run_trace(trace, FixedCountPolicy(4))
        (task,) = res.jobs[0].tasks
        assert task.n_checkpoints == 3
        assert task.checkpoint_overhead > 0
        assert task.wallclock == pytest.approx(300.0 + task.checkpoint_overhead)

    @pytest.mark.parametrize("storage, built", [
        ("local", 0), ("nfs", 0), ("dmnfs", 1)])
    def test_dmnfs_built_only_when_a_task_writes_to_it(
            self, monkeypatch, storage, built):
        import repro.cluster.platform as platform_mod

        made = []

        class CountingDMNFS(platform_mod.DMNFS):
            def __init__(self, *args, **kwargs):
                made.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(platform_mod, "DMNFS", CountingDMNFS)
        from repro.core.policies import FixedCountPolicy
        res = CloudPlatform(ClusterConfig(storage=storage), seed=1).run_trace(
            _single_task_trace(n=3), FixedCountPolicy(4))
        assert len(made) == built
        assert all(job.completed for job in res.jobs)

    def test_replay_mode_injects_recorded_failures(self):
        task = Task(task_id=0, job_id=0, index=0, te=300.0, mem_mb=100.0,
                    priority=1, n_failures=2, failure_intervals=(50.0, 80.0),
                    interval_scale=100.0)
        trace = Trace((Job(job_id=0, job_type=JobType.SEQUENTIAL,
                           submit_time=0.0, tasks=(task,)),))
        plat = CloudPlatform(ClusterConfig(), seed=1)
        res = plat.run_trace(trace, NoCheckpointPolicy(), replay_history=True)
        (rec,) = res.jobs[0].tasks
        assert rec.n_failures == 2
        assert rec.completed
        assert rec.restart_overhead > 0

    def test_sequential_tasks_run_in_order(self):
        trace = _single_task_trace()
        # Two tasks in one ST job.
        t0 = Task(task_id=0, job_id=0, index=0, te=100.0, mem_mb=50.0,
                  priority=1, interval_scale=1e9)
        t1 = Task(task_id=1, job_id=0, index=1, te=100.0, mem_mb=50.0,
                  priority=1, interval_scale=1e9)
        trace = Trace((Job(job_id=0, job_type=JobType.SEQUENTIAL,
                           submit_time=0.0, tasks=(t0, t1)),))
        res = CloudPlatform(ClusterConfig(), seed=1).run_trace(
            trace, NoCheckpointPolicy()
        )
        rec0, rec1 = res.jobs[0].tasks
        assert rec1.submit_time >= rec0.finish_time

    def test_bot_tasks_run_in_parallel(self):
        t0 = Task(task_id=0, job_id=0, index=0, te=100.0, mem_mb=50.0,
                  priority=1, interval_scale=1e9)
        t1 = Task(task_id=1, job_id=0, index=1, te=100.0, mem_mb=50.0,
                  priority=1, interval_scale=1e9)
        trace = Trace((Job(job_id=0, job_type=JobType.BAG_OF_TASKS,
                           submit_time=0.0, tasks=(t0, t1)),))
        res = CloudPlatform(ClusterConfig(), seed=1).run_trace(
            trace, NoCheckpointPolicy()
        )
        rec0, rec1 = res.jobs[0].tasks
        assert rec0.submit_time == rec1.submit_time
        # Parallel: the job's wall-clock is about one task's length.
        assert res.jobs[0].wallclock < 150.0

    def test_queueing_when_cluster_tiny(self):
        # One VM, three parallel tasks: two must wait.
        tasks = tuple(
            Task(task_id=k, job_id=0, index=k, te=50.0, mem_mb=50.0,
                 priority=1, interval_scale=1e9)
            for k in range(3)
        )
        trace = Trace((Job(job_id=0, job_type=JobType.BAG_OF_TASKS,
                           submit_time=0.0, tasks=tasks),))
        cfg = ClusterConfig(n_hosts=1, vms_per_host=1, host_mem_mb=2048.0)
        res = CloudPlatform(cfg, seed=1).run_trace(trace, NoCheckpointPolicy())
        waits = sorted(t.queue_wait for t in res.jobs[0].tasks)
        assert waits[0] == 0.0
        assert waits[1] > 0.0 and waits[2] > waits[1]
        assert res.peak_queue_length >= 1

    @pytest.mark.parametrize("storage", ["local", "nfs", "dmnfs", "auto"])
    def test_all_storage_modes_run(self, tiny_trace, storage):
        cfg = ClusterConfig(storage=storage)
        est = build_estimator(tiny_trace)
        plat = CloudPlatform(cfg, seed=2)
        res = plat.run_trace(
            tiny_trace, OptimalCountPolicy(),
            est.mnof_lookup(), est.mtbf_lookup(),
        )
        assert all(j.completed for j in res.jobs)
        assert 0 < res.mean_wpr() <= 1.0

    def test_deterministic_given_seed(self, tiny_trace):
        est = build_estimator(tiny_trace)
        kw = dict(mnof_by_priority=est.mnof_lookup(),
                  mtbf_by_priority=est.mtbf_lookup())
        r1 = CloudPlatform(ClusterConfig(), seed=9).run_trace(
            tiny_trace, OptimalCountPolicy(), **kw)
        r2 = CloudPlatform(ClusterConfig(), seed=9).run_trace(
            tiny_trace, OptimalCountPolicy(), **kw)
        np.testing.assert_allclose(r1.job_wprs(), r2.job_wprs())
        assert r1.makespan == r2.makespan

    def test_policies_comparable_on_same_seed(self, tiny_trace):
        est = build_estimator(tiny_trace)
        kw = dict(mnof_by_priority=est.mnof_lookup(),
                  mtbf_by_priority=est.mtbf_lookup())
        f3 = CloudPlatform(ClusterConfig(), seed=9).run_trace(
            tiny_trace, OptimalCountPolicy(), **kw)
        yg = CloudPlatform(ClusterConfig(), seed=9).run_trace(
            tiny_trace, YoungPolicy(), **kw)
        assert f3.job_wprs().shape == yg.job_wprs().shape

    def test_nonpositive_believed_mtbf_rejected(self, tiny_trace):
        priority = next(tiny_trace.tasks()).priority
        with pytest.raises(ValueError):
            CloudPlatform(ClusterConfig(), seed=1).run_trace(
                tiny_trace, YoungPolicy(), mtbf_by_priority={priority: -5.0})

    def test_wpr_within_unit_interval(self, tiny_trace):
        est = build_estimator(tiny_trace)
        res = CloudPlatform(ClusterConfig(), seed=3).run_trace(
            tiny_trace, OptimalCountPolicy(),
            est.mnof_lookup(), est.mtbf_lookup(),
        )
        wprs = res.job_wprs()
        assert np.all(wprs > 0) and np.all(wprs <= 1.0)

    def test_by_priority_grouping(self, tiny_trace):
        res = CloudPlatform(ClusterConfig(), seed=3).run_trace(
            tiny_trace, NoCheckpointPolicy())
        groups = res.by_priority()
        assert sum(len(v) for v in groups.values()) == sum(
            j.completed for j in res.jobs
        )
