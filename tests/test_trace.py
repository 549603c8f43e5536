"""Unit tests for trace models, synthesis, statistics, IO and sampling."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.trace.models import Job, JobType, Task, Trace
from repro.trace.sampler import failed_job_sample, filter_by_length
from repro.trace.stats import (
    build_estimator,
    interval_cdf_by_priority,
    job_length_cdf,
    job_memory_cdf,
    mnof_mtbf_table,
)
from repro.trace.synthesizer import TraceConfig, synthesize_trace


def _task(task_id=0, job_id=0, index=0, te=100.0, mem=50.0, prio=1,
          intervals=(), observed=(), scale=0.0):
    return Task(
        task_id=task_id, job_id=job_id, index=index, te=te, mem_mb=mem,
        priority=prio, n_failures=len(intervals),
        failure_intervals=tuple(intervals), interval_scale=scale,
        observed_intervals=tuple(observed),
    )


class TestTaskModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            _task(te=0.0)
        with pytest.raises(ValueError):
            _task(mem=-1.0)
        with pytest.raises(ValueError):
            _task(prio=0)
        with pytest.raises(ValueError):
            _task(prio=13)
        with pytest.raises(ValueError):
            Task(task_id=0, job_id=0, index=0, te=1.0, mem_mb=1.0,
                 priority=1, n_failures=2, failure_intervals=(1.0,))
        with pytest.raises(ValueError):
            _task(intervals=(0.0,))
        with pytest.raises(ValueError):
            Task(task_id=0, job_id=0, index=0, te=1.0, mem_mb=1.0,
                 priority=1, n_failures=1, failure_intervals=(1.0,),
                 observed_intervals=(1.0, 2.0))

    def test_failed_flag(self):
        assert not _task().failed
        assert _task(intervals=(10.0,)).failed

    def test_recorded_intervals_fallback(self):
        t = _task(intervals=(10.0,))
        assert t.recorded_intervals == (10.0,)
        t2 = _task(intervals=(10.0,), observed=(25.0,))
        assert t2.recorded_intervals == (25.0,)


class TestJobModel:
    def test_requires_tasks(self):
        with pytest.raises(ValueError):
            Job(job_id=0, job_type=JobType.SEQUENTIAL, submit_time=0.0,
                tasks=())

    def test_task_job_id_consistency(self):
        with pytest.raises(ValueError):
            Job(job_id=1, job_type=JobType.SEQUENTIAL, submit_time=0.0,
                tasks=(_task(job_id=0),))

    def test_length_semantics(self):
        tasks = (_task(0, 0, 0, te=100.0), _task(1, 0, 1, te=300.0))
        st = Job(job_id=0, job_type=JobType.SEQUENTIAL, submit_time=0.0,
                 tasks=tasks)
        bot = Job(job_id=0, job_type=JobType.BAG_OF_TASKS, submit_time=0.0,
                  tasks=tasks)
        assert st.length == 400.0  # sequential: sum
        assert bot.length == 300.0  # parallel: max
        assert st.total_te == bot.total_te == 400.0

    def test_failed_task_fraction(self):
        tasks = (_task(0, 0, 0, intervals=(5.0,)), _task(1, 0, 1))
        job = Job(job_id=0, job_type=JobType.SEQUENTIAL, submit_time=0.0,
                  tasks=tasks)
        assert job.failed_task_fraction == 0.5

    def test_max_mem(self):
        tasks = (_task(0, 0, 0, mem=10.0), _task(1, 0, 1, mem=99.0))
        job = Job(job_id=0, job_type=JobType.BAG_OF_TASKS, submit_time=0.0,
                  tasks=tasks)
        assert job.max_mem_mb == 99.0


class TestTraceModel:
    def test_sorted_required(self):
        j1 = Job(job_id=0, job_type=JobType.SEQUENTIAL, submit_time=5.0,
                 tasks=(_task(0, 0),))
        j2 = Job(job_id=1, job_type=JobType.SEQUENTIAL, submit_time=1.0,
                 tasks=(_task(1, 1),))
        with pytest.raises(ValueError):
            Trace((j1, j2))

    def test_iteration_and_counts(self, small_trace):
        assert len(small_trace) == 200
        assert small_trace.n_tasks == sum(j.n_tasks for j in small_trace)
        assert small_trace.n_tasks == len(list(small_trace.tasks()))

    def test_by_type_partition(self, small_trace):
        st = small_trace.by_type(JobType.SEQUENTIAL)
        bot = small_trace.by_type(JobType.BAG_OF_TASKS)
        assert len(st) + len(bot) == len(small_trace)

    def test_horizon(self, small_trace):
        assert small_trace.horizon() == small_trace.jobs[-1].submit_time


class TestSynthesizer:
    def test_deterministic(self):
        t1 = synthesize_trace(TraceConfig(n_jobs=30), seed=5)
        t2 = synthesize_trace(TraceConfig(n_jobs=30), seed=5)
        assert t1 == t2

    def test_seed_changes_output(self):
        t1 = synthesize_trace(TraceConfig(n_jobs=30), seed=5)
        t2 = synthesize_trace(TraceConfig(n_jobs=30), seed=6)
        assert t1 != t2

    def test_job_count(self, small_trace):
        assert len(small_trace) == 200

    def test_bounds_respected(self, small_trace):
        cfg = TraceConfig()
        for task in small_trace.tasks():
            assert cfg.length_min <= task.te <= cfg.length_max
            assert cfg.mem_min <= task.mem_mb <= cfg.mem_max
            assert 1 <= task.priority <= 12

    def test_bot_jobs_have_at_least_two_tasks(self, small_trace):
        for job in small_trace:
            if job.job_type is JobType.BAG_OF_TASKS:
                assert job.n_tasks >= 2
            else:
                assert job.n_tasks >= 1

    def test_history_consistent(self, small_trace):
        for task in small_trace.tasks():
            assert task.n_failures == len(task.failure_intervals)
            # Progress-preserving history: intervals sum below te.
            assert sum(task.failure_intervals) <= task.te
            assert task.interval_scale > 0

    def test_observed_inflated(self, small_trace):
        for task in small_trace.tasks():
            for true_iv, obs_iv in zip(task.failure_intervals,
                                       task.observed_intervals):
                assert obs_iv > true_iv  # delay strictly positive

    def test_arrival_times_increase(self, small_trace):
        times = [j.submit_time for j in small_trace]
        assert all(a < b for a, b in zip(times, times[1:]))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TraceConfig(n_jobs=0)
        with pytest.raises(ValueError):
            TraceConfig(bot_fraction=1.5)
        with pytest.raises(ValueError):
            TraceConfig(arrival_rate=0.0)
        with pytest.raises(ValueError):
            TraceConfig(priority_weights=(1.0,) * 5)
        with pytest.raises(ValueError):
            TraceConfig(length_min=100.0, length_max=50.0)


class TestStats:
    def test_estimator_from_trace(self, small_trace):
        est = build_estimator(small_trace)
        assert est.n_tasks == small_trace.n_tasks
        mnof = est.mnof_lookup()
        assert all(v >= 0 for v in mnof.values())

    def test_estimator_observed_vs_true(self, small_trace):
        obs = build_estimator(small_trace, use_observed=True)
        true = build_estimator(small_trace, use_observed=False)
        p = obs.priorities()[0]
        # Observed (delay-polluted) MTBF must exceed the true one.
        assert obs.group_stats(p).mtbf > true.group_stats(p).mtbf
        # MNOF is timestamp-free and therefore identical.
        assert obs.group_stats(p).mnof == true.group_stats(p).mnof

    def test_interval_cdf_by_priority(self, small_trace):
        cdfs = interval_cdf_by_priority(small_trace)
        for p, (xs, ys) in cdfs.items():
            assert 1 <= p <= 12
            assert np.all(np.diff(xs) >= 0)
            assert ys[-1] == pytest.approx(1.0)

    def test_job_cdfs_cover_groups(self, small_trace):
        mem = job_memory_cdf(small_trace)
        length = job_length_cdf(small_trace)
        assert set(mem) == set(length) == {"ST", "BOT", "mix"}
        assert mem["mix"][0].size == len(small_trace)

    def test_empty_pools_give_empty_arrays(self):
        bot_only = Trace((Job(job_id=0, job_type=JobType.BAG_OF_TASKS,
                              submit_time=0.0,
                              tasks=(_task(0, 0, 0), _task(1, 0, 1))),))
        for cdfs in (job_memory_cdf(bot_only), job_length_cdf(bot_only)):
            xs, ys = cdfs["ST"]
            assert xs.size == ys.size == 0
            assert cdfs["BOT"][0].size == cdfs["mix"][0].size == 1
        # No task failed: no priority has an interval pool.
        assert interval_cdf_by_priority(bot_only) == {}

    def test_mnof_mtbf_table_shape(self, small_trace):
        tables = mnof_mtbf_table(small_trace, length_caps=(1000.0, math.inf))
        assert set(tables) == {"ST", "BOT", "mix"}
        for rows in tables.values():
            for st in rows:
                assert st.mnof >= 0
                assert st.mtbf > 0


class TestSamplers:
    def test_failed_job_sample_rule(self, small_trace):
        sampled = failed_job_sample(small_trace, 0.5)
        for job in sampled:
            assert job.failed_task_fraction >= 0.5
        # And it actually filters something in a trace with calm jobs.
        assert len(sampled) < len(small_trace)

    def test_failed_job_sample_zero_keeps_all(self, small_trace):
        assert len(failed_job_sample(small_trace, 0.0)) == len(small_trace)

    def test_filter_by_length(self, small_trace):
        capped = filter_by_length(small_trace, 1000.0)
        for job in capped:
            assert all(t.te <= 1000.0 for t in job.tasks)

    def test_validation(self, small_trace):
        with pytest.raises(ValueError):
            failed_job_sample(small_trace, 1.5)
        with pytest.raises(ValueError):
            filter_by_length(small_trace, 0.0)
