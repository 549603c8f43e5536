"""DES host-group sharding: equivalence, invariance, refusal.

The acceptance contract of the DES-tier performance overhaul:

* sharded and unsharded runs are *exactly per-task aligned* on every
  contention-free verify scenario — failure counts, completion flags
  and interval plans bit-for-bit, comparable wallclocks to
  float-accumulation precision (the same tolerance the verify
  subsystem's exact scalar-vs-DES checks use);
* the sharded result (digest, summary, aggregated extra) is identical
  for every worker count, because the shard plan is a pure function of
  the workload;
* shared-storage and host-crash scenarios refuse to shard with a clear
  reason, recorded in the run's ``extra`` when workers were requested.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.des.sharding import (
    ShardingError,
    plan_host_groups,
    run_des_sharded,
    shard_refusal_reason,
    shard_workers,
)
from repro.verify.runner import run_des, run_des_unsharded
from repro.verify.scenarios import build_workload, get_scenario, list_scenarios

#: the tolerance of the verify subsystem's exact comparable-wallclock
#: check — sharding shifts absolute timestamps, so float accumulation
#: may differ in the last ULPs.
WALL_RTOL, WALL_ATOL = 1e-7, 1e-5


def _eligible_scenarios():
    """Contention-free scenarios: local storage, no host crashes."""
    return [
        s for s in list_scenarios()
        if s.storage.mode == "local" and s.failures.host_mtbf is None
    ]


def _refusing_scenarios():
    return [
        s for s in list_scenarios()
        if not (s.storage.mode == "local" and s.failures.host_mtbf is None)
    ]


class TestPlan:
    def test_partition_covers_hosts_and_jobs_exactly_once(self):
        for n_hosts, n_jobs in [(1, 1), (3, 10), (8, 8), (16, 5), (5, 100)]:
            plan = plan_host_groups(n_hosts, n_jobs)
            hosts = [h for grp, _ in plan for h in grp]
            jobs = sorted(j for _, grp in plan for j in grp)
            assert hosts == list(range(n_hosts))
            assert jobs == list(range(n_jobs))
            assert len(plan) == min(n_hosts, n_jobs)
            assert all(grp for grp, _ in plan)
            assert all(grp for _, grp in plan)

    def test_plan_is_pure_and_worker_free(self):
        # Same inputs, same plan — and the signature has no worker knob.
        assert plan_host_groups(8, 20) == plan_host_groups(8, 20)

    def test_empty_trace_has_empty_plan(self):
        assert plan_host_groups(4, 0) == []

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            plan_host_groups(0, 5)
        with pytest.raises(ValueError):
            plan_host_groups(4, -1)


class TestShardedEqualsUnsharded:
    """Exact per-task alignment on every contention-free scenario."""

    @pytest.mark.parametrize(
        "name", [s.name for s in _eligible_scenarios()]
    )
    def test_per_task_alignment(self, name):
        workload = build_workload(get_scenario(name))
        un = run_des_unsharded(workload)
        sh = run_des_sharded(workload, workers=1)
        assert np.array_equal(un.n_failures, sh.n_failures)
        assert np.array_equal(un.completed, sh.completed)
        assert np.allclose(un.wallclock, sh.wallclock,
                           rtol=WALL_RTOL, atol=WALL_ATOL, equal_nan=True)
        # whole-run statistics stay comparable
        assert sh.extra["n_shards"] >= 1
        assert sh.extra["n_events"] > 0
        assert un.summary["completion_rate"] == sh.summary["completion_rate"]

    def test_streams_are_seeded_once_per_run(self, monkeypatch):
        from repro.cluster import platform

        workload = build_workload(get_scenario("exp-baseline-local"))
        expected = run_des_sharded(workload, workers=1).digest

        def per_shard(*args, **kwargs):
            raise AssertionError("a shard seeded its own streams")

        monkeypatch.setattr(platform, "task_stream_states", per_shard)
        assert run_des_sharded(workload, workers=1).digest == expected

    def test_run_des_dispatches_to_sharded_path(self):
        workload = build_workload(get_scenario("exp-baseline-local"))
        tr = run_des(workload)
        assert "n_shards" in tr.extra

    def test_run_des_keeps_single_loop_when_refused(self):
        workload = build_workload(get_scenario("storage-dmnfs"))
        tr = run_des(workload, workers=4)
        assert "n_shards" not in tr.extra


class TestWorkerInvariance:
    @pytest.mark.parametrize(
        "name", ["exp-baseline-local", "hetero-hosts", "google-trace-bursty"]
    )
    def test_digest_and_extra_invariant_across_workers(self, name):
        workload = build_workload(get_scenario(name))
        results = {w: run_des_sharded(workload, workers=w)
                   for w in (1, 2, 4)}
        digests = {r.digest for r in results.values()}
        assert len(digests) == 1
        extras = [r.extra for r in results.values()]
        assert extras[0] == extras[1] == extras[2]
        summaries = [r.summary for r in results.values()]
        assert summaries[0] == summaries[1] == summaries[2]


class TestSerialFallback:
    """Runs below the sweep's serial-fallback cost dispatch their shards
    in-process; larger ones keep the pool."""

    def test_small_run_uses_no_pool(self, monkeypatch):
        from repro import api
        from repro.parallel import runner

        spec = api.scenario_spec("exp-baseline-local", tier="des",
                                 workers=4).evolve(
            **{"workload.n_tasks": 200})
        serial = api.run(spec.evolve(**{"execution.workers": 1}))

        def no_pool(n_procs):
            raise AssertionError("a 200-task DES run started a pool")

        monkeypatch.setattr(runner, "get_pool", no_pool)
        res = api.run(spec)
        assert res.digest == serial.digest
        assert res.extra == serial.extra
        assert res.extra["workers_effective"] == 1.0

    def test_large_runs_keep_the_pool(self):
        spec = get_scenario("exp-baseline-local")
        assert shard_workers(spec.evolve(**{"workload.n_tasks": 600}), 4) == 1
        assert shard_workers(
            spec.evolve(**{"workload.n_tasks": 1150}), 4) == 4
        assert shard_workers(
            spec.evolve(**{"workload.n_tasks": 1150}), 1) == 1


class TestRefusal:
    @pytest.mark.parametrize(
        "name", [s.name for s in _refusing_scenarios()]
    )
    def test_refusal_reason_is_explicit(self, name):
        workload = build_workload(get_scenario(name))
        reason = shard_refusal_reason(workload.cluster)
        assert reason is not None
        assert "shard" in reason or "couple" in reason

    def test_forced_sharding_raises(self):
        workload = build_workload(get_scenario("storage-nfs-contended"))
        with pytest.raises(ShardingError, match="cannot shard"):
            run_des_sharded(workload)

    def test_host_crash_scenario_refuses(self):
        # local storage but crashing hosts: the host-crash physics is
        # the blocker (host-crashes-shared hits the storage rule first)
        workload = build_workload(get_scenario("host-crashes-local-wipe"))
        reason = shard_refusal_reason(workload.cluster)
        assert reason is not None and "host-crash" in reason

    def test_api_records_refusal_in_extra(self, caplog):
        import logging

        from repro import api

        with caplog.at_level(logging.INFO, logger="repro.api"):
            res = api.run(api.scenario_spec("storage-nfs-contended",
                                            tier="des", workers=2))
        assert "refuses to shard" in caplog.text
        assert res.extra["shard_refused"] == 1.0
        assert res.extra["workers_effective"] == 1.0

    def test_refusal_stays_out_of_the_record(self):
        # shard_refused depends on the requested worker count, so the
        # canonical store record moves it to provenance.
        from repro import api
        from repro.store import RunRecord

        res = api.run(api.scenario_spec("storage-nfs-contended",
                                        tier="des", workers=2))
        record = RunRecord.from_result(res)
        assert "shard_refused" not in record.extra
        assert record.provenance["shard_refused"] is True
