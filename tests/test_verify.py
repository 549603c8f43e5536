"""Tests for the cross-tier differential verification subsystem."""

from __future__ import annotations

import json
import math
import pickle
import zlib

import numpy as np
import pytest

from repro import api
from repro.cluster.config import ClusterConfig
from repro.core.simulate import simulate_task, simulate_tasks_blocked
from repro.failures.catalog import ExplicitCatalog
from repro.failures.distributions import Exponential, Weibull
from repro.failures.injector import FailureInjector
from repro.failures.catalog import google_like_catalog
from repro.spec import FailureLawSpec, FailureSpec, SpecError
from repro.trace.models import Job, JobType, Task, Trace
from repro.trace.synthesizer import TraceConfig, synthesize_trace
from repro.verify import (
    SCENARIOS,
    build_workload,
    get_scenario,
    list_scenarios,
    run_scenario,
)
from repro.verify.cli import main as verify_main
from repro.verify.compare import ks_statistic, ks_threshold
from repro.verify.golden import (
    compare_with_golden,
    golden_payload,
    load_golden,
    write_golden,
)
from repro.verify.runner import run_des, run_scalar, run_vector
from repro.verify import scenarios
from repro.verify.scenarios import make_distribution, make_policy


QUICK = "exp-baseline-local"


class TestScenarioRegistry:
    def test_at_least_25_scenarios(self):
        assert len(SCENARIOS) >= 25

    def test_quick_subset_nonempty(self):
        assert 3 <= len(list_scenarios(quick_only=True)) < len(SCENARIOS)

    def test_get_unknown_raises(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            get_scenario("no-such-scenario")

    def test_axes_cover_paper_dimensions(self):
        axes = {a for s in SCENARIOS.values() for a in s.tags}
        for expected in (
            "distribution:exponential", "distribution:weibull",
            "distribution:pareto", "storage:local", "storage:nfs",
            "arrival:bursty", "hosts:heterogeneous", "hosts:crashing",
            "policy:young",
        ):
            assert expected in axes, f"missing axis {expected}"

    def test_duplicate_priorities_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            FailureSpec(laws=(FailureLawSpec(5, "exponential", 100.0),
                              FailureLawSpec(5, "exponential", 200.0)))

    def test_make_distribution_means(self, rng):
        for family, shape in (
            ("exponential", 0.0), ("weibull", 0.7), ("weibull", 1.8),
            ("pareto", 2.5), ("lognormal", 1.0),
        ):
            dist = make_distribution(family, 500.0, shape)
            assert dist.mean() == pytest.approx(500.0, rel=1e-9)

    def test_make_distribution_unknown(self):
        with pytest.raises(ValueError, match="unknown distribution"):
            make_distribution("cauchy", 100.0)

    def test_make_policy_unknown(self):
        with pytest.raises(ValueError, match="unknown policy"):
            make_policy("zigzag")


class TestDeterminism:
    """Same seed -> identical results, across all three tiers."""

    def test_workload_build_is_pure(self):
        spec = get_scenario(QUICK)
        w1 = build_workload(spec)
        w2 = build_workload(spec)
        np.testing.assert_array_equal(w1.te, w2.te)
        np.testing.assert_array_equal(w1.intervals, w2.intervals)
        np.testing.assert_array_equal(w1.checkpoint_cost, w2.checkpoint_cost)
        np.testing.assert_array_equal(w1.submit, w2.submit)

    def test_base_seed_changes_workload(self):
        spec = get_scenario(QUICK)
        w1 = build_workload(spec)
        w2 = build_workload(spec.evolve(**{"execution.base_seed": 1}))
        assert not np.array_equal(w1.te, w2.te)

    def test_scalar_tier_bit_identical(self):
        w = build_workload(get_scenario(QUICK))
        assert run_scalar(w).digest == run_scalar(w).digest

    def test_vector_tier_bit_identical(self):
        w = build_workload(get_scenario(QUICK))
        assert run_vector(w).digest == run_vector(w).digest

    def test_des_tier_bit_identical_and_same_event_count(self):
        w = build_workload(get_scenario(QUICK))
        d1, d2 = run_des(w), run_des(w)
        assert d1.digest == d2.digest
        assert d1.extra["n_events"] == d2.extra["n_events"] > 0

    def test_simulate_task_same_injector_seed(self):
        dist = Exponential(1.0 / 400.0)
        outs = [
            simulate_task(
                te=300.0, intervals=5, checkpoint_cost=1.0, restart_cost=2.0,
                injector=FailureInjector(dist, np.random.default_rng(42)),
            )
            for _ in range(2)
        ]
        assert outs[0] == outs[1]

    def test_simulate_tasks_blocked_same_seed(self):
        dists = {0: Weibull(1.5, 500.0)}
        kwargs = dict(
            te=np.full(16, 300.0), intervals=np.full(16, 4),
            checkpoint_cost=np.full(16, 1.0), restart_cost=np.full(16, 2.0),
            dist_ids=np.zeros(16, dtype=int), distributions=dists,
        )
        r1 = simulate_tasks_blocked(rng=np.random.default_rng(7), **kwargs)
        r2 = simulate_tasks_blocked(rng=np.random.default_rng(7), **kwargs)
        assert r1.digest() == r2.digest()


def _workload_seed(spec) -> int:
    base_seed = spec.execution.base_seed
    return zlib.crc32(f"{base_seed}:{spec.name}".encode()) & 0x7FFFFFFF


def eager_synthetic_trace(spec) -> Trace:
    """The trace ``build_workload`` built eagerly, per task, for a
    ``synthetic`` spec before :attr:`Workload.trace` became lazy: the
    same RNG draws, then one ``Task``/``Job`` pair per task."""
    rng = np.random.default_rng((_workload_seed(spec), 0xB11D))
    w = spec.workload
    n = w.n_tasks
    if w.te_mode == "fixed":
        te = np.full(n, float(w.te_mean))
    else:
        te = np.clip(rng.lognormal(math.log(w.te_mean), w.te_sigma, size=n),
                     w.te_min, w.te_max)
    mem = np.clip(rng.lognormal(math.log(w.mem_mean), w.mem_sigma, size=n),
                  w.mem_min, w.mem_max)
    laws = spec.failures.laws
    priority = np.asarray([law.priority for law in laws],
                          dtype=np.int64)[np.arange(n) % len(laws)]
    if w.arrival == "batch":
        submit = np.zeros(n)
    elif w.arrival == "steady":
        submit = np.cumsum(rng.exponential(1.0 / w.arrival_rate, size=n))
    else:
        n_bursts = (n + w.burst_size - 1) // w.burst_size
        gaps = rng.exponential(w.burst_size / w.arrival_rate, size=n_bursts)
        submit = np.repeat(np.cumsum(gaps), w.burst_size)[:n]
    jobs = []
    for i in range(n):
        task = Task(task_id=i, job_id=i, index=0, te=float(te[i]),
                    mem_mb=float(mem[i]), priority=int(priority[i]))
        jobs.append(Job(job_id=i, job_type=JobType.SEQUENTIAL,
                        submit_time=float(submit[i]), tasks=(task,)))
    return Trace(tuple(jobs))


def _job_rows(trace: Trace) -> list[tuple]:
    return [
        (job.job_id, job.job_type, job.submit_time,
         tuple((t.task_id, t.te, t.mem_mb, t.priority) for t in job.tasks))
        for job in trace
    ]


_SYNTHETIC = [s.name for s in SCENARIOS.values()
              if s.workload.source == "synthetic"]
_GOOGLE = [s.name for s in SCENARIOS.values()
           if s.workload.source == "google"]


class TestLazyTrace:
    """``Workload.trace`` is built on first access, equal to the eager
    per-task build, and only the DES tier ever builds it."""

    @pytest.mark.parametrize("name", _SYNTHETIC)
    @pytest.mark.parametrize("base_seed", [0, 5])
    def test_synthetic_trace_matches_eager_build(self, name, base_seed):
        spec = get_scenario(name).evolve(**{"execution.base_seed": base_seed})
        w = build_workload(spec)
        assert "trace" not in vars(w)
        eager = eager_synthetic_trace(spec)
        assert _job_rows(w.trace) == _job_rows(eager)
        assert w.trace.jobs == eager.jobs

    @pytest.mark.parametrize("name", _GOOGLE)
    def test_google_trace_is_the_synthesized_one(self, name):
        spec = get_scenario(name)
        w = build_workload(spec)
        ws = spec.workload
        synthesized = synthesize_trace(
            TraceConfig(n_jobs=ws.trace_jobs, arrival_rate=ws.arrival_rate,
                        arrival_pattern=ws.trace_arrival,
                        burst_size=ws.trace_burst_size, mem_max=ws.mem_max,
                        length_max=ws.te_max),
            catalog=google_like_catalog(), seed=_workload_seed(spec))
        assert _job_rows(w.trace) == _job_rows(synthesized)
        assert w.trace.jobs == synthesized.jobs
        by_task = {t.task_id: job.submit_time
                   for job in synthesized for t in job.tasks}
        np.testing.assert_array_equal(
            w.submit, [by_task[i] for i in range(w.n_tasks)])

    def test_scalar_and_vector_never_build_the_trace(self):
        w = build_workload(get_scenario(QUICK))
        run_scalar(w)
        run_vector(w)
        assert "trace" not in vars(w)
        run_des(w)
        assert "trace" in vars(w)

    @pytest.mark.parametrize("tier", ["scalar", "vector"])
    def test_api_run_builds_no_task_objects(self, tier, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a Task was built off the DES tier")

        monkeypatch.setattr(scenarios, "Task", refuse)
        api.run(get_scenario(QUICK).evolve(**{"execution.tier": tier}))

    def test_workload_pickles_with_and_without_trace(self):
        w = build_workload(get_scenario(QUICK))
        cold = pickle.loads(pickle.dumps(w))
        assert "trace" not in vars(cold)
        assert cold.trace.jobs == w.trace.jobs
        warm = pickle.loads(pickle.dumps(w))
        assert "trace" in vars(warm) and warm.trace.jobs == w.trace.jobs

    @pytest.mark.parametrize("tier", ["scalar", "vector", "des"])
    @pytest.mark.parametrize("priority", [0, 13])
    def test_out_of_range_priority_rejected_on_every_tier(self, tier,
                                                          priority):
        with pytest.raises(SpecError, match=r"1\.\.12"):
            api.run(get_scenario(QUICK).evolve(**{
                "execution.tier": tier,
                "failures.laws": [{"priority": priority,
                                   "family": "exponential",
                                   "mean": 600.0}],
            }))

    @pytest.mark.parametrize("tier", ["scalar", "vector", "des"])
    @pytest.mark.parametrize("field,message", [
        ("te", "te must be positive"), ("mem", "mem_mb must be positive"),
    ])
    def test_non_positive_task_arrays_rejected(self, tier, field, message):
        # A huge sigma underflows some lognormal draws to exactly 0.0,
        # which a zero lower clip lets through.
        spec = get_scenario(QUICK).evolve(**{
            "execution.tier": tier,
            f"workload.{field}_sigma": 1000.0,
            f"workload.{field}_min": 0.0,
        })
        with pytest.raises(ValueError, match=message):
            api.run(spec)


class TestCrossTierAgreement:
    def test_exact_scenario_aligns_des_per_task(self):
        result = run_scenario(get_scenario(QUICK))
        assert result.passed, [c for c in result.checks if not c.passed]
        scalar = result.tiers["scalar"]
        des = result.tiers["des"]
        np.testing.assert_array_equal(scalar.n_failures, des.n_failures)
        np.testing.assert_allclose(des.wallclock, scalar.wallclock,
                                   rtol=1e-7, atol=1e-5)
        assert scalar.summary["total_failures"] > 0  # not vacuous

    def test_quick_subset_zero_violations(self):
        for spec in list_scenarios(quick_only=True):
            result = run_scenario(spec)
            assert result.passed, (
                spec.name, [c.to_dict() for c in result.checks if not c.passed]
            )

    def test_report_fragment_is_json_ready(self):
        result = run_scenario(get_scenario("policy-no-checkpoint"))
        json.dumps(result.to_dict())  # must not raise


class TestGolden:
    def test_roundtrip_and_digest_pin(self, tmp_path):
        result = run_scenario(get_scenario(QUICK))
        write_golden(result, tmp_path)
        golden = load_golden(QUICK, tmp_path)
        assert golden is not None
        checks = compare_with_golden(result, golden)
        assert all(c.passed for c in checks)

    def test_golden_specs_are_the_registered_specs(self):
        # Each golden tier section snapshots exactly the registered
        # scenario spec moved to that tier: same spec_digest, same
        # canonical spec dict.  Together with the bit-level scalar
        # digest check of `repro verify`, this pins that the registry
        # describes the runs the goldens were recorded from.
        from repro.store import canonical_spec_dict
        from repro.verify.golden import default_golden_dir

        names = []
        for path in sorted(default_golden_dir().glob("*.json")):
            golden = json.loads(path.read_text())
            if "scenario" not in golden:
                continue  # des_exact.json pins the DES tier separately
            names.append(golden["scenario"])
            spec = get_scenario(golden["scenario"])
            for tier in ("scalar", "vector", "des"):
                moved = spec.evolve(**{"execution.tier": tier})
                assert moved.spec_digest() == golden[tier]["spec_digest"], \
                    (path.name, tier)
                assert canonical_spec_dict(moved) == golden[tier]["spec"], \
                    (path.name, tier)
        assert sorted(names) == sorted(SCENARIOS)

    def test_missing_golden_is_a_violation(self):
        result = run_scenario(get_scenario(QUICK))
        checks = compare_with_golden(result, None)
        assert len(checks) == 1 and not checks[0].passed

    def test_corrupted_digest_trips(self, tmp_path):
        result = run_scenario(get_scenario(QUICK))
        payload = golden_payload(result)
        payload["scalar"]["digest"] = "0" * 64
        failed = [c for c in compare_with_golden(result, payload) if not c.passed]
        assert any(c.name == "golden:scalar-digest" for c in failed)

    def test_seed_mismatch_trips(self, tmp_path):
        result = run_scenario(get_scenario(QUICK))
        payload = golden_payload(result)
        payload["seed"] = payload["seed"] + 1
        failed = [c for c in compare_with_golden(result, payload) if not c.passed]
        assert any(c.name == "golden:seed" for c in failed)


class TestVerifyCLI:
    def test_list(self, capsys):
        assert verify_main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "exp-baseline-local" in out and "[quick]" in out

    def test_unknown_scenario_exits_2(self, capsys):
        assert verify_main(["definitely-not-a-scenario"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_conflicting_golden_flags_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            verify_main(["--update-golden", "--no-golden"])
        assert exc.value.code == 2

    def test_update_golden_with_nonzero_seed_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            verify_main(["--update-golden", "--seed", "3"])
        assert exc.value.code == 2

    def test_nonzero_seed_auto_skips_golden(self, capsys, tmp_path):
        # No goldens exist in tmp_path, yet a non-default seed must not
        # fail on them: golden comparison is skipped with a notice.
        assert verify_main(
            [QUICK, "--seed", "3", "--golden-dir", str(tmp_path)]
        ) == 0
        assert "skipping golden comparison" in capsys.readouterr().out

    def test_named_non_quick_with_quick_flag_errors(self, capsys):
        # exp-rare-failures is not in the quick subset: naming it with
        # --quick must error rather than silently drop it.
        assert verify_main(
            ["exp-baseline-local", "exp-rare-failures", "--quick"]
        ) == 2
        err = capsys.readouterr().err
        assert "not in the quick subset" in err
        assert "exp-rare-failures" in err

    def test_single_scenario_no_golden(self, capsys, tmp_path):
        report = tmp_path / "report.json"
        assert verify_main(
            [QUICK, "--no-golden", "--report", str(report)]
        ) == 0
        payload = json.loads(report.read_text())
        assert payload["passed"] and payload["n_scenarios"] == 1

    def test_update_then_check_golden(self, capsys, tmp_path):
        assert verify_main(
            [QUICK, "--update-golden", "--golden-dir", str(tmp_path)]
        ) == 0
        assert verify_main(
            [QUICK, "--golden-dir", str(tmp_path)]
        ) == 0

    def test_missing_golden_fails(self, capsys, tmp_path):
        assert verify_main([QUICK, "--golden-dir", str(tmp_path)]) == 1
        assert "VIOLATION" in capsys.readouterr().out

    def test_toplevel_cli_dispatches_verify(self, capsys):
        from repro.cli import main as toplevel
        assert toplevel(["verify", "--list"]) == 0
        assert "exp-baseline-local" in capsys.readouterr().out


class TestSupportingInfra:
    def test_explicit_catalog_interface(self):
        cat = ExplicitCatalog({1: Exponential(0.01), 5: Weibull(1.5, 300.0)})
        assert cat.priorities == (1, 5)
        assert cat.mtbf(1) == pytest.approx(100.0)
        assert cat.expected_mnof(1, te=500.0) == pytest.approx(5.0)
        with pytest.raises(KeyError):
            cat.interval_distribution(3)
        with pytest.raises(ValueError):
            ExplicitCatalog({})
        with pytest.raises(TypeError):
            ExplicitCatalog({1: "not-a-distribution"})

    def test_cluster_heterogeneous_pattern(self):
        cfg = ClusterConfig(n_hosts=4, vms_per_host_pattern=(2, 7))
        assert [cfg.vms_on_host(h) for h in range(4)] == [2, 7, 2, 7]
        assert cfg.n_vms == 18
        with pytest.raises(ValueError, match="pattern"):
            ClusterConfig(vms_per_host_pattern=())
        with pytest.raises(ValueError, match=">= 1"):
            ClusterConfig(vms_per_host_pattern=(0,))
        with pytest.raises(ValueError, match="exceeds host memory"):
            ClusterConfig(vms_per_host_pattern=(64,))

    def test_bursty_synthesizer_groups_arrivals(self):
        cfg = TraceConfig(
            n_jobs=24, arrival_pattern="bursty", burst_size=6, arrival_rate=0.5
        )
        trace = synthesize_trace(cfg, seed=3)
        times = [j.submit_time for j in trace]
        assert len(set(times)) == 4  # 24 jobs / bursts of 6
        for k in range(4):
            assert len({times[6 * k + i] for i in range(6)}) == 1

    def test_bursty_config_validation(self):
        with pytest.raises(ValueError, match="arrival_pattern"):
            TraceConfig(arrival_pattern="fractal")
        with pytest.raises(ValueError, match="burst_size"):
            TraceConfig(arrival_pattern="bursty", burst_size=0)

    def test_engine_events_processed_counts(self):
        from repro.sim.engine import Environment

        env = Environment()
        env.timeout(1.0)
        env.timeout(2.0)
        assert env.events_processed == 0
        env.run()
        assert env.events_processed == 2

    def test_ks_statistic_basics(self, rng):
        a = rng.normal(0, 1, 400)
        assert ks_statistic(a, a) == 0.0
        b = rng.normal(3, 1, 400)
        assert ks_statistic(a, b) > ks_threshold(400, 400)


class TestGoldenMigration:
    """Golden schema v2: tier sections are pinned RunRecord dicts, and a
    file of any other version fails the ``golden:version`` check."""

    def test_v2_sections_are_pinned_records(self, tmp_path):
        from repro.store import RECORD_VERSION
        from repro.verify.golden import GOLDEN_VERSION, golden_payload
        from repro.spec import RunSpec

        result = run_scenario(get_scenario(QUICK))
        payload = golden_payload(result)
        assert GOLDEN_VERSION == 2 and payload["version"] == 2
        for tier in ("scalar", "vector", "des"):
            section = payload[tier]
            assert section["record_version"] == RECORD_VERSION
            assert "elapsed_s" not in section  # pinned = deterministic
            assert "provenance" not in section
            spec = RunSpec.from_dict(section["spec"])
            assert spec.execution.tier == tier
            assert spec.spec_digest() == section["spec_digest"]
        assert payload["scalar"]["digest"]  # bit-level pin
        # vector/des draw order is an implementation detail, not pinned
        assert payload["vector"]["digest"] is None
        assert payload["des"]["digest"] is None

    def test_v1_file_fails_version_check(self, tmp_path):
        from repro.verify.golden import golden_path, load_golden

        result = run_scenario(get_scenario(QUICK))
        tiers = result.tiers
        v1 = {
            "version": 1,
            "scenario": QUICK,
            "compare": result.spec.execution.compare,
            "seed": result.seed,
            "scalar": {"digest": tiers["scalar"].digest,
                       "summary": tiers["scalar"].summary},
            "vector": {"summary": tiers["vector"].summary},
            "des": {"summary": tiers["des"].summary,
                    "extra": tiers["des"].extra},
        }
        path = golden_path(QUICK, tmp_path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(v1))
        golden = load_golden(QUICK, tmp_path)
        assert golden == v1  # returned as written, not migrated
        checks = compare_with_golden(result, golden)
        assert [(c.name, c.passed) for c in checks] == [
            ("golden:version", False)
        ]
        assert checks[0].observed == 1.0

    def test_verify_cli_store_writes_tier_records(self, tmp_path, capsys):
        from repro.store import ResultStore
        from repro.verify.cli import main as verify_main

        store = tmp_path / "store"
        assert verify_main([QUICK, "--no-golden",
                            "--store", str(store)]) == 0
        records = [ResultStore(store).get(d)
                   for d in ResultStore(store).digests()]
        assert sorted(r.tier for r in records) == ["des", "scalar", "vector"]
        assert all(r.name == QUICK for r in records)
        scalar = [r for r in records if r.tier == "scalar"][0]
        assert scalar.digest is not None

    def test_verify_store_slots_match_api_run_slots(self, tmp_path):
        # The store is one shared cache: a record written by
        # `repro verify --store` must be byte-compatible (pinned
        # fields) with what api.run(spec, store=) writes for the same
        # digest — otherwise mixing producers breaks campaign
        # byte-identity.
        from repro import api
        from repro.store import ResultStore, RunRecord
        from repro.verify.cli import main as verify_main

        via_verify = tmp_path / "verify-store"
        via_api = tmp_path / "api-store"
        assert verify_main([QUICK, "--no-golden",
                            "--store", str(via_verify)]) == 0
        scenario = get_scenario(QUICK)
        for tier in ("scalar", "vector", "des"):
            api.run(scenario.evolve(**{"execution.tier": tier}),
                    store=via_api)
        a, b = ResultStore(via_verify), ResultStore(via_api)
        digests_a = sorted(a.digests())
        assert digests_a == sorted(b.digests())
        for digest in digests_a:
            assert a.get(digest).pinned_dict() == b.get(digest).pinned_dict()
