"""Tests for the deterministic parallel subsystem (:mod:`repro.parallel`).

The load-bearing property: worker count is invisible in the results.
Every sharded entry point must produce bit-for-bit identical
``SimulationResult.digest()`` values for ``workers in {1, 2, 4}``, and
replay-mode sharding must additionally match the unsharded reference
exactly for any chunk size.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.core.simulate import simulate_tasks_replay
from repro.parallel import (
    DEFAULT_CHUNK_SIZE,
    merge_results,
    plan_chunks,
    simulate_tasks_replay_sharded,
    simulate_tasks_scaled_sharded,
    simulate_tasks_sharded,
    spawn_chunk_seeds,
)
from repro.experiments.common import policy_run_spec
from repro.parallel.sweep import run_specs
from repro.failures.distributions import Exponential, Pareto
from repro.spec import SpecError
from repro.verify.golden import compare_with_golden, load_golden
from repro.verify.runner import run_scenario, run_vector
from repro.verify.scenarios import build_workload, get_scenario

WORKER_COUNTS = (1, 2, 4)


@pytest.fixture(scope="module")
def batch():
    rng = np.random.default_rng(7)
    n = 3000
    te = rng.uniform(50, 1500, n)
    x = np.maximum(1, (np.sqrt(te) / 3).astype(np.int64))
    c = rng.uniform(0.1, 2.0, n)
    r = rng.uniform(0.5, 3.0, n)
    return te, x, c, r


class TestAutoChunkSize:
    def test_catalog_batches_keep_the_default(self):
        from repro.parallel.runner import AUTO_LAW_HEAVY, auto_chunk_size

        assert auto_chunk_size(500_000, 2) == DEFAULT_CHUNK_SIZE
        assert auto_chunk_size(500_000, AUTO_LAW_HEAVY) == DEFAULT_CHUNK_SIZE

    def test_law_heavy_batches_cap_the_chunk_count(self):
        from repro.parallel.runner import AUTO_MIN_CHUNKS, auto_chunk_size

        cs = auto_chunk_size(1_000_000, 1_000_000)
        assert cs == -(-1_000_000 // AUTO_MIN_CHUNKS)
        assert len(plan_chunks(1_000_000, cs)) <= AUTO_MIN_CHUNKS
        # small batches never shrink below the default
        assert auto_chunk_size(10_000, 10_000) == DEFAULT_CHUNK_SIZE

    def test_auto_is_a_pure_function_not_worker_aware(self, batch):
        # chunk_size=None must resolve identically no matter the worker
        # count: same plan, same digest.
        te, x, c, r = batch
        dists = {0: Exponential(1 / 300.0)}
        ids = np.zeros(te.size, dtype=np.int64)
        digests = {
            simulate_tasks_sharded(
                te, x, c, r, ids, dists, seed=5, workers=w
            ).digest()
            for w in WORKER_COUNTS
        }
        assert len(digests) == 1


class TestOverheadAwareDispatch:
    def test_small_grids_fall_back_to_serial(self):
        from repro.parallel.sweep import (
            SERIAL_FALLBACK_COST,
            effective_workers,
        )

        small = [SERIAL_FALLBACK_COST / 10] * 4
        big = [SERIAL_FALLBACK_COST] * 4
        assert effective_workers(4, small) == 1
        assert effective_workers(4, big) == 4
        assert effective_workers(1, big) == 1

    def test_run_specs_records_effective_workers(self):
        specs = [policy_run_spec("optimal", storage="local", n_jobs=40,
                                 trace_seed=0)]
        report = run_specs(specs, workers=2)
        assert report["workers"] == 2
        assert report["workers_effective"] == 1  # tiny grid -> serial


class TestPersistentPool:
    def test_pool_is_reused_and_grows(self):
        from repro.parallel import runner

        runner.shutdown_pool()
        try:
            p2 = runner.get_pool(2)
            assert runner.get_pool(2) is p2
            assert runner.get_pool(1) is p2  # smaller requests share it
            p3 = runner.get_pool(3)
            assert p3 is not p2  # grew: new pool
            assert runner.get_pool(2) is p3
        finally:
            runner.shutdown_pool()

    def test_shutdown_is_idempotent(self):
        from repro.parallel import runner

        runner.shutdown_pool()
        runner.shutdown_pool()


class TestChunkPlanning:
    def test_covers_all_tasks_in_order(self):
        slices = plan_chunks(10_000, 1024)
        assert slices[0] == slice(0, 1024)
        assert slices[-1] == slice(9216, 10_000)
        covered = [i for sl in slices for i in range(sl.start, sl.stop)]
        assert covered == list(range(10_000))

    def test_plan_is_worker_independent(self):
        # The plan is a pure function of (n, chunk_size) by construction;
        # pin the shape so a refactor can't quietly thread workers in.
        assert plan_chunks(100, 30) == [
            slice(0, 30), slice(30, 60), slice(60, 90), slice(90, 100)
        ]

    def test_empty_batch(self):
        assert plan_chunks(0, 64) == []

    def test_validation(self):
        with pytest.raises(ValueError):
            plan_chunks(-1, 64)
        with pytest.raises(ValueError):
            plan_chunks(10, 0)

    def test_spawned_seeds_are_distinct_and_stable(self):
        a = spawn_chunk_seeds(42, 4)
        b = spawn_chunk_seeds(42, 4)
        assert len(a) == 4
        states = [tuple(s.generate_state(4)) for s in a]
        assert len(set(states)) == 4  # independent streams
        assert states == [tuple(s.generate_state(4)) for s in b]  # stable


class TestShardedDeterminism:
    def test_redraw_digest_invariant_over_workers(self, batch):
        te, x, c, r = batch
        dists = {0: Exponential(1 / 300.0), 1: Pareto(100.0, 1.3)}
        ids = np.arange(te.size) % 2
        digests = {
            w: simulate_tasks_sharded(
                te, x, c, r, ids, dists, seed=42, workers=w, chunk_size=512
            ).digest()
            for w in WORKER_COUNTS
        }
        assert len(set(digests.values())) == 1, digests

    def test_scaled_digest_invariant_over_workers(self, batch):
        te, x, c, r = batch
        scales = np.random.default_rng(1).uniform(100, 1000, te.size)
        digests = {
            w: simulate_tasks_scaled_sharded(
                te, x, c, r, scales, seed=7, workers=w, chunk_size=512
            ).digest()
            for w in WORKER_COUNTS
        }
        assert len(set(digests.values())) == 1, digests

    def test_chunk_size_changes_draw_order(self, batch):
        """Documented contract: chunk_size is part of the determinism
        key (like the seed), unlike the worker count."""
        te, x, c, r = batch
        dists = {0: Exponential(1 / 300.0)}
        ids = np.zeros(te.size, dtype=np.int64)
        d1 = simulate_tasks_sharded(
            te, x, c, r, ids, dists, seed=42, chunk_size=512
        ).digest()
        d2 = simulate_tasks_sharded(
            te, x, c, r, ids, dists, seed=42, chunk_size=1024
        ).digest()
        assert d1 != d2

    def test_replay_sharded_matches_unsharded_bitwise(self, batch):
        """Replay consumes no RNG: sharding must be invisible entirely."""
        te, x, c, r = batch
        rng = np.random.default_rng(3)
        mat = np.full((te.size, 3), np.inf)
        k = rng.integers(0, 4, te.size)
        for col in range(3):
            rows = k > col
            mat[rows, col] = rng.uniform(10, 800, int(rows.sum()))
        ref = simulate_tasks_replay(te, x, c, r, mat)
        for w in WORKER_COUNTS:
            for cs in (256, 999, DEFAULT_CHUNK_SIZE):
                sharded = simulate_tasks_replay_sharded(
                    te, x, c, r, mat, workers=w, chunk_size=cs
                )
                assert sharded.digest() == ref.digest()

    def test_merge_preserves_input_order(self, batch):
        te, x, c, r = batch
        dists = {0: Exponential(1 / 300.0)}
        ids = np.zeros(te.size, dtype=np.int64)
        res = simulate_tasks_sharded(
            te, x, c, r, ids, dists, seed=5, chunk_size=700
        )
        np.testing.assert_array_equal(res.te, te)
        np.testing.assert_array_equal(res.intervals, x)
        assert res.n_tasks == te.size

    def test_merge_rejects_empty(self):
        with pytest.raises(ValueError):
            merge_results([])


def _replay_matrix(n: int) -> np.ndarray:
    rng = np.random.default_rng(3)
    mat = np.full((n, 3), np.inf)
    k = rng.integers(0, 4, n)
    for col in range(3):
        rows = k > col
        mat[rows, col] = rng.uniform(10, 800, int(rows.sum()))
    return mat


_DISTS = {0: Exponential(1 / 300.0), 1: Pareto(100.0, 1.3)}

#: ``wrapper name -> (kernel attribute on repro.core.simulate, per-task
#: state for n tasks, sharded call, extra kernel args, seeded)``.
SHARDED = {
    "blocked": (
        "simulate_tasks_blocked", lambda n: np.arange(n) % 2,
        lambda *a, **kw: simulate_tasks_sharded(*a, _DISTS, seed=11, **kw),
        (_DISTS,), True,
    ),
    "scaled": (
        "simulate_tasks_scaled", lambda n: np.linspace(150.0, 900.0, n),
        lambda *a, **kw: simulate_tasks_scaled_sharded(*a, seed=11, **kw),
        (), True,
    ),
    "replay": (
        "simulate_tasks_replay", _replay_matrix,
        simulate_tasks_replay_sharded, (), False,
    ),
}


@pytest.mark.parametrize("name", sorted(SHARDED))
class TestChunkDriver:
    """The one chunk loop behind every sharded wrapper."""

    def _reference(self, name, te, x, c, r, chunk_size):
        """Each chunk run by hand on the core kernel, merged in order."""
        from repro.core import simulate

        attr, state, _, extra, seeded = SHARDED[name]
        kernel = getattr(simulate, attr)
        chunks = plan_chunks(te.size, chunk_size)
        seeds = spawn_chunk_seeds(11, len(chunks))
        st = state(te.size)
        parts = []
        for sl, seed_seq in zip(chunks, seeds):
            rng = (np.random.default_rng(seed_seq),) if seeded else ()
            parts.append(kernel(te[sl], x[sl], c[sl], r[sl], st[sl],
                                *extra, *rng))
        return merge_results(parts)

    def test_empty_batch(self, name):
        _, state, call, _, _ = SHARDED[name]
        empty = np.empty(0)
        for w in (1, 2):
            res = call(empty, np.empty(0, dtype=np.int64), empty, empty,
                       state(0), workers=w, chunk_size=64)
            assert res.n_tasks == 0
            assert res.wallclock.shape == (0,)

    def test_ragged_last_chunk_matches_per_chunk_kernels(self, name, batch):
        te, x, c, r = (a[:1000] for a in batch)
        _, state, call, _, _ = SHARDED[name]
        assert len(plan_chunks(te.size, 300)) == 4  # last chunk: 100
        ref = self._reference(name, te, x, c, r, 300).digest()
        for w in (1, 2):
            res = call(te, x, c, r, state(te.size), workers=w,
                       chunk_size=300)
            assert res.n_tasks == te.size
            assert res.digest() == ref

    def test_zero_chunk_size_raises(self, name, batch):
        te, x, c, r = batch
        _, state, call, _, _ = SHARDED[name]
        with pytest.raises(ValueError, match="chunk_size"):
            call(te, x, c, r, state(te.size), chunk_size=0)

    def test_scalar_te_broadcasts_against_per_task_state(self, name, batch):
        _, x, c, r = batch
        _, state, call, _, _ = SHARDED[name]
        full = np.full(x.size, 500.0)
        scalar = call(500.0, x, c, r, state(x.size), chunk_size=700)
        assert scalar.n_tasks == x.size
        assert scalar.digest() == call(full, x, c, r, state(x.size),
                                       chunk_size=700).digest()

    def test_chunks_call_the_module_attribute(self, name, batch, monkeypatch):
        # A profiler patches the kernels on repro.core.simulate; every
        # chunk must run whatever that attribute holds at call time.
        from repro.core import simulate

        attr, state, call, _, _ = SHARDED[name]
        original = getattr(simulate, attr)
        calls = []

        def spy(*args, **kwargs):
            calls.append(len(args[0]))
            return original(*args, **kwargs)

        te, x, c, r = batch
        expected = call(te, x, c, r, state(te.size), chunk_size=1000)
        monkeypatch.setattr(simulate, attr, spy)
        res = call(te, x, c, r, state(te.size), workers=1, chunk_size=1000)
        assert calls == [1000, 1000, 1000]
        assert res.digest() == expected.digest()


class TestGoldenScenarioOutcomes:
    """Worker-count invariance on the pinned verification scenarios."""

    QUICK = "exp-baseline-local"

    def test_run_vector_worker_invariant(self):
        workload = build_workload(get_scenario(self.QUICK))
        digests = {
            w: run_vector(workload, workers=w).digest for w in WORKER_COUNTS
        }
        assert len(set(digests.values())) == 1, digests

    def test_parallel_scenario_still_passes_golden(self):
        """A multi-worker run of a golden-pinned scenario reproduces the
        golden outcomes: scalar digest bit-level, vector under the
        pinned tolerances."""
        spec = get_scenario(self.QUICK)
        result = run_scenario(spec, workers=2)
        golden = load_golden(spec.name)
        assert golden is not None, "golden file missing for quick scenario"
        checks = result.checks + compare_with_golden(result, golden)
        failed = [c for c in checks if not c.passed]
        assert not failed, [c.name for c in failed]


class TestSweep:
    """``repro sweep --spec base --axis ...`` end to end."""

    AXES = ["--axis", "policy.name=optimal,young",
            "--axis", "storage.mode=auto,local"]

    @pytest.fixture
    def base(self, tmp_path):
        path = tmp_path / "base.json"
        path.write_text(policy_run_spec(
            "optimal", n_jobs=60, trace_seed=0, estimation="oracle",
            name="sweep-base").to_json())
        return path

    def _sweep(self, tmp_path, base, *extra) -> dict:
        out = tmp_path / "sweep.json"
        assert cli_main(["sweep", "--spec", str(base), *extra, "--quiet",
                         "--out", str(out)]) == 0
        return json.loads(out.read_text())

    def test_grid_cross_product_order(self, tmp_path, base):
        report = self._sweep(tmp_path, base, *self.AXES)
        assert [(c["spec"]["policy"]["name"], c["spec"]["storage"]["mode"])
                for c in report["points"]] == [
            ("optimal", "auto"), ("optimal", "local"),
            ("young", "auto"), ("young", "local"),
        ]

    def test_sweep_digests_invariant_over_workers(self, tmp_path, base):
        reports = {w: self._sweep(tmp_path, base, *self.AXES,
                                  "--workers", str(w))
                   for w in (1, 2)}
        d1 = [p["digest"] for p in reports[1]["points"]]
        d2 = [p["digest"] for p in reports[2]["points"]]
        assert d1 == d2
        assert reports[1]["n_points"] == 4

    def test_point_is_reproducible(self):
        spec = policy_run_spec("optimal", storage="auto", n_jobs=60,
                               trace_seed=3, estimation="oracle")
        a, b = (run_specs([spec])["points"][0] for _ in range(2))
        assert a["digest"] == b["digest"]
        assert a["summary"] == b["summary"]

    def test_redraw_mode_runs(self):
        spec = policy_run_spec("young", storage="shared", n_jobs=60,
                               trace_seed=1, failure_mode="redraw")
        cell = run_specs([spec])["points"][0]
        assert cell["summary"]["n_tasks"] > 0
        assert 0 < cell["extra"]["mean_job_wpr"] <= 1.0

    def test_point_validation(self):
        with pytest.raises(SpecError):
            policy_run_spec("nope", storage="auto", n_jobs=10)
        with pytest.raises(SpecError):
            policy_run_spec("optimal", storage="floppy", n_jobs=10)
        with pytest.raises(SpecError):
            policy_run_spec("optimal", storage="auto", n_jobs=0)
        with pytest.raises(ValueError):
            run_specs([], workers=1)

    def test_parametrized_policies_validated_at_grid_build(self):
        """fixed-interval/fixed-count without a positive param must fail
        when the grid is built, not mid-sweep inside a pool worker."""
        with pytest.raises(SpecError, match="needs param"):
            policy_run_spec("fixed-interval", storage="auto", n_jobs=10)
        with pytest.raises(SpecError, match="needs param"):
            policy_run_spec("fixed-count", storage="auto", n_jobs=10,
                            policy_param=0.0)
        spec = policy_run_spec("fixed-count", storage="auto", n_jobs=40,
                               policy_param=3.0)
        assert run_specs([spec])["points"][0]["summary"]["n_tasks"] > 0

    def test_cli_friendly_errors(self, tmp_path, base, capsys):
        # Empty grid axis -> usage error, no traceback.
        assert cli_main(["sweep", "--spec", str(base),
                         "--axis", "policy.name=,"]) == 2
        assert "has no values" in capsys.readouterr().err
        # Parametrized policy without policy.param -> usage error.
        assert cli_main(["sweep", "--spec", str(base),
                         "--axis", "policy.name=fixed-interval"]) == 2
        assert "needs param" in capsys.readouterr().err
        # With the param axis, the sweep runs.
        report = self._sweep(tmp_path, base,
                             "--axis", "policy.name=fixed-interval",
                             "--axis", "policy.param=120")
        assert report["n_points"] == 1

    def test_cli_writes_report_and_reproduces_digests(self, tmp_path, base):
        # No axis: the grid is the base spec alone, and its cell is the
        # facade's result on that spec at any worker count.
        from repro import api
        from repro.spec import load_spec

        r1 = self._sweep(tmp_path, base, "--workers", "1")
        r2 = self._sweep(tmp_path, base, "--workers", "2")
        assert [p["digest"] for p in r1["points"]] == \
               [p["digest"] for p in r2["points"]]
        [cell] = r1["points"]
        spec = load_spec(base)
        assert cell["spec_digest"] == spec.spec_digest()
        assert cell["digest"] == api.run(spec).digest
        assert cell["summary"]["n_tasks"] > 0


class TestSpecGrids:
    """Sweep grids as lists of RunSpec overrides (the RunSpec redesign)."""

    def _base(self):
        from repro.experiments.common import policy_run_spec

        return policy_run_spec("optimal", n_jobs=60, trace_seed=0,
                               name="grid-base")

    def test_expand_grid_order_and_values(self):
        from repro.parallel.sweep import expand_grid

        specs = expand_grid(self._base(), [
            ("policy.name", ["optimal", "young"]),
            ("execution.base_seed", [0, 1]),
        ])
        combos = [(s.policy.name, s.execution.base_seed) for s in specs]
        # first axis is the outer loop
        assert combos == [("optimal", 0), ("optimal", 1),
                          ("young", 0), ("young", 1)]

    def test_expand_grid_cross_constrained_axes_any_order(self):
        # Overrides apply per cell in one evolve(), so an axis order
        # that passes through an invalid intermediate still expands.
        from repro.parallel.sweep import expand_grid

        specs = expand_grid(self._base(), [
            ("policy.name", ["fixed-interval"]),
            ("policy.param", [60.0, 120.0]),
        ])
        assert [(s.policy.name, s.policy.param) for s in specs] == \
               [("fixed-interval", 60.0), ("fixed-interval", 120.0)]

    def test_expand_grid_rejects_bad_axis(self):
        from repro.parallel.sweep import expand_grid
        from repro.spec import SpecError

        with pytest.raises(SpecError, match="no values"):
            expand_grid(self._base(), [("policy.name", [])])
        with pytest.raises(SpecError, match="unknown"):
            expand_grid(self._base(), [("policy.colour", ["red"])])

    def test_run_specs_worker_invariant(self):
        from repro.parallel.sweep import expand_grid, run_specs

        specs = expand_grid(self._base(), [
            ("policy.name", ["optimal", "young"]),
        ])
        serial = run_specs(specs, workers=1)
        pooled = run_specs(specs, workers=2)
        assert [c["digest"] for c in serial["points"]] == \
               [c["digest"] for c in pooled["points"]]

    def test_run_specs_pins_cell_workers(self):
        # A base spec asking for its own pool must not make daemonic
        # grid workers spawn children: cells run with workers=1
        # (digest-invariant), at any grid worker count.
        from repro.parallel.sweep import run_specs

        multi = self._base().evolve(**{"execution.workers": 4})
        pooled = run_specs([multi, multi], workers=2)
        serial = run_specs([self._base()], workers=1)
        assert pooled["points"][0]["digest"] == serial["points"][0]["digest"]
        for cell in pooled["points"]:
            assert cell["spec"]["execution"]["workers"] == 1

    def test_cli_spec_mode_reproduces_digests(self, tmp_path, capsys):
        spec_path = tmp_path / "base.json"
        spec_path.write_text(self._base().to_json())
        out1, out2 = tmp_path / "g1.json", tmp_path / "g2.json"
        base = ["sweep", "--spec", str(spec_path),
                "--axis", "policy.name=optimal,young", "--quiet"]
        assert cli_main(base + ["--workers", "1", "--out", str(out1)]) == 0
        assert cli_main(base + ["--workers", "2", "--out", str(out2)]) == 0
        r1 = json.loads(out1.read_text())
        r2 = json.loads(out2.read_text())
        assert r1["n_points"] == 2
        assert [p["digest"] for p in r1["points"]] == \
               [p["digest"] for p in r2["points"]]

    def test_cli_axis_requires_spec(self, capsys):
        # --spec is required: every grid is overrides over a base spec.
        for argv in (["sweep", "--axis", "policy.name=young"],
                     ["sweep", "--workers", "2"]):
            with pytest.raises(SystemExit) as exc:
                cli_main(argv)
            assert exc.value.code == 2
            assert "--spec" in capsys.readouterr().err

    def test_cli_spec_mode_bad_axis_exits_2(self, tmp_path, capsys):
        spec_path = tmp_path / "base.json"
        spec_path.write_text(self._base().to_json())
        assert cli_main(["sweep", "--spec", str(spec_path),
                         "--axis", "policy.name=zigzag"]) == 2
        assert "unknown policy" in capsys.readouterr().err


class TestLongestFirstScheduling:
    """Longest-first dispatch, grid-order merge (ROADMAP sweep item)."""

    def _base(self):
        from repro.experiments.common import policy_run_spec

        return policy_run_spec("optimal", n_jobs=60, trace_seed=0,
                               name="sched-base")

    def test_estimate_spec_cost_is_pure_and_monotone(self):
        from repro.parallel.sweep import estimate_spec_cost

        small = self._base()
        big = small.evolve(**{"workload.n_jobs": 600})
        assert estimate_spec_cost(small) == estimate_spec_cost(small)
        assert estimate_spec_cost(big) > estimate_spec_cost(small)
        # tier weight: the scalar reference loop outweighs the
        # vectorized tier for the same workload
        from repro import api

        vec = api.scenario_spec("short-tasks", tier="vector")
        sca = api.scenario_spec("short-tasks", tier="scalar")
        assert estimate_spec_cost(sca) > estimate_spec_cost(vec)

    def test_dispatch_order_longest_first_stable(self):
        from repro.parallel.sweep import dispatch_order

        assert dispatch_order([3.0, 1.0, 2.0]) == [0, 2, 1]
        assert dispatch_order([1.0, 5.0, 1.0, 5.0]) == [1, 3, 0, 2]
        assert dispatch_order([2.0, 2.0]) == [0, 1]  # ties by grid index
        assert dispatch_order([]) == []

    def test_merge_order_invariance(self):
        """The pin: dispatch order is longest-first, but the report's
        cells come back in grid order with identical digests for every
        worker count — scheduling is invisible in the output."""
        from repro.parallel.sweep import (
            dispatch_order,
            estimate_spec_cost,
            expand_grid,
            run_specs,
        )

        # grid order deliberately *ascending* in cost, so longest-first
        # dispatch must permute it (last cell runs first) ...
        specs = expand_grid(self._base(), [
            ("workload.n_jobs", [40, 60, 90]),
        ])
        costs = [estimate_spec_cost(s) for s in specs]
        assert dispatch_order(costs) == [2, 1, 0]
        # ... and the merged report still lists cells in grid order.
        serial = run_specs(specs, workers=1)
        pooled = run_specs(specs, workers=2)
        for report in (serial, pooled):
            assert [c["spec_digest"] for c in report["points"]] == \
                [s.spec_digest() for s in specs]
        assert [c["digest"] for c in serial["points"]] == \
            [c["digest"] for c in pooled["points"]]

    def test_cli_grid_merges_in_grid_order(self, tmp_path):
        # Mixed-size grid: big cell first in dispatch, cells still
        # reported in axis order.
        spec_path = tmp_path / "base.json"
        spec_path.write_text(self._base().to_json())
        out = tmp_path / "sweep.json"
        assert cli_main(["sweep", "--spec", str(spec_path),
                         "--axis", "workload.n_jobs=40,80", "--workers", "2",
                         "--quiet", "--out", str(out)]) == 0
        points = json.loads(out.read_text())["points"]
        assert [p["spec"]["workload"]["n_jobs"] for p in points] == [40, 80]
        assert all(p["digest"] for p in points)


class TestSweepStore:
    """Store-backed sweeps: cells are RunRecords, grids resume."""

    def test_run_specs_store_round_trip(self, tmp_path):
        from repro.parallel.sweep import expand_grid, run_specs
        from repro.experiments.common import policy_run_spec
        from repro.store import ResultStore

        specs = expand_grid(
            policy_run_spec("optimal", n_jobs=60, trace_seed=0),
            [("policy.name", ["optimal", "young"])],
        )
        store = tmp_path / "store"
        first = run_specs(specs, workers=1, store=store)
        assert all(not c["cached"] for c in first["points"])
        assert len(ResultStore(store)) == 2
        second = run_specs(specs, workers=2, store=store)
        assert all(c["cached"] for c in second["points"])
        assert [c["digest"] for c in first["points"]] == \
            [c["digest"] for c in second["points"]]

    def test_cached_cells_are_the_stored_records(self, tmp_path):
        from repro.parallel.sweep import run_specs
        from repro.experiments.common import policy_run_spec
        from repro.store import ResultStore

        specs = [policy_run_spec(p, n_jobs=60, trace_seed=0)
                 for p in ("optimal", "young")]
        store = ResultStore(tmp_path / "store")
        run_specs(specs, workers=1, store=store)
        for cell in run_specs(specs, workers=1, store=store)["points"]:
            assert cell.pop("cached")
            stored = store.get(cell["spec_digest"]).to_dict()
            # a cell's elapsed_s is its share of this job's wall
            del cell["elapsed_s"], stored["elapsed_s"]
            assert cell == stored

    def test_cells_are_run_records(self):
        from repro.parallel.sweep import run_specs
        from repro.experiments.common import policy_run_spec
        from repro.store import RECORD_VERSION, RunRecord

        report = run_specs([policy_run_spec("optimal", n_jobs=60,
                                            trace_seed=0)])
        cell = dict(report["points"][0])
        cell.pop("cached")
        record = RunRecord.from_dict(cell)
        assert record.record_version == RECORD_VERSION
        assert record.provenance["workers_effective"] == 1
        assert record.spec["execution"]["workers"] == 1


def _none_redraw(storage, **over):
    return policy_run_spec("none", storage=storage, n_jobs=60, trace_seed=3,
                           failure_mode="redraw", seed=11, **over)


class TestLanes:
    """Checkpoint-free redraw cells that differ only in storage and
    estimation run as lanes of one kernel pass (one pool job)."""

    def test_sharded_lanes_match_one_call_per_lane(self, batch):
        te, x, c, r = batch
        scales = np.linspace(20.0, 400.0, te.size)
        charges = [r, np.zeros_like(r), 3.0 * r]
        n = te.size
        for workers in (1, 2):
            res = simulate_tasks_scaled_sharded(
                te, x, c, np.stack(charges, axis=1), scales, seed=4,
                workers=workers, chunk_size=700, restart_delay=0.5)
            for i, lane in enumerate(charges):
                one = simulate_tasks_scaled_sharded(
                    te, x, c, lane, scales, seed=4, chunk_size=700,
                    restart_delay=0.5)
                rows = slice(i * n, (i + 1) * n)
                assert res.wallclock[rows].tolist() == one.wallclock.tolist()
                assert (res.n_failures[rows].tolist()
                        == one.n_failures.tolist())
                assert res.te[rows].tolist() == one.te.tolist()

    def test_lanes_equal_their_own_evaluations(self):
        from repro.experiments.common import evaluate_lanes, evaluate_policy

        specs = [_none_redraw(s) for s in ("auto", "local", "shared")]
        specs.append(_none_redraw("local", estimation="oracle"))
        for spec, lane in zip(specs, evaluate_lanes(specs)):
            alone = evaluate_policy(spec)
            assert lane.sim.digest() == alone.sim.digest()
            assert lane.estimation == spec.policy.estimation
            assert lane.job_wall.tolist() == alone.job_wall.tolist()

    def test_lanes_whose_interval_counts_differ_are_rejected(self):
        from repro import api
        from repro.experiments.common import evaluate_lanes

        specs = [policy_run_spec("optimal", storage=s, n_jobs=60,
                                 trace_seed=3, failure_mode="redraw")
                 for s in ("local", "shared")]
        with pytest.raises(SpecError, match="interval counts"):
            evaluate_lanes(specs)
        with pytest.raises(SpecError, match="interval counts"):
            api.run_lanes(specs)
        other_seed = [_none_redraw("local"),
                      _none_redraw("shared").evolve(
                          **{"execution.base_seed": 12})]
        with pytest.raises(SpecError, match="may differ only in"):
            evaluate_lanes(other_seed)

    def test_only_checkpoint_free_redraw_cells_group(self):
        from repro.parallel.sweep import _group_cells

        specs = [_none_redraw("auto"), _none_redraw("local"),
                 policy_run_spec("none", storage="auto", n_jobs=60,
                                 trace_seed=3, failure_mode="replay"),
                 policy_run_spec("optimal", storage="local", n_jobs=60,
                                 trace_seed=3, failure_mode="redraw", seed=11),
                 policy_run_spec("fixed-count", policy_param=1,
                                 storage="shared", n_jobs=60, trace_seed=3,
                                 failure_mode="redraw", seed=11),
                 policy_run_spec("fixed-count", policy_param=1,
                                 storage="local", n_jobs=60, trace_seed=3,
                                 failure_mode="redraw", seed=11),
                 _none_redraw("shared", estimation="oracle"),
                 _none_redraw("shared").evolve(
                     **{"execution.base_seed": 12}),
                 policy_run_spec("optimal", storage="shared", n_jobs=60,
                                 trace_seed=3, failure_mode="redraw", seed=11)]
        assert _group_cells(specs) == [[0, 1, 6], [2], [3], [4, 5], [7], [8]]

    def test_partly_cached_group_recomputes_only_its_missing_members(
            self, tmp_path, monkeypatch):
        from repro import api
        from repro.experiments import common
        from repro.store import ResultStore, RunRecord

        specs = [_none_redraw(s) for s in ("auto", "local", "shared")]
        store = ResultStore(tmp_path / "store")
        api.run(specs[1], store=store)
        cached = store.path_for(specs[1].spec_digest()).read_bytes()
        passes = []
        real = common.evaluate_lanes

        def spy(lanes, **kwargs):
            passes.append([s.storage.mode for s in lanes])
            return real(lanes, **kwargs)

        monkeypatch.setattr(common, "evaluate_lanes", spy)
        report = run_specs(specs, workers=1, store=store)
        assert passes == [["auto", "shared"]]
        assert [c["cached"] for c in report["points"]] == [False, True, False]
        assert store.path_for(specs[1].spec_digest()).read_bytes() == cached
        for spec in specs:
            alone = RunRecord.from_result(api.run(spec))
            assert (store.get(spec.spec_digest()).pinned_dict()
                    == alone.pinned_dict())
