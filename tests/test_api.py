"""The ``repro.api.run`` facade.

The contract of the one-description-of-a-run design:

* every registered verify scenario is a ``RunSpec`` that reproduces
  its golden scalar digest bit-for-bit through ``repro.api.run``;
* the vector and replay tiers stay worker-count invariant when driven
  through specs;
* ``repro.api.run`` takes the spec and nothing else that describes
  the run (``store=`` only chooses whether to cache), and a computed
  and a cached result carry the same fields;
* ``evaluate_policy`` takes only a replay-tier spec (plus the
  ``trace=`` override for samples no spec describes) and rejects
  anything else loudly.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import logging
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.core.policies import OptimalCountPolicy
from repro.experiments.common import (
    clear_trace_cache,
    default_trace,
    evaluate_policy,
    policy_run_spec,
    trace_cache_stats,
)
from repro.parallel import runner
from repro.parallel.runner import DEFAULT_CHUNK_SIZE
import repro.spec as spec_mod
from repro.spec import RunSpec, SpecError
from repro.store import StoreError
from repro.trace.models import Trace
from repro.verify.golden import load_golden
from repro.verify.runner import run_scenario
from repro.verify.scenarios import get_scenario, list_scenarios

QUICK = [s.name for s in list_scenarios(quick_only=True)]


class TestScenarioLowering:
    """Registered scenario specs run through the facade unchanged."""

    def test_all_scenarios_reproduce_golden_scalar_digests(self):
        # Every registered scenario spec, run through the facade,
        # reproduces its golden scalar digest bit-for-bit.
        bad = [spec.name for spec in list_scenarios()
               if api.run(spec).digest
               != load_golden(spec.name)["scalar"]["digest"]]
        assert not bad, f"scenario digest mismatches: {bad}"

    def test_lowered_spec_matches_legacy_runner(self):
        # api.run and the verify runner agree on a non-default seed.
        spec = get_scenario("exp-high-failure-rate").evolve(
            **{"execution.base_seed": 3})
        verified = run_scenario(spec)
        assert api.run(spec).digest == verified.tiers["scalar"].digest
        vec = api.run(spec.evolve(**{"execution.tier": "vector"}))
        assert vec.digest == verified.tiers["vector"].digest

    def test_scenario_spec_by_name(self):
        spec = api.scenario_spec("exp-baseline-local", tier="vector")
        assert spec.execution.tier == "vector"
        with pytest.raises(KeyError, match="unknown scenario"):
            api.scenario_spec("does-not-exist")


class TestRunFacade:
    def test_vector_tier_worker_invariant(self):
        spec = api.scenario_spec("short-tasks", tier="vector")
        one = api.run(spec.evolve(**{"execution.workers": 1}))
        two = api.run(spec.evolve(**{"execution.workers": 2}))
        assert one.digest == two.digest
        assert one.summary == two.summary

    def test_des_tier_runs(self):
        res = api.run(api.scenario_spec("policy-no-checkpoint", tier="des"))
        assert res.tier == "des"
        assert res.extra["n_events"] > 0
        assert res.digest is not None

    def test_replay_tier_matches_evaluate_policy(self):
        spec = policy_run_spec("optimal", n_jobs=100, trace_seed=5,
                               estimation="oracle")
        res = api.run(spec)
        direct = evaluate_policy(spec)
        assert res.digest == direct.sim.digest()
        assert res.extra["mean_job_wpr"] == direct.mean_wpr()
        assert res.extra["n_jobs_sampled"] == float(direct.job_wpr.size)

    def test_replay_tier_worker_invariant(self):
        spec = policy_run_spec("young", n_jobs=100, trace_seed=5,
                               failure_mode="redraw")
        one = api.run(spec.evolve(**{"execution.workers": 1}))
        two = api.run(spec.evolve(**{"execution.workers": 2}))
        assert one.digest == two.digest

    def test_trace_keyword_is_a_type_error(self):
        # The spec is the whole description of a run: there is no
        # trace override to pass beside it.
        spec = policy_run_spec("optimal", n_jobs=50, trace_seed=5)
        with pytest.raises(TypeError, match="trace"):
            api.run(spec, trace=default_trace(50, 5))

    def test_redraw_on_trace_without_scales_rejected(self):
        # A trace override whose tasks carry no interval_scale has no
        # law to redraw from: the run says so instead of guessing one.
        base = default_trace(50, 5)
        unscaled = Trace(tuple(
            dataclasses.replace(job, tasks=tuple(
                dataclasses.replace(t, interval_scale=0.0)
                for t in job.tasks))
            for job in base))
        spec = policy_run_spec("young", n_jobs=50, trace_seed=5)
        with pytest.raises(SpecError, match="scales are missing"):
            evaluate_policy(spec.evolve(**{"failures.mode": "redraw"}),
                            trace=unscaled)
        # Replay needs no scales: the same trace still runs.
        assert evaluate_policy(spec, trace=unscaled).sim.summary()[
            "n_tasks"] > 0
        with pytest.raises(TypeError, match="catalog"):
            evaluate_policy(spec, trace=unscaled, catalog=object())
        with pytest.raises(TypeError, match="catalog"):
            evaluate_policy(spec, catalog=object())

    def test_result_report_is_json_ready(self):
        res = api.run(api.scenario_spec("short-tasks"))
        payload = json.loads(json.dumps(res.to_dict()))
        assert payload["name"] == "short-tasks"
        assert payload["spec_digest"] == res.spec.spec_digest()
        assert RunSpec.from_dict(payload["spec"]) == res.spec


class TestDeprecationShim:
    """``evaluate_policy`` takes a replay-tier spec and nothing else."""

    def test_spec_path_does_not_warn(self):
        spec = policy_run_spec("optimal", n_jobs=90, trace_seed=11)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            evaluate_policy(spec)
        assert not [w for w in caught
                    if issubclass(w.category, DeprecationWarning)
                    and "evaluate_policy" in str(w.message)]

    def test_spec_plus_policy_rejected(self):
        spec = policy_run_spec("optimal", n_jobs=50, trace_seed=5)
        with pytest.raises(TypeError, match="positional"):
            evaluate_policy(spec, OptimalCountPolicy())

    def test_spec_plus_engine_kwargs_rejected(self):
        # Half-migrated calls must fail loudly, not silently drop the
        # kwargs and run a different experiment.
        spec = policy_run_spec("optimal", n_jobs=50, trace_seed=5)
        with pytest.raises(TypeError, match="storage"):
            evaluate_policy(spec, storage="shared")
        with pytest.raises(TypeError, match="estimation"):
            evaluate_policy(spec, estimation="oracle")
        with pytest.raises(TypeError, match="workers"):
            evaluate_policy(spec, workers=2)

    def test_legacy_trace_override_rejected(self):
        # The old (trace, policy, **kwargs) form is gone: it fails
        # loudly instead of running some other experiment.
        with pytest.raises(TypeError):
            evaluate_policy(default_trace(50, 5), OptimalCountPolicy(),
                            trace=default_trace(50, 5))
        with pytest.raises(TypeError):
            evaluate_policy(default_trace(50, 5), OptimalCountPolicy(),
                            estimation="priority")

    def test_wrong_tier_spec_rejected(self):
        spec = api.scenario_spec("exp-baseline-local")
        with pytest.raises(SpecError, match="replay"):
            evaluate_policy(spec)


class TestTraceCache:
    def test_stats_and_clear(self):
        clear_trace_cache()
        stats = trace_cache_stats()
        assert stats["currsize"] == 0
        default_trace(60, seed=21)
        default_trace(60, seed=21)
        stats = trace_cache_stats()
        assert stats["currsize"] == 1
        assert stats["hits"] >= 1
        assert stats["misses"] >= 1
        assert stats["maxsize"] == 8
        clear_trace_cache()
        assert trace_cache_stats()["currsize"] == 0

    def test_clear_keeps_handed_out_traces_valid(self):
        trace = default_trace(60, seed=21)
        n = len(trace)
        clear_trace_cache()
        assert len(trace) == n and trace.n_tasks > 0


class TestRunCli:
    def test_spec_file(self, tmp_path, capsys):
        path = tmp_path / "run.json"
        path.write_text(api.scenario_spec("short-tasks").to_json())
        assert api.main(["--spec", str(path)]) == 0
        out = capsys.readouterr().out
        assert "short-tasks [scalar]" in out
        assert load_golden("short-tasks")["scalar"]["digest"] in out

    def test_scenario_with_overrides_and_report(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        rc = api.main([
            "--scenario", "short-tasks",
            "--set", "execution.tier=vector",
            "--set", "execution.workers=2",
            "--out", str(out_path),
        ])
        assert rc == 0
        payload = json.loads(out_path.read_text())
        assert payload["tier"] == "vector"
        spec = RunSpec.from_dict(payload["spec"])
        assert spec.execution.workers == 2
        # bit-identical to the serial facade run
        serial = api.run(spec.evolve(**{"execution.workers": 1}))
        assert payload["digest"] == serial.digest

    def test_print_spec(self, capsys):
        rc = api.main(["--scenario", "exp-baseline-local", "--print-spec"])
        assert rc == 0
        spec = RunSpec.from_json(capsys.readouterr().out)
        assert spec == api.scenario_spec("exp-baseline-local")

    def test_unknown_scenario_exits_2(self, capsys):
        assert api.main(["--scenario", "nope"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_bad_override_exits_2(self, capsys):
        rc = api.main(["--scenario", "short-tasks",
                       "--set", "policy.name=zigzag"])
        assert rc == 2
        assert "unknown policy" in capsys.readouterr().err

    def test_non_object_spec_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "array.json"
        path.write_text("[1, 2]")
        assert api.main(["--spec", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "table/object" in err

    def test_missing_source_errors(self, capsys):
        with pytest.raises(SystemExit):
            api.main([])

    @pytest.mark.skipif(spec_mod.tomllib is None,
                        reason="tomllib needs Python >= 3.11")
    def test_toml_spec_file(self, capsys):
        path = (Path(__file__).parents[1] / "examples" / "specs"
                / "google-bursty-des.toml")
        assert api.main(["--spec", str(path)]) == 0
        assert "google-trace-bursty [des]" in capsys.readouterr().out

    def test_scenario_run_via_toplevel_dispatch(self, capsys):
        # Exercise the top-level CLI dispatch (`repro run ...`).
        from repro.cli import main as cli_main

        rc = cli_main(["run", "--scenario", QUICK[0]])
        assert rc == 0
        assert QUICK[0] in capsys.readouterr().out


class TestStoreBackedRun:
    def test_hit_returns_record_and_miss_persists(self, tmp_path):
        from repro.store import ResultStore

        spec = api.scenario_spec("short-tasks")
        first = api.run(spec, store=tmp_path)
        assert not first.cached
        assert ResultStore(tmp_path).contains(spec.spec_digest())
        second = api.run(spec, store=tmp_path)
        assert second.cached
        assert second.digest == first.digest
        assert second.summary == first.summary
        # cached extras are record content: canonical, so the live-run
        # workers_effective marker is absent
        assert second.extra == {k: v for k, v in first.extra.items()
                                if k != "workers_effective"}
        assert second.spec.spec_digest() == spec.spec_digest()

    def test_corrupt_record_is_a_miss(self, tmp_path):
        from repro.store import ResultStore

        spec = api.scenario_spec("short-tasks")
        store = ResultStore(tmp_path)
        first = api.run(spec, store=store)
        path = store.path_for(spec.spec_digest())
        path.write_text(path.read_text()[:20])
        healed = api.run(spec, store=store)
        assert not healed.cached and healed.digest == first.digest
        assert store.get(spec.spec_digest()).digest == first.digest

    def test_cli_store_flag(self, tmp_path, capsys):
        spec_path = tmp_path / "run.json"
        spec_path.write_text(api.scenario_spec("short-tasks").to_json())
        store = tmp_path / "store"
        assert api.main(["--spec", str(spec_path),
                         "--store", str(store)]) == 0
        assert "(cached)" not in capsys.readouterr().out
        assert api.main(["--spec", str(spec_path),
                         "--store", str(store)]) == 0
        assert "(cached)" in capsys.readouterr().out


def _hit_specs() -> list[RunSpec]:
    """Every registered scenario at each scenario tier, one replay cell
    per policy, one replay cell whose float field holds an int, and one
    spec built with lists where ``from_dict`` makes tuples."""
    specs = [api.scenario_spec(s.name, tier=tier) for s in list_scenarios()
             for tier in ("scalar", "vector", "des")]
    params = {"fixed-interval": 600.0, "fixed-count": 4.0}
    specs += [policy_run_spec(policy, policy_param=params.get(policy, 0.0),
                              n_jobs=40, trace_seed=0,
                              failure_mode="redraw" if i % 2 else "replay")
              for i, policy in enumerate(spec_mod.POLICY_NAMES)]
    specs.append(policy_run_spec("fixed-count", policy_param=3, n_jobs=40,
                                 trace_seed=0))
    base = api.scenario_spec("hetero-hosts")
    specs.append(dataclasses.replace(
        base, failures=dataclasses.replace(
            base.failures, laws=list(base.failures.laws))))
    return specs


@pytest.fixture(scope="module")
def warm_store(tmp_path_factory):
    from repro.store import ResultStore

    store = ResultStore(tmp_path_factory.mktemp("hits"))
    specs = _hit_specs()
    for spec in specs:
        api.run(spec, store=store)
    return store, specs


def _parsed(record) -> api.RunResult:
    """The cached result ``record`` gives with its spec snapshot parsed
    by ``RunSpec.from_dict``: what a hit on it must read as."""
    return api.RunResult(
        spec=RunSpec.from_dict(record.spec), tier=record.tier,
        seed=record.seed, digest=record.digest, summary=dict(record.summary),
        elapsed_s=record.elapsed_s, extra=dict(record.extra), cached=True)


def _assert_same_hit(got: api.RunResult, want: api.RunResult) -> None:
    """``got`` equals ``want`` field by field, the spec down to the
    types of its values."""
    assert got.spec == want.spec
    assert hash(got.spec) == hash(want.spec)
    assert got.spec.to_json() == want.spec.to_json()
    assert got.spec.spec_digest() == want.spec.spec_digest()
    for f in dataclasses.fields(api.RunResult):
        if f.name != "spec" and f.compare:
            assert getattr(got, f.name) == getattr(want, f.name), f.name
    assert got.cached


def _snapshot(store, spec):
    """The spec snapshot in ``spec``'s record file, read as it stands."""
    return json.loads(store.path_for(spec.spec_digest()).read_text())["spec"]


def _rewrite_snapshot(store, spec, edit) -> None:
    """Apply ``edit`` to the spec snapshot of ``spec``'s record, keeping
    the file in the form records are written in."""
    path = store.path_for(spec.spec_digest())
    data = json.loads(path.read_text())
    edit(data["spec"])
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


class TestCachedHit:
    """A hit, on a held or a fresh spec object, gives what parsing the
    record gives."""

    def test_hits_equal_the_parsed_record(self, warm_store):
        store, specs = warm_store
        for spec in specs:
            want = _parsed(store.get(spec.spec_digest()))
            fresh = RunSpec.from_dict(spec.to_dict())
            assert fresh.spec_digest() == spec.spec_digest()
            for caller in (spec, fresh):
                for _ in range(2):  # a cold and then a warm digest
                    _assert_same_hit(api.run(caller, store=store), want)
                    _assert_same_hit(
                        api.run_lanes([caller], store=store)[0], want)

    def test_partial_snapshot_is_parsed(self, tmp_path, caplog):
        # A partial snapshot is a miss for run and run_lanes, whether it
        # parses or not: the store says so in one DEBUG line, and the
        # run recomputes and rewrites the record.
        from repro.store import ResultStore

        store = ResultStore(tmp_path)
        spec = api.scenario_spec("policy-young")
        lane = policy_run_spec("young", n_jobs=40, trace_seed=0)
        cold = {s: api.run(s, store=store) for s in (spec, lane)}
        full = {s: store.get(s.spec_digest()).spec for s in (spec, lane)}

        def partial(s, *keys):
            return lambda snapshot: (snapshot.clear(), snapshot.update(
                {k: full[s][k] for k in ("spec_version", "name", *keys)}))

        for s, call in ((spec, lambda: api.run(spec, store=store)),
                        (lane, lambda: api.run_lanes([lane], store=store)[0])):
            _rewrite_snapshot(store, s, partial(s))
            with pytest.raises(SpecError, match="at least one failure law"):
                RunSpec.from_dict(_snapshot(store, s))
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger="repro.store"):
                healed = call()
            lines = [r for r in caplog.records if r.name == "repro.store"]
            assert len(lines) == 1 and lines[0].levelno == logging.DEBUG
            assert "corrupt, read as a miss" in lines[0].getMessage()
            assert not healed.cached
            assert healed.digest == cold[s].digest
            assert store.get(s.spec_digest()).spec == full[s]
            want = _parsed(store.get(s.spec_digest()))
            _assert_same_hit(api.run(s, store=store), want)

        # A partial snapshot that parses describes another spec (the
        # defaults fill in the rest, policy "optimal" among them): a
        # miss that heals, not a hit served with that spec.
        _rewrite_snapshot(store, spec, partial(spec, "workload", "failures"))
        served = RunSpec.from_dict(_snapshot(store, spec))
        assert served.policy.name == "optimal" != spec.policy.name
        healed = api.run(spec, store=store)
        assert not healed.cached and healed.digest == cold[spec].digest
        assert store.get(spec.spec_digest()).spec == full[spec]

    def test_null_in_the_snapshot_is_a_miss(self, tmp_path):
        # null for a field that takes none does not parse: the run
        # recomputes and overwrites the record, and the next call is a
        # clean hit with the cold digest.
        from repro.store import ResultStore

        store = ResultStore(tmp_path)
        spec = api.scenario_spec("short-tasks")
        cold = api.run(spec, store=store)
        full = store.get(spec.spec_digest()).spec
        _rewrite_snapshot(store, spec, lambda snapshot:
                          snapshot["workload"].update(n_tasks=None))
        with pytest.raises(SpecError, match="n_tasks must not be null"):
            RunSpec.from_dict(_snapshot(store, spec))
        healed = api.run(spec, store=store)
        assert not healed.cached and healed.digest == cold.digest
        assert store.get(spec.spec_digest()).spec == full
        hit = api.run(spec, store=store)
        assert hit.cached and hit.digest == cold.digest

    def test_int_built_spec_hits_through_its_aliases(self, tmp_path):
        spec = policy_run_spec("fixed-count", policy_param=3, n_jobs=40,
                               trace_seed=0)
        cold = api.run(spec, store=tmp_path)
        for alias in (spec.evolve(), RunSpec.from_dict(spec.to_dict()),
                      spec.evolve(**{"policy.param": 3})):
            assert alias == spec
            assert alias.spec_digest() == spec.spec_digest()
            hit = api.run(alias, store=tmp_path)
            assert hit.cached and hit.digest == cold.digest


def _set_snapshot(store, spec, snapshot) -> None:
    """Replace the spec snapshot of ``spec``'s record by ``snapshot``."""
    path = store.path_for(spec.spec_digest())
    data = json.loads(path.read_text())
    data["spec"] = snapshot
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def _set_field(path: str, value):
    """A snapshot edit that sets the dotted ``path`` to ``value``."""
    *parents, leaf = path.split(".")

    def edit(snapshot):
        for part in parents:
            snapshot = snapshot[part]
        snapshot[leaf] = value
    return edit


_CALLS = {"run": lambda spec, store: api.run(spec, store=store),
          "run_lanes": lambda spec, store: api.run_lanes([spec],
                                                         store=store)[0]}


class TestSnapshotKeyCheck:
    """A hit is served only from a snapshot that hashes to the key it was
    read under, with description, tags, workers and quick at the
    defaults ``canonical_spec_dict`` writes.  Any other record is a miss
    that recomputes and overwrites it, for run and run_lanes alike."""

    @pytest.fixture(params=sorted(_CALLS))
    def call(self, request):
        return _CALLS[request.param]

    @pytest.fixture
    def cold(self, tmp_path, call):
        from repro.store import ResultStore

        store = ResultStore(tmp_path)
        spec = policy_run_spec("young", n_jobs=40, trace_seed=0)
        return store, spec, call(spec, store), store.get(
            spec.spec_digest()).spec

    def _assert_heals(self, call, store, spec, cold, full):
        healed = call(spec, store)
        assert not healed.cached and healed.digest == cold.digest
        assert store.get(spec.spec_digest()).spec == full
        hit = call(spec, store)
        assert hit.cached and hit.digest == cold.digest
        assert hit.spec.spec_digest() == spec.spec_digest()

    def test_a_snapshot_of_another_spec_is_a_miss(self, cold, call):
        store, spec, first, full = cold
        other = spec.evolve(**{"policy.name": "optimal"})
        call(other, store)
        _set_snapshot(store, spec, store.get(other.spec_digest()).spec)
        assert RunSpec.from_dict(_snapshot(store, spec)).spec_digest() \
            == other.spec_digest()
        self._assert_heals(call, store, spec, first, full)

    @pytest.mark.parametrize("snapshot", [[1, 2], "spec", 5, None],
                             ids=["array", "string", "int", "null"])
    def test_a_non_object_snapshot_is_a_miss(self, cold, call, snapshot):
        store, spec, first, full = cold
        _set_snapshot(store, spec, snapshot)
        self._assert_heals(call, store, spec, first, full)

    @pytest.mark.parametrize("path, value", [
        ("execution.workers", 2),
        ("execution.workers", True),
        ("execution.quick", True),
        ("description", "another run"),
        ("tags", ["smoke"]),
        ("execution.restart_delay", float("nan")),
    ], ids=["workers-2", "workers-true", "quick", "description", "tags",
            "nan"])
    def test_a_snapshot_off_its_canonical_form_is_a_miss(
            self, cold, call, path, value):
        store, spec, first, full = cold
        _rewrite_snapshot(store, spec, _set_field(path, value))
        self._assert_heals(call, store, spec, first, full)

    def test_a_hit_parses_its_spec_on_first_read(self, cold, call,
                                                 monkeypatch):
        store, spec, first, _ = cold
        want = _parsed(store.get(spec.spec_digest()))
        parses = []
        from_dict = RunSpec.from_dict.__func__

        def counting(cls, data):
            parses.append(data)
            return from_dict(cls, data)

        monkeypatch.setattr(RunSpec, "from_dict", classmethod(counting))
        hit = call(spec, store)
        assert hit.cached and hit.digest == first.digest
        assert hit.summary == want.summary and hit.extra == want.extra
        assert not parses
        _assert_same_hit(hit, want)
        assert hit.to_dict() == want.to_dict()
        assert len(parses) == 1

    def test_a_hit_pickles_before_and_after_its_spec_read(self, cold, call):
        import pickle

        store, spec, _, _ = cold
        want = _parsed(store.get(spec.spec_digest()))
        hit = call(spec, store)
        for _ in range(2):  # the spec unread, then read
            back = pickle.loads(pickle.dumps(hit))
            _assert_same_hit(back, want)
            assert back.to_dict() == want.to_dict()
            _assert_same_hit(hit, want)

    def test_the_store_counts_a_swapped_snapshot_corrupt(self, cold, call):
        # stats and prune(drop_corrupt=True) read a record holding
        # another spec's snapshot as run does: corrupt, not served.
        store, spec, first, full = cold
        other = spec.evolve(**{"policy.name": "optimal"})
        call(other, store)
        _set_snapshot(store, spec, store.get(other.spec_digest()).spec)
        with pytest.raises(StoreError, match="holds the spec snapshot of"):
            store.get(spec.spec_digest())
        stats = store.stats()
        assert (stats["n_records"], stats["n_corrupt"], stats["n_stale"],
                stats["by_tier"]) == (2, 1, 0, {"replay": 1})
        assert store.prune(drop_corrupt=True) == {
            "removed": 0, "kept": 1, "corrupt_removed": 1,
            "stale_removed": 0}
        assert list(store.digests()) == [other.spec_digest()]
        self._assert_heals(call, store, spec, first, full)


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=8), children, max_size=3),
    max_leaves=8)


@st.composite
def _mutated(draw, snapshot):
    """``snapshot`` with one leaf or subtree (at the root, the whole)
    replaced by an arbitrary JSON value, or by itself."""
    out = copy.deepcopy(snapshot)
    parent, key, node = None, None, out
    while (isinstance(node, (dict, list)) and node
           and draw(st.integers(0, 3))):
        parent = node
        key = draw(st.sampled_from(
            sorted(node) if isinstance(node, dict) else range(len(node))))
        node = node[key]
    value = draw(st.just(copy.deepcopy(node)) | _json_values)
    if parent is None:
        return value
    parent[key] = value
    return out


class TestSnapshotMutations:
    """A record whose spec snapshot had one part replaced by an
    arbitrary JSON value: ``get``, ``stats`` and ``run`` agree on hit or
    miss, the run gives the fresh digest, and a readable record of the
    spec is left behind."""

    @pytest.fixture(scope="class")
    def cold(self, tmp_path_factory):
        from repro.store import ResultStore

        store = ResultStore(tmp_path_factory.mktemp("mutations"))
        spec = policy_run_spec("young", n_jobs=40, trace_seed=0)
        api.run(spec, store=store)
        text = store.path_for(spec.spec_digest()).read_text()
        return store, spec, api.run(spec).digest, json.loads(text)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_get_stats_and_run_agree(self, cold, data):
        store, spec, fresh, record = cold
        key = spec.spec_digest()
        full = record["spec"]
        store.path_for(key).write_text(json.dumps(
            {**record, "spec": data.draw(_mutated(full))},
            indent=2, sort_keys=True) + "\n")
        served = store.get(key, on_corrupt="miss")
        stats = store.stats()
        result = api.run(spec, store=store)
        assert result.cached == (served is not None)
        assert (stats["n_records"], stats["n_corrupt"], stats["by_tier"]) \
            == ((1, 0, {"replay": 1}) if result.cached else (1, 1, {}))
        assert result.digest == fresh
        left = store.get(key)
        assert left.spec == full
        assert RunSpec.from_dict(left.spec).spec_digest() == key


class TestWorkersEffective:
    @pytest.mark.parametrize("spec, processes", [
        # one chunk each: the batch runs in the calling process
        (api.scenario_spec("exp-baseline-local", tier="vector", workers=2),
         1),
        (policy_run_spec("young", n_jobs=300, workers=2), 1),
        # two chunks of DEFAULT_CHUNK_SIZE: two processes
        (api.scenario_spec("exp-baseline-local", tier="vector",
                           workers=2).evolve(
            **{"workload.n_tasks": DEFAULT_CHUNK_SIZE + 1}), 2),
    ], ids=["vector-one-chunk", "replay-one-chunk", "vector-two-chunks"])
    def test_vector_and_replay_record_processes_used(self, spec, processes,
                                                     monkeypatch):
        pools = []
        get_pool = runner.get_pool
        monkeypatch.setattr(runner, "get_pool",
                            lambda n: pools.append(n) or get_pool(n))
        res = api.run(spec)
        assert res.extra["workers_effective"] == float(processes)
        assert pools == ([] if processes == 1 else [processes])
        serial = api.run(spec.evolve(**{"execution.workers": 1}))
        assert serial.extra["workers_effective"] == 1.0
        assert serial.digest == res.digest

    def test_scalar_is_single_stream(self):
        res = api.run(api.scenario_spec("short-tasks"))
        assert res.extra["workers_effective"] == 1.0

    def test_des_shardable_honors_workers(self, caplog):
        # Contention-free DES specs shard by host group: no refusal,
        # real workers_effective, worker-invariant results.  (1000 tasks:
        # smaller runs fall back to in-process shards.)
        spec = api.scenario_spec("policy-no-checkpoint", tier="des",
                                 workers=2).evolve(
            **{"workload.n_tasks": 1000})
        with caplog.at_level(logging.INFO, logger="repro.api"):
            res = api.run(spec)
        assert "refuses to shard" not in caplog.text
        assert res.extra["workers_effective"] == 2.0
        assert res.extra["n_shards"] >= 2.0
        assert "shard_refused" not in res.extra
        serial = api.run(spec.evolve(**{"execution.workers": 1}))
        assert serial.digest == res.digest
        assert serial.summary == res.summary
        # extra is worker-invariant apart from the effective marker
        drop = lambda d: {k: v for k, v in d.items()
                          if k != "workers_effective"}
        assert drop(serial.extra) == drop(res.extra)

    def test_des_shared_storage_refuses_and_warns_once(self, caplog):
        # Shared-storage DES runs cannot shard: every refused run logs
        # the reason on repro.api, records workers_effective=1 and
        # shard_refused, and raises no warning.
        spec = api.scenario_spec("storage-dmnfs", tier="des", workers=4)
        with caplog.at_level(logging.INFO, logger="repro.api"), \
                warnings.catch_warnings():
            warnings.simplefilter("error")
            first = api.run(spec)
            second = api.run(spec)
        refusals = [r for r in caplog.records
                    if r.name == "repro.api"
                    and "refuses to shard" in r.getMessage()]
        assert len(refusals) == 2
        assert "shared" in refusals[0].getMessage()  # the reason
        assert first.extra["workers_effective"] == 1.0
        assert first.extra["shard_refused"] == 1.0
        assert second.extra["shard_refused"] == 1.0
        # workers stays out of the digest: same record either way
        serial = api.run(spec.evolve(**{"execution.workers": 1}))
        assert first.digest == serial.digest
        assert "shard_refused" not in serial.extra

    def test_des_without_workers_does_not_warn(self, caplog):
        with caplog.at_level(logging.INFO, logger="repro.api"):
            res = api.run(api.scenario_spec("storage-dmnfs", tier="des"))
        assert "refuses to shard" not in caplog.text
        assert "shard_refused" not in res.extra
