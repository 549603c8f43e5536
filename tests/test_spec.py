"""The declarative RunSpec tree: validation, serialization, identity.

Covers the :mod:`repro.spec` contract in isolation (no execution):

* validation — every closed vocabulary rejects unknown names with a
  :class:`SpecError` that lists the valid ones;
* serialization — ``from_dict(to_dict(s)) == s`` exactly, through
  JSON, property-based over randomized valid specs; ``load_spec``
  reads JSON and TOML spec files;
* identity — ``spec_digest`` is canonical (field order, worker count
  and process restarts never change it; semantic changes always do),
  pinned by the golden spec fixtures in ``tests/golden/specs/``;
* evolution — dotted-path overrides revalidate and leave the base
  spec untouched.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.spec import (
    ARRIVAL_MODES,
    COMPARE_MODES,
    DISTRIBUTION_FAMILIES,
    SPEC_VERSION,
    TE_MODES,
    ExecutionSpec,
    FailureLawSpec,
    FailureSpec,
    PolicySpec,
    RunSpec,
    SpecError,
    StorageSpec,
    WorkloadSpec,
    load_spec,
)

import repro.spec as spec_mod

GOLDEN_SPEC_DIR = Path(__file__).parent / "golden" / "specs"

#: reading TOML needs stdlib tomllib (Python >= 3.11), so the TOML
#: load tests skip on 3.10.
needs_tomllib = pytest.mark.skipif(
    spec_mod.tomllib is None, reason="tomllib needs Python >= 3.11")


def _spec(**kw) -> RunSpec:
    """A small valid synthetic-workload spec with overrides."""
    base = dict(
        name="unit",
        failures=FailureSpec(
            laws=(FailureLawSpec(priority=5, family="exponential",
                                 mean=600.0),)
        ),
    )
    base.update(kw)
    return RunSpec(**base)


class TestValidation:
    def test_spec_error_is_value_error(self):
        assert issubclass(SpecError, ValueError)

    def test_unknown_family_lists_valid_names(self):
        with pytest.raises(SpecError, match="exponential"):
            FailureLawSpec(priority=1, family="cauchy", mean=10.0)

    def test_unknown_policy_lists_valid_names(self):
        with pytest.raises(SpecError, match="young"):
            PolicySpec(name="zigzag")

    def test_unknown_tier(self):
        with pytest.raises(SpecError, match="unknown execution tier"):
            ExecutionSpec(tier="warp")

    def test_unknown_storage(self):
        with pytest.raises(SpecError, match="unknown storage mode"):
            StorageSpec(mode="tape")

    def test_unknown_source(self):
        with pytest.raises(SpecError, match="unknown workload source"):
            WorkloadSpec(source="telepathy")

    def test_negative_mean(self):
        with pytest.raises(SpecError, match="positive"):
            FailureLawSpec(priority=1, family="exponential", mean=-3.0)

    @pytest.mark.parametrize("priority", [0, 13])
    def test_priority_outside_google_range(self, priority):
        with pytest.raises(SpecError, match=r"1\.\.12"):
            FailureLawSpec(priority=priority, family="exponential", mean=10.0)
        with pytest.raises(SpecError, match=r"1\.\.12"):
            RunSpec.from_dict({"name": "bad-priority", "failures": {"laws": [
                {"priority": priority, "family": "exponential",
                 "mean": 10.0}]}})

    def test_duplicate_priorities(self):
        laws = (FailureLawSpec(1, "exponential", 10.0),
                FailureLawSpec(1, "weibull", 20.0, 1.5))
        with pytest.raises(SpecError, match="duplicate"):
            FailureSpec(laws=laws)

    def test_fixed_interval_needs_param(self):
        with pytest.raises(SpecError, match="fixed-interval"):
            PolicySpec(name="fixed-interval", param=0.0)

    def test_fixed_count_needs_param(self):
        with pytest.raises(SpecError, match="fixed-count"):
            PolicySpec(name="fixed-count", param=0.0)

    def test_replay_tier_needs_history_source(self):
        with pytest.raises(SpecError, match="replay"):
            _spec(execution=ExecutionSpec(tier="replay"))

    def test_history_source_needs_replay_tier(self):
        with pytest.raises(SpecError, match="history"):
            _spec(workload=WorkloadSpec(source="history"))

    def test_synthetic_needs_laws(self):
        with pytest.raises(SpecError, match="failure law"):
            RunSpec(name="lawless")

    def test_nan_param_rejected(self):
        with pytest.raises(SpecError, match="param"):
            PolicySpec(name="optimal", param=float("nan"))
        with pytest.raises(SpecError, match="param"):
            PolicySpec(name="optimal", param=float("inf"))

    def test_storage_vocabulary_is_per_tier(self):
        # No aliasing: two distinct specs must not run one computation,
        # so each tier accepts only the modes it distinguishes.
        with pytest.raises(SpecError, match="shared"):
            _spec(storage=StorageSpec(mode="shared"))
        replay = dict(
            workload=WorkloadSpec(source="history"),
            execution=ExecutionSpec(tier="replay"),
        )
        with pytest.raises(SpecError, match="shared"):
            RunSpec(name="r", storage=StorageSpec(mode="dmnfs"), **replay)
        with pytest.raises(SpecError, match="shared"):
            RunSpec(name="r", storage=StorageSpec(mode="nfs"), **replay)
        RunSpec(name="r", storage=StorageSpec(mode="shared"), **replay)

    def test_replay_only_knobs_rejected_on_scenario_tiers(self):
        # The scalar/vector/DES tiers never read these fields: silently
        # ignoring them would run the same computation under a new
        # spec_digest.
        with pytest.raises(SpecError, match="restart_delay"):
            _spec(execution=ExecutionSpec(restart_delay=30.0))
        with pytest.raises(SpecError, match="length_cap"):
            _spec(policy=PolicySpec(length_cap=1000.0))

    def test_workers_must_be_positive(self):
        with pytest.raises(SpecError, match="workers"):
            ExecutionSpec(workers=0)

    def test_loose_bounds_ordered(self):
        with pytest.raises(SpecError, match="loose"):
            ExecutionSpec(loose_lo=2.0, loose_hi=1.0)

    def test_from_dict_rejects_unknown_keys(self):
        data = _spec().to_dict()
        data["workload"]["n_taskz"] = 3
        with pytest.raises(SpecError, match="n_taskz"):
            RunSpec.from_dict(data)

    def test_from_dict_rejects_future_version(self):
        data = _spec().to_dict()
        data["spec_version"] = SPEC_VERSION + 1
        with pytest.raises(SpecError, match="spec_version"):
            RunSpec.from_dict(data)

    def test_bool_is_not_a_number(self):
        data = _spec().to_dict()
        data["workload"]["te_mean"] = True
        with pytest.raises(SpecError):
            RunSpec.from_dict(data)

    @pytest.mark.parametrize("data", [[1, 2], 5, None, "spec"])
    def test_from_dict_rejects_a_non_object(self, data):
        with pytest.raises(SpecError, match="spec must be a table/object"):
            RunSpec.from_dict(data)


class TestRoundTrip:
    def test_dict_round_trip_default(self):
        spec = _spec()
        assert RunSpec.from_dict(spec.to_dict()) == spec

    def test_json_round_trip(self):
        spec = _spec()
        assert RunSpec.from_json(spec.to_json()) == spec

    def test_missing_keys_fill_defaults(self):
        # TOML cannot express null: None-valued keys are omitted and
        # must come back as their defaults.
        spec = RunSpec.from_dict({"name": "minimal", "failures": {
            "laws": [{"priority": 2, "family": "pareto", "mean": 50.0}]}})
        assert spec.policy == PolicySpec()
        assert spec.execution.vms_per_host_pattern is None
        assert spec.failures.host_mtbf is None

    def test_int_coerces_to_float_fields(self):
        spec = RunSpec.from_dict({"name": "coerce", "failures": {
            "laws": [{"priority": 2, "family": "exponential", "mean": 50}]}})
        law = spec.failures.laws[0]
        assert isinstance(law.mean, float) and law.mean == 50.0
        # ... and the canonical form is identical to the float spelling
        float_spec = RunSpec.from_dict({"name": "coerce", "failures": {
            "laws": [{"priority": 2, "family": "exponential",
                      "mean": 50.0}]}})
        assert spec.spec_digest() == float_spec.spec_digest()

    def test_int_built_spec_digests_as_its_twin(self):
        # Every float field given an int at construction is stored as
        # the float from_dict makes of it: one spec, one digest.
        spec = RunSpec(
            name="ints",
            workload=WorkloadSpec(te_mean=300, te_sigma=1, te_min=30,
                                  te_max=20000, mem_mean=60, mem_sigma=1,
                                  mem_min=10, mem_max=800, arrival_rate=2),
            failures=FailureSpec(
                laws=(FailureLawSpec(priority=2, family="weibull", mean=600,
                                     shape=2),),
                host_mtbf=3600, host_repair_time=60),
            policy=PolicySpec(name="fixed-count", param=3),
            execution=ExecutionSpec(failure_detection_delay=2,
                                    placement_overhead=1, loose_lo=1,
                                    loose_hi=4),
        )
        twin = RunSpec.from_dict(spec.to_dict())
        assert spec.to_json() == twin.to_json()
        assert spec.spec_digest() == twin.spec_digest()
        assert spec.evolve().spec_digest() == spec.spec_digest()
        replay = ExecutionSpec(tier="replay", restart_delay=1)
        assert type(replay.restart_delay) is float
        for section in (spec.workload, spec.failures, spec.failures.laws[0],
                        spec.policy, spec.execution):
            for f in dataclasses.fields(section):
                if f.type in ("float", "float | None"):
                    value = getattr(section, f.name)
                    assert value is None or type(value) is float, f.name

    def test_bool_is_not_a_number_at_construction(self):
        with pytest.raises(SpecError):
            PolicySpec(name="fixed-count", param=True)
        with pytest.raises(SpecError):
            FailureLawSpec(priority=1, family="exponential", mean=True)

    def test_save_load_json(self, tmp_path):
        spec = _spec()
        path = tmp_path / "run.json"
        path.write_text(spec.to_json())
        assert load_spec(path) == spec

    @needs_tomllib
    def test_load_example_toml(self):
        from repro.api import scenario_spec

        path = Path(__file__).parents[1] / "examples" / "specs" \
            / "google-bursty-des.toml"
        assert load_spec(path) == scenario_spec("google-trace-bursty",
                                                tier="des")

    @needs_tomllib
    def test_load_toml_literal(self, tmp_path):
        # Inline-table laws, an int array, and the None-valued fields
        # (host_mtbf, length_cap) omitted, as TOML has no null.
        path = tmp_path / "run.toml"
        path.write_text("""\
name = "literal"
tags = ["a", "b"]

[failures]
laws = [{ priority = 5, family = "exponential", mean = 600.0 },
        { priority = 2, family = "weibull", mean = 50, shape = 0.7 }]

[execution]
vms_per_host_pattern = [2, 7, 3]
""")
        assert load_spec(path) == RunSpec(
            name="literal",
            tags=("a", "b"),
            failures=FailureSpec(laws=(
                FailureLawSpec(priority=5, family="exponential", mean=600.0),
                FailureLawSpec(priority=2, family="weibull", mean=50.0,
                               shape=0.7),
            )),
            execution=ExecutionSpec(vms_per_host_pattern=(2, 7, 3)),
        )

    def test_load_spec_missing_file(self, tmp_path):
        with pytest.raises(SpecError, match="cannot read"):
            load_spec(tmp_path / "nope.json")

    def test_load_spec_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(SpecError, match="cannot parse"):
            load_spec(path)


# ----------------------------------------------------------------------
# Property-based round trips over randomized valid specs.
# ----------------------------------------------------------------------
_finite = st.floats(min_value=1e-3, max_value=1e7, allow_nan=False,
                    allow_infinity=False)
_names = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789-_", min_size=1,
    max_size=24)

_laws = st.lists(
    st.integers(min_value=1, max_value=12), min_size=1, max_size=4,
    unique=True,
).flatmap(lambda prios: st.tuples(*[
    st.builds(
        FailureLawSpec,
        priority=st.just(p),
        family=st.sampled_from(DISTRIBUTION_FAMILIES),
        mean=_finite,
        shape=st.floats(min_value=0.0, max_value=8.0, allow_nan=False),
    )
    for p in prios
]))

# These strategies generate scenario-tier specs (scalar/vector/des),
# where RunSpec rejects the replay-only knobs — so length_cap stays
# None, estimation stays "oracle", and failures.mode stays "replay".
_policies = st.one_of(
    st.builds(PolicySpec,
              name=st.sampled_from(("optimal", "young", "daly", "none"))),
    st.builds(PolicySpec, name=st.just("fixed-interval"), param=_finite),
    st.builds(PolicySpec, name=st.just("fixed-count"),
              param=st.integers(min_value=1, max_value=40)),
)

_workloads = st.builds(
    WorkloadSpec,
    source=st.sampled_from(("synthetic", "google")),
    n_tasks=st.integers(min_value=1, max_value=500),
    te_mode=st.sampled_from(TE_MODES),
    te_mean=_finite,
    arrival=st.sampled_from(ARRIVAL_MODES),
    arrival_rate=_finite,
    burst_size=st.integers(min_value=1, max_value=64),
    trace_jobs=st.integers(min_value=1, max_value=200),
    n_jobs=st.integers(min_value=1, max_value=100_000),
    trace_seed=st.integers(min_value=0, max_value=2**31 - 1),
    only_failed_jobs=st.booleans(),
)

_executions = st.builds(
    ExecutionSpec,
    tier=st.sampled_from(("scalar", "vector", "des")),
    base_seed=st.integers(min_value=0, max_value=2**31 - 1),
    workers=st.integers(min_value=1, max_value=64),
    n_hosts=st.integers(min_value=1, max_value=64),
    vms_per_host=st.integers(min_value=1, max_value=16),
    vms_per_host_pattern=st.none() | st.lists(
        st.integers(min_value=1, max_value=9), min_size=1, max_size=5
    ).map(tuple),
    compare=st.sampled_from(COMPARE_MODES),
    quick=st.booleans(),
)

_specs = st.builds(
    RunSpec,
    name=_names,
    description=st.text(max_size=60),
    tags=st.lists(_names, max_size=4).map(tuple),
    workload=_workloads,
    failures=st.builds(
        FailureSpec,
        laws=_laws,
        host_mtbf=st.none() | _finite,
        host_repair_time=st.floats(min_value=0.0, max_value=1e5,
                                   allow_nan=False),
    ),
    storage=st.builds(
        StorageSpec,
        mode=st.sampled_from(("local", "nfs", "dmnfs", "auto")),
    ),
    policy=_policies,
    execution=_executions,
)


class TestPropertyRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(_specs)
    def test_dict_and_json_round_trip(self, spec):
        assert RunSpec.from_dict(spec.to_dict()) == spec
        assert RunSpec.from_json(spec.to_json()) == spec

    @settings(max_examples=100, deadline=None)
    @given(_specs, st.integers(min_value=1, max_value=128))
    def test_digest_ignores_result_irrelevant_fields(self, spec, workers):
        evolved = spec.evolve(**{
            "execution.workers": workers,
            "description": "different prose",
            "tags": ["other", "labels"],
            "execution.quick": not spec.execution.quick,
        })
        assert evolved.spec_digest() == spec.spec_digest()

    @settings(max_examples=100, deadline=None)
    @given(_specs)
    def test_digest_round_trip_stable(self, spec):
        assert RunSpec.from_json(spec.to_json()).spec_digest() \
            == spec.spec_digest()


class TestDigest:
    def test_digest_changes_on_semantic_change(self):
        spec = _spec()
        assert spec.evolve(**{"policy.name": "young"}).spec_digest() \
            != spec.spec_digest()
        assert spec.evolve(**{"execution.base_seed": 7}).spec_digest() \
            != spec.spec_digest()

    def test_digest_stable_across_process_restart(self):
        # The satellite requirement: the canonical digest must not
        # depend on in-process state (hash randomization, dict order).
        spec_json = (GOLDEN_SPEC_DIR / "exp-baseline-local.json").read_text()
        expected = json.loads(spec_json)["digest"]
        code = (
            "import json,sys\n"
            "from repro.spec import RunSpec\n"
            "payload=json.loads(sys.stdin.read())\n"
            "print(RunSpec.from_dict(payload['spec']).spec_digest())\n"
        )
        repo_root = Path(__file__).parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(repo_root / "src")]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        env["PYTHONHASHSEED"] = "55"  # a different hash seed per run
        out = subprocess.run(
            [sys.executable, "-c", code], input=spec_json,
            capture_output=True, text=True, check=True,
            cwd=repo_root, env=env,
        )
        assert out.stdout.strip() == expected

    def test_golden_spec_fixtures(self):
        # Five representative scenarios pin their registered spec JSON
        # and digest; a registry or serialization change trips this.
        from repro.verify.scenarios import get_scenario

        fixtures = sorted(GOLDEN_SPEC_DIR.glob("*.json"))
        assert len(fixtures) == 5
        for path in fixtures:
            payload = json.loads(path.read_text())
            spec = get_scenario(path.stem)
            assert spec.to_dict() == payload["spec"], path.name
            assert spec.spec_digest() == payload["digest"], path.name
            assert RunSpec.from_dict(payload["spec"]) == spec, path.name


class TestDigestMemo:
    """A spec keeps its digest once derived; nothing that copies,
    rebuilds or compares specs sees it."""

    def _digested(self) -> RunSpec:
        spec = _spec(description="prose", tags=("a",))
        spec.spec_digest()
        return spec

    def test_computed_once(self, monkeypatch):
        spec = _spec()
        calls = []
        to_dict = RunSpec.to_dict
        monkeypatch.setattr(RunSpec, "to_dict",
                            lambda self: calls.append(1) or to_dict(self))
        digest = spec.spec_digest()
        assert spec.spec_digest() == digest
        assert len(calls) == 1

    def test_eq_hash_repr_and_to_dict_do_not_see_it(self):
        digested, plain = self._digested(), _spec(description="prose",
                                                  tags=("a",))
        assert "_digest" in vars(digested)
        assert "_digest" not in vars(plain)
        assert digested == plain and hash(digested) == hash(plain)
        assert repr(digested) == repr(plain)
        assert digested.to_dict() == plain.to_dict()
        assert dataclasses.asdict(digested) == dataclasses.asdict(plain)

    def test_pickle_and_copies_recompute(self):
        spec = self._digested()
        digest = spec.spec_digest()
        # A wrong kept value shows whether a copy carries it over.
        vars(spec)["_digest"] = "0" * 64
        for clone in (pickle.loads(pickle.dumps(spec)), copy.copy(spec),
                      copy.deepcopy(spec)):
            assert clone == spec
            assert "_digest" not in vars(clone)
            assert clone.spec_digest() == digest

    def test_replace_and_evolve_digest_their_own_fields(self):
        spec = self._digested()
        for other in (dataclasses.replace(spec, name="other"),
                      spec.evolve(name="other")):
            fresh = RunSpec.from_json(other.to_json())
            assert other.spec_digest() == fresh.spec_digest()
            assert other.spec_digest() != spec.spec_digest()


class TestEvolve:
    def test_dotted_override(self):
        spec = _spec()
        evolved = spec.evolve(**{"policy.name": "young",
                                 "workload.n_tasks": 12})
        assert evolved.policy.name == "young"
        assert evolved.workload.n_tasks == 12
        # the base spec is untouched (frozen value semantics)
        assert spec.policy.name == "optimal"

    def test_top_level_override(self):
        assert _spec().evolve(name="renamed").name == "renamed"

    def test_unknown_path_rejected(self):
        with pytest.raises(SpecError, match="unknown spec"):
            _spec().evolve(**{"policy.colour": "red"})
        with pytest.raises(SpecError, match="unknown spec"):
            _spec().evolve(**{"warp.factor": 9})

    def test_override_revalidates(self):
        with pytest.raises(SpecError, match="unknown policy"):
            _spec().evolve(**{"policy.name": "zigzag"})

    def test_laws_replaceable_as_value(self):
        evolved = _spec().evolve(**{"failures.laws": [
            {"priority": 3, "family": "weibull", "mean": 40.0,
             "shape": 1.8}]})
        assert evolved.failures.laws == (
            FailureLawSpec(priority=3, family="weibull", mean=40.0,
                           shape=1.8),)
