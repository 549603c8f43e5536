"""Parity of the spec codec: what ``RunSpec.from_dict`` accepts, what it
turns each value into, and the exact error it raises for each bad input.

The table below pins, per field kind and at every nesting level, the
outcome of one mutated input against a valid two-law spec: either the
exception type and text, or the type and value the parsed spec holds.
The round-trip pin then holds ``to_dict``, ``canonical_json`` and
``spec_digest`` of every registered scenario at every tier it accepts,
and of every cell of e2ebench's ``replay-campaign`` grid, to one
SHA-256, so a codec change that moves any byte of any of them fails.
"""

from __future__ import annotations

import copy
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.spec import (
    TIERS,
    ExecutionSpec,
    FailureLawSpec,
    FailureSpec,
    PolicySpec,
    RunSpec,
    SpecError,
    WorkloadSpec,
    canonical_json,
)

ROOT = Path(__file__).resolve().parents[1]

BASE = RunSpec(name="parity", failures=FailureSpec(laws=(
    FailureLawSpec(priority=5, family="exponential", mean=600.0),
    FailureLawSpec(priority=9, family="weibull", mean=900.0, shape=0.7),
))).to_dict()


def _set_path(data: dict, path: str, value) -> None:
    *parents, last = path.split(".")
    node = data
    for part in parents:
        node = node[int(part)] if isinstance(node, list) else node[part]
    if isinstance(node, list):
        node[int(last)] = value
    else:
        node[last] = value


def _get_path(spec: RunSpec, path: str):
    node = spec
    for part in path.split("."):
        if isinstance(node, tuple):
            node = node[int(part)]
        else:
            node = getattr(node, part)
    return node


def _outcome(data: dict, path: str) -> tuple[str, str]:
    """``(exception type, text)`` of parsing ``data``, or ``("ok",
    "type:repr")`` of the parsed spec's value at ``path``."""
    try:
        spec = RunSpec.from_dict(data)
    except Exception as exc:  # the type is part of what is pinned
        return type(exc).__name__, str(exc)
    value = _get_path(spec, path)
    return "ok", f"{type(value).__name__}:{value!r}"


def _err(convert, value) -> str:
    """The text of a builtin converter's own error, which differs between
    Python versions."""
    try:
        convert(value)
    except (TypeError, ValueError) as exc:
        return str(exc)
    raise AssertionError(f"{convert.__name__}({value!r}) did not fail")


#: (dotted path into BASE, value put there, pinned outcome)
CASES = [
    ('spec_version', 2,
     ('SpecError', 'unsupported spec_version 2 (this build reads version 1)')),
    ('name', None,
     ('SpecError', 'expected a string, got None')),
    ('name', 5,
     ('SpecError', 'expected a string, got 5')),
    ('description', None,
     ('SpecError', 'expected a string, got None')),
    ('tags', None,
     ('SpecError', 'tags must be a list, got None')),
    ('tags', 5,
     ('SpecError', 'tags must be a list, got 5')),
    ('tags', [1],
     ('SpecError', 'expected a string, got 1')),
    ('tags', 'ab',
     ('SpecError', "tags must be a list, got 'ab'")),
    ('bogus', 1,
     ('SpecError',
      'unknown RunSpec field(s): bogus; valid: description, execution, '
      'failures, name, policy, storage, tags, workload')),
    ('workload', 5,
     ('SpecError', 'workload must be a table/object, got 5')),
    ('workload', None,
     ('SpecError', 'workload must be a table/object, got None')),
    ('workload', [],
     ('SpecError', 'workload must be a table/object, got []')),
    ('failures', 'x',
     ('SpecError', "failures must be a table/object, got 'x'")),
    ('storage', None,
     ('SpecError', 'storage must be a table/object, got None')),
    ('policy', 1.5,
     ('SpecError', 'policy must be a table/object, got 1.5')),
    ('execution', True,
     ('SpecError', 'execution must be a table/object, got True')),
    ('workload.n_tasks', True,
     ('SpecError', 'expected an integer, got True')),
    ('workload.n_tasks', 1.5,
     ('SpecError', 'expected an integer, got 1.5')),
    ('workload.n_tasks', '1',
     ('SpecError', "expected an integer, got '1'")),
    ('workload.n_tasks', None,
     ('SpecError', 'WorkloadSpec.n_tasks must not be null')),
    ('workload.n_tasks', 7.0,
     ('ok', 'int:7')),
    ('workload.n_tasks', 'abc',
     ('SpecError',
      "bad value for WorkloadSpec.n_tasks: 'abc' (invalid literal for int() "
      "with base 10: 'abc')")),
    ('workload.n_tasks', [1],
     ('SpecError',
      f"bad value for WorkloadSpec.n_tasks: [1] ({_err(int, [1])})")),
    ('workload.te_mean', True,
     ('SpecError', 'expected a number, got True')),
    ('workload.te_mean', '1',
     ('ok', 'float:1.0')),
    ('workload.te_mean', 300,
     ('ok', 'float:300.0')),
    ('workload.te_mean', 'abc',
     ('SpecError',
      "bad value for WorkloadSpec.te_mean: 'abc' (could not convert string to"
      " float: 'abc')")),
    ('workload.te_mean', None,
     ('SpecError', 'WorkloadSpec.te_mean must not be null')),
    ('workload.te_mean', [1.0],
     ('SpecError',
      f"bad value for WorkloadSpec.te_mean: [1.0] ({_err(float, [1.0])})")),
    ('workload.source', None,
     ('SpecError', 'WorkloadSpec.source must not be null')),
    ('workload.source', 5,
     ('SpecError', 'expected a string, got 5')),
    ('workload.only_failed_jobs', None,
     ('SpecError', 'WorkloadSpec.only_failed_jobs must not be null')),
    ('workload.only_failed_jobs', 1,
     ('SpecError', 'expected a boolean, got 1')),
    ('workload.trace_seed', None,
     ('SpecError', 'WorkloadSpec.trace_seed must not be null')),
    ('workload.bogus', 1,
     ('SpecError',
      'unknown WorkloadSpec field(s): bogus; valid: arrival, arrival_rate, '
      'burst_size, mem_max, mem_mean, mem_min, mem_sigma, n_jobs, n_tasks, '
      'only_failed_jobs, source, te_max, te_mean, te_min, te_mode, te_sigma, '
      'trace_arrival, trace_burst_size, trace_jobs, trace_seed')),
    ('failures.laws', 5,
     ('SpecError', 'laws must be a list, got 5')),
    ('failures.laws', None,
     ('SpecError', 'laws must be a list, got None')),
    ('failures.laws', 'ab',
     ('SpecError', "laws must be a list, got 'ab'")),
    ('failures.laws', {'priority': 5, 'family': 'exponential', 'mean': 600.0},
     ('SpecError',
      "laws must be a list, got {'priority': 5, 'family': 'exponential', "
      "'mean': 600.0}")),
    ('failures.laws', [5],
     ('SpecError', 'laws must be a table/object, got 5')),
    ('failures.laws', [None],
     ('SpecError', 'laws must be a table/object, got None')),
    ('failures.laws', [],
     ('SpecError',
      'parity: synthetic workloads need at least one failure law')),
    ('failures.host_mtbf', True,
     ('SpecError', 'expected a number, got True')),
    ('failures.host_mtbf', '1',
     ('ok', 'float:1.0')),
    ('failures.host_mtbf', None,
     ('ok', 'NoneType:None')),
    ('failures.host_mtbf', 5000,
     ('ok', 'float:5000.0')),
    ('failures.host_repair_time', None,
     ('SpecError', 'FailureSpec.host_repair_time must not be null')),
    ('failures.mode', None,
     ('SpecError', 'FailureSpec.mode must not be null')),
    ('failures.bogus', 1,
     ('SpecError',
      'unknown FailureSpec field(s): bogus; valid: host_mtbf, '
      'host_repair_time, laws, mode')),
    ('failures.laws.0.priority', True,
     ('SpecError', 'expected an integer, got True')),
    ('failures.laws.0.priority', 1.5,
     ('SpecError', 'expected an integer, got 1.5')),
    ('failures.laws.0.priority', None,
     ('SpecError', 'FailureLawSpec.priority must not be null')),
    ('failures.laws.0.priority', '1',
     ('SpecError', "expected an integer, got '1'")),
    ('failures.laws.0.priority', 5.0,
     ('ok', 'int:5')),
    ('failures.laws.0.mean', True,
     ('SpecError', 'expected a number, got True')),
    ('failures.laws.0.mean', '1',
     ('ok', 'float:1.0')),
    ('failures.laws.0.mean', None,
     ('SpecError', 'FailureLawSpec.mean must not be null')),
    ('failures.laws.0.mean', 600,
     ('ok', 'float:600.0')),
    ('failures.laws.1.shape', None,
     ('SpecError', 'FailureLawSpec.shape must not be null')),
    ('failures.laws.0.family', None,
     ('SpecError', 'FailureLawSpec.family must not be null')),
    ('failures.laws.0.bogus', 1,
     ('SpecError',
      'unknown FailureLawSpec field(s): bogus; valid: family, mean, priority,'
      ' shape')),
    ('storage.mode', None,
     ('SpecError', 'StorageSpec.mode must not be null')),
    ('storage.mode', 5,
     ('SpecError', 'expected a string, got 5')),
    ('storage.bogus', 1,
     ('SpecError', 'unknown StorageSpec field(s): bogus; valid: mode')),
    ('policy.param', True,
     ('SpecError', 'expected a number, got True')),
    ('policy.param', '1',
     ('ok', 'float:1.0')),
    ('policy.param', None,
     ('SpecError', 'PolicySpec.param must not be null')),
    ('policy.param', 2,
     ('ok', 'float:2.0')),
    ('policy.length_cap', True,
     ('SpecError', 'expected a number, got True')),
    ('policy.length_cap', None,
     ('ok', 'NoneType:None')),
    ('policy.name', None,
     ('SpecError', 'PolicySpec.name must not be null')),
    ('policy.estimation', None,
     ('SpecError', 'PolicySpec.estimation must not be null')),
    ('policy.bogus', 1,
     ('SpecError',
      'unknown PolicySpec field(s): bogus; valid: estimation, length_cap, '
      'name, param')),
    ('execution.base_seed', True,
     ('SpecError', 'expected an integer, got True')),
    ('execution.base_seed', 1.5,
     ('SpecError', 'expected an integer, got 1.5')),
    ('execution.base_seed', None,
     ('SpecError', 'ExecutionSpec.base_seed must not be null')),
    ('execution.base_seed', '1',
     ('SpecError', "expected an integer, got '1'")),
    ('execution.workers', None,
     ('SpecError', 'ExecutionSpec.workers must not be null')),
    ('execution.workers', 2.0,
     ('ok', 'int:2')),
    ('execution.vms_per_host_pattern', 5,
     ('SpecError', 'vms_per_host_pattern must be a list, got 5')),
    ('execution.vms_per_host_pattern', [1.5],
     ('SpecError', 'expected an integer, got 1.5')),
    ('execution.vms_per_host_pattern', [True],
     ('SpecError', 'expected an integer, got True')),
    ('execution.vms_per_host_pattern', 'ab',
     ('SpecError', "vms_per_host_pattern must be a list, got 'ab'")),
    ('execution.vms_per_host_pattern', [3, 4.0],
     ('ok', 'tuple:(3, 4)')),
    ('execution.vms_per_host_pattern', None,
     ('ok', 'NoneType:None')),
    ('execution.vms_per_host_pattern', [None],
     ('SpecError',
      "bad value for ExecutionSpec.vms_per_host_pattern: [None] "
      f"({_err(int, None)})")),
    ('execution.quick', None,
     ('SpecError', 'ExecutionSpec.quick must not be null')),
    ('execution.quick', 1,
     ('SpecError', 'expected a boolean, got 1')),
    ('execution.loose_lo', True,
     ('SpecError', 'expected a number, got True')),
    ('execution.loose_lo', '0.5',
     ('ok', 'float:0.5')),
    ('execution.restart_delay', '0',
     ('ok', 'float:0.0')),
    ('execution.tier', None,
     ('SpecError', 'ExecutionSpec.tier must not be null')),
    ('execution.bogus', 1,
     ('SpecError',
      'unknown ExecutionSpec field(s): bogus; valid: base_seed, compare, '
      'failure_detection_delay, loose_hi, loose_lo, n_hosts, '
      'placement_overhead, quick, restart_delay, tier, vms_per_host, '
      'vms_per_host_pattern, workers')),
]


@pytest.mark.parametrize("path, value, want", CASES,
                         ids=[f"{p}={v!r}" for p, v, _ in CASES])
def test_one_bad_or_odd_value(path, value, want):
    data = copy.deepcopy(BASE)
    _set_path(data, path, value)
    assert _outcome(data, path) == want


def test_unknown_keys_listed_sorted_with_the_valid_ones():
    data = copy.deepcopy(BASE)
    data["policy"].update(zeta=1, alpha=2)
    with pytest.raises(SpecError) as info:
        RunSpec.from_dict(data)
    assert str(info.value) == (
        "unknown PolicySpec field(s): alpha, zeta; "
        "valid: estimation, length_cap, name, param")


def test_spec_version_is_not_listed_as_a_field():
    data = copy.deepcopy(BASE)
    data["bogus"] = 1
    with pytest.raises(SpecError, match="valid: description, execution,"):
        RunSpec.from_dict(data)
    del data["bogus"], data["spec_version"]
    assert RunSpec.from_dict(data).to_dict() == BASE


def test_int_for_a_float_field_parses_to_a_float():
    data = copy.deepcopy(BASE)
    data["workload"]["te_mean"] = 300
    data["failures"]["laws"][0]["mean"] = 600
    data["policy"]["param"] = 2
    data["execution"]["loose_hi"] = 3
    spec = RunSpec.from_dict(data)
    for value in (spec.workload.te_mean, spec.failures.laws[0].mean,
                  spec.policy.param, spec.execution.loose_hi):
        assert type(value) is float
    assert spec == RunSpec.from_dict(BASE).evolve(**{"policy.param": 2.0})
    assert spec.spec_digest() == RunSpec.from_dict(
        json.loads(spec.to_json())).spec_digest()


def test_sections_parse_alone():
    """Each section class reads its own ``to_dict`` back, and a section
    given the wrong key names it."""
    spec = RunSpec.from_dict(BASE)
    for section in (spec.workload, spec.failures, spec.storage, spec.policy,
                    spec.execution, spec.failures.laws[1]):
        assert type(section).from_dict(section.to_dict()) == section
    with pytest.raises(SpecError, match="unknown WorkloadSpec field"):
        WorkloadSpec.from_dict({"tier": "scalar"})
    with pytest.raises(SpecError, match="unknown ExecutionSpec field"):
        ExecutionSpec.from_dict({"name": "optimal"})
    assert PolicySpec.from_dict({}) == PolicySpec()


# ----------------------------------------------------------------------
# Byte-identical round trips of every spec the repo runs.
# ----------------------------------------------------------------------
def _campaign_cells() -> list[RunSpec]:
    path = ROOT / "e2ebench" / "workloads.py"
    loader = importlib.util.spec_from_file_location("_e2e_workloads", path)
    workloads = importlib.util.module_from_spec(loader)
    sys.modules[loader.name] = workloads  # dataclasses look it up
    try:
        loader.loader.exec_module(workloads)
    finally:
        del sys.modules[loader.name]
    return [cell for camp in workloads.campaign_rounds(1, 2)
            for cell in camp.expand()]


def _registered_specs() -> list[RunSpec]:
    from repro.verify.scenarios import SCENARIOS

    specs = []
    for spec in SCENARIOS.values():
        for tier in TIERS:
            try:
                specs.append(spec.evolve(**{"execution.tier": tier}))
            except SpecError:
                continue
    return specs


#: (count, SHA-256 over every spec's to_dict JSON, canonical JSON and
#: digest) of the registered scenarios at their tiers, then the grid
ROUND_TRIP_PINS = {
    "registered": (
        93, "ad2bb063d7bd5ffdab90b74218e65b85ad0679cb62a51693358d434702d50571"),
    "campaign": (
        96, "44abb23e2a427a833a1e1c6ad887edcb211e0a040490fa99578f020abc94f237"),
}


def _fingerprint(specs: list[RunSpec]) -> tuple[int, str]:
    h = hashlib.sha256()
    for spec in specs:
        back = RunSpec.from_dict(json.loads(spec.to_json()))
        assert back == spec
        for text in (json.dumps(back.to_dict()),
                     canonical_json(back.to_dict()), back.spec_digest()):
            h.update(text.encode())
            h.update(b"\n")
        assert back.spec_digest() == spec.spec_digest()
        assert back.to_dict() == spec.to_dict()
    return len(specs), h.hexdigest()


@pytest.mark.parametrize("which, build", [
    ("registered", _registered_specs),
    ("campaign", _campaign_cells),
])
def test_round_trips_are_byte_identical(which, build):
    assert _fingerprint(build()) == ROUND_TRIP_PINS[which]


# ----------------------------------------------------------------------
# The spec vocabulary imports without the execution tiers.
# ----------------------------------------------------------------------
def test_spec_and_store_import_without_numpy():
    code = ("import sys, repro.spec, repro.store\n"
            "assert 'numpy' not in sys.modules, sorted(sys.modules)\n"
            "from repro import RunSpec, ResultStore, load_spec\n"
            "assert 'numpy' not in sys.modules\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT,
                   env=env)


def test_every_package_export_resolves():
    import repro

    for name in repro.__all__:
        assert getattr(repro, name) is not None, name
    from repro import OptimalCountPolicy, run, synthesize_trace  # noqa: F401
    with pytest.raises(AttributeError, match="no attribute 'nothing'"):
        repro.nothing
