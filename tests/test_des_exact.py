"""Exact DES pins: every scenario's DES tier, bit for bit.

The per-scenario golden files pin the DES tier under tolerances only
(``"digest": null``).  ``golden/des_exact.json`` pins what a scheduler
or engine refactor that claims identical behaviour must keep exactly:
the result digest, ``n_events``, ``peak_queue_length`` and ``makespan``
at base seed 0 of

* each registered scenario's DES tier (``scenarios``), and
* queue-deep variants of the shared-storage, host-crash and
  heterogeneous-host scenarios, run on the single event loop
  (``variants``: a base scenario plus field overrides), so grant order
  under queues hundreds deep and host down/up cycles is pinned too.

The values are compared with ``==``; the file is never regenerated to
make a change pass.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.verify.runner import run_des, run_des_unsharded
from repro.verify.scenarios import SCENARIOS, build_workload, get_scenario

GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "des_exact.json").read_text()
)
PINS = GOLDEN["scenarios"]
VARIANTS = GOLDEN["variants"]

#: the variants' flat override keys, as dotted RunSpec paths
SPEC_PATHS = {
    "n_tasks": "workload.n_tasks",
    "n_hosts": "execution.n_hosts",
    "host_mtbf": "failures.host_mtbf",
}


def _pin(tier) -> dict:
    return {
        "digest": tier.digest,
        "n_events": int(tier.extra["n_events"]),
        "peak_queue_length": int(tier.extra["peak_queue_length"]),
        "makespan": float(tier.extra["makespan"]),
    }


def test_every_scenario_is_pinned():
    assert sorted(PINS) == sorted(SCENARIOS)


@pytest.mark.parametrize("name", sorted(PINS))
def test_des_tier_matches_exact_pin(name):
    assert _pin(run_des(build_workload(get_scenario(name)))) == PINS[name]


@pytest.mark.parametrize("name", sorted(VARIANTS))
def test_queue_deep_variant_matches_exact_pin(name):
    variant = VARIANTS[name]
    spec = get_scenario(variant["scenario"]).evolve(**{
        SPEC_PATHS[key]: value for key, value in variant["overrides"].items()
    })
    assert _pin(run_des_unsharded(build_workload(spec))) == variant["pin"]
