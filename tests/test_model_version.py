"""The model version: goldens are pinned to it, the store reads by it.

:data:`repro.store.MODEL_VERSION` names the model semantics every
stored result was computed under.  The golden files pin those results,
so :data:`GOLDEN_SHA256` maps each model version to a hash of the
golden files: a change that regenerates a golden without bumping the
version fails here.  On the store side, a record of another version
(or of none) reads as a miss, so a campaign resumed across a bump
recomputes every cell and writes the same report.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

import repro.store as store_mod
from repro.campaign import (
    CampaignSpec,
    campaign_status,
    main as campaign_main,
    report_json,
    run_campaign,
)
from repro.experiments.common import policy_run_spec
from repro.store import (MODEL_VERSION, ResultStore, RunRecord,
                         canonical_spec_dict)

GOLDEN = Path(__file__).parent / "golden"

#: sha256 of the golden files (:func:`golden_sha256`) per model
#: version.  Regenerating a golden means bumping ``MODEL_VERSION`` and
#: adding the new hash under the new version.
GOLDEN_SHA256 = {
    1: "f8078b8560f330cc26baa197ae89ce95c6b28aec79dc9c09285c027db9e77cb6",
    # PlatformResult.n_events counts the engine's own heap pops.
    2: "d0d19ce381ce125a1e4a03f296a1a2311aaa45bce4e6921bc9ea2fe110bc0079",
}


def golden_sha256() -> str:
    """One hash over every ``tests/golden/*.json``, names included."""
    h = hashlib.sha256()
    for path in sorted(GOLDEN.glob("*.json")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def test_goldens_are_pinned_to_the_model_version():
    assert (GOLDEN / "des_exact.json").exists()
    assert golden_sha256() == GOLDEN_SHA256.get(MODEL_VERSION), (
        "tests/golden changed: bump repro.store.MODEL_VERSION and pin "
        "the new hash under it")


def test_every_version_pins_different_goldens():
    assert sorted(GOLDEN_SHA256) == list(range(1, MODEL_VERSION + 1))
    assert len(set(GOLDEN_SHA256.values())) == len(GOLDEN_SHA256)


# -- the store ---------------------------------------------------------------
SPEC = policy_run_spec("optimal", n_jobs=40, trace_seed=0, name="unit")
DIGEST = SPEC.spec_digest()


def _record(provenance: dict) -> RunRecord:
    return RunRecord(spec_digest=DIGEST, name="unit", tier="replay", seed=0,
                     digest="e" * 64, spec=canonical_spec_dict(SPEC),
                     provenance=provenance)


@pytest.mark.parametrize("provenance", [
    {"model_version": MODEL_VERSION - 1},
    {"model_version": MODEL_VERSION + 1},
    {"code_version": "x"},
], ids=["older", "newer", "absent"])
def test_record_of_another_model_version_is_a_miss(tmp_path, provenance):
    store = ResultStore(tmp_path)
    store.put(_record(provenance))
    assert store.get(DIGEST) is None  # a miss, not an error
    assert store.get(DIGEST, on_corrupt="miss") is None
    store.put(_record({"model_version": MODEL_VERSION}))
    assert store.get(DIGEST) is not None


def test_campaign_resumed_across_a_bump_recomputes_every_cell(
        tmp_path, monkeypatch):
    camp = CampaignSpec(
        name="bump-grid",
        specs=(policy_run_spec("optimal", n_jobs=40, trace_seed=0,
                               name="bump-base"),),
        axes=(("policy.name", ("optimal", "young")),
              ("storage.mode", ("auto", "local"))),
        store="bump.store",
        workers=1,
    )
    store = ResultStore(tmp_path / "store")
    before, stats = run_campaign(camp, store=store)
    assert stats["n_computed"] == 4

    monkeypatch.setattr(store_mod, "MODEL_VERSION", MODEL_VERSION + 1)
    after, stats = run_campaign(camp, store=store)
    assert (stats["n_computed"], stats["n_cached"]) == (4, 0)
    assert report_json(after) == report_json(before)
    for digest in camp.cell_digests():
        record = store.get(digest)
        assert record.provenance["model_version"] == MODEL_VERSION + 1

    _, stats = run_campaign(camp, store=store)
    assert (stats["n_computed"], stats["n_cached"]) == (0, 4)


def test_record_of_another_model_version_is_stale_not_corrupt(
        tmp_path, capsys):
    """A two-cell campaign store with one record relabelled
    ``model_version: 1`` and one foreign truncated record: every count
    and prune names the relabelled record stale."""
    camp = CampaignSpec(
        name="stale-grid",
        specs=(policy_run_spec("optimal", n_jobs=40, trace_seed=0,
                               name="stale-base"),),
        axes=(("policy.name", ("optimal", "young")),),
        store="stale.store",
        workers=1,
    )
    path = tmp_path / "stale.json"
    path.write_text(json.dumps(camp.to_dict()))
    store = ResultStore(tmp_path / "stale.store")
    run_campaign(camp, store=store)
    first, second = camp.cell_digests()
    record = store.path_for(first)
    data = json.loads(record.read_text())
    data["provenance"]["model_version"] = 1
    record.write_text(json.dumps(data))
    store.put(RunRecord(spec_digest="cd" + "0" * 62, name="foreign",
                        tier="vector", seed=0, digest="e" * 64,
                        provenance={"model_version": MODEL_VERSION}))
    store.path_for("cd" + "0" * 62).write_text("{")

    stats = store.stats()
    assert (stats["n_records"], stats["n_stale"], stats["n_corrupt"]) == (
        3, 1, 1)
    status = campaign_status(camp, store=store)
    assert status["n_missing"] == 1
    assert status["missing"][0]["spec_digest"] == first
    assert (status["store"]["n_stale"], status["store"]["n_corrupt"]) == (
        1, 1)

    assert campaign_main(["status", str(path)]) == 1
    assert "1 stale, 1 corrupt" in capsys.readouterr().out
    assert campaign_main(["prune", str(path), "--dry-run"]) == 0
    assert ("would remove 1 foreign, 1 stale and 0 corrupt of 3"
            in capsys.readouterr().out)
    counts = store.prune(drop_corrupt=True)
    assert counts == {"removed": 0, "kept": 1, "corrupt_removed": 1,
                      "stale_removed": 1}
    assert list(store.digests()) == [second]
