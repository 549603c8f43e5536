"""Tests for the content-addressed result store (:mod:`repro.store`).

The load-bearing properties: records round-trip exactly, older schema
versions read as stale, writes are atomic (racing writers never
produce a torn read), and corruption is either loud (``on_corrupt=
'raise'``) or heals as a cache miss (``'miss'``) — never silent.
"""

from __future__ import annotations

import json
import logging
import multiprocessing
import os

import pytest

from repro.store import (
    MODEL_VERSION,
    RECORD_VERSION,
    ResultStore,
    RunRecord,
    StoreError,
    canonical_spec_dict,
)
from repro.verify.scenarios import get_scenario

SPEC = get_scenario("short-tasks").evolve(name="unit")
OTHER_SPEC = SPEC.evolve(name="other")
DIGEST = SPEC.spec_digest()
OTHER = OTHER_SPEC.spec_digest()


def make_record(run_spec=SPEC, **over) -> RunRecord:
    """A record of ``run_spec`` under its own digest and snapshot."""
    kwargs = dict(
        spec_digest=run_spec.spec_digest(),
        name=run_spec.name,
        tier="vector",
        seed=7,
        digest="e" * 64,
        summary={"n_tasks": 8.0, "mean_wpr": 0.95},
        extra={"workers_effective": 1.0},
        elapsed_s=1.25,
        spec=canonical_spec_dict(run_spec),
        provenance={"code_version": "x", "model_version": MODEL_VERSION,
                    "workers": 1, "workers_effective": 1},
    )
    kwargs.update(over)
    return RunRecord(**kwargs)


class TestRunRecord:
    def test_round_trip(self):
        record = make_record()
        assert RunRecord.from_dict(record.to_dict()) == record
        assert RunRecord.from_dict(json.loads(record.to_json())) == record

    def test_pinned_dict_drops_volatile_fields(self):
        pinned = make_record().pinned_dict()
        assert "elapsed_s" not in pinned and "provenance" not in pinned
        # two executions of one spec differ only in the volatile fields
        assert make_record(elapsed_s=9.0).pinned_dict() == pinned

    def test_from_result(self):
        from repro import api
        from repro.store import canonical_spec_dict

        result = api.run(api.scenario_spec("short-tasks"))
        record = RunRecord.from_result(result)
        assert record.spec_digest == result.spec.spec_digest()
        assert record.digest == result.digest
        assert record.summary == result.summary
        # the snapshot is canonical w.r.t. the digest: prose and
        # scheduling fields pinned, workers_effective in provenance
        assert record.spec == canonical_spec_dict(result.spec)
        assert record.spec["description"] == ""
        assert "workers_effective" not in record.extra
        assert record.provenance["workers_effective"] == 1
        assert record.record_version == RECORD_VERSION

    def test_record_bytes_are_worker_and_prose_invariant(self):
        # The byte-identity contract: specs that digest-alias (differ
        # only in workers/prose/quick) produce identical pinned records.
        from repro import api

        spec = api.scenario_spec("short-tasks", tier="vector")
        alias = spec.evolve(**{"execution.workers": 2,
                               "description": "other prose",
                               "tags": ["x"]})
        assert spec.spec_digest() == alias.spec_digest()
        a = RunRecord.from_result(api.run(spec)).pinned_dict()
        b = RunRecord.from_result(api.run(alias)).pinned_dict()
        assert a == b

    @pytest.mark.parametrize("shape", ["v1", "v2"])
    def test_older_record_version_is_stale(self, tmp_path, shape):
        # Every schema before version 3 predates model_version, so no
        # older record could be served: each reads as stale, a miss
        # that recomputing the cell overwrites.
        if shape == "v1":
            # the pre-store RunResult.to_dict() report shape: no
            # record_version marker, no provenance
            old = {
                "spec_digest": DIGEST,
                "name": "legacy",
                "tier": "replay",
                "seed": 3,
                "digest": "f" * 64,
                "summary": {"n_tasks": 4.0},
                "extra": {},
                "elapsed_s": 0.5,
                "spec": None,
            }
        else:
            # version 2 predates created_at
            old = make_record().to_dict()
            del old["created_at"]
            old["record_version"] = 2
        with pytest.raises(StoreError, match="older"):
            RunRecord.from_dict(old)
        store = ResultStore(tmp_path)
        store.path_for(DIGEST).parent.mkdir(parents=True)
        store.path_for(DIGEST).write_text(json.dumps(old))
        assert store.get(DIGEST) is None
        assert store.stats()["n_stale"] == 1
        assert store.stats()["n_corrupt"] == 0
        counts = store.prune(drop_corrupt=True)
        assert counts["stale_removed"] == 1
        assert counts["corrupt_removed"] == 0
        assert len(store) == 0

    def test_from_result_stamps_created_at(self):
        import time

        from repro import api

        before = time.time() - 1.0
        record = RunRecord.from_result(api.run(api.scenario_spec("short-tasks")))
        assert record.created_at is not None
        assert before <= record.created_at <= time.time() + 1.0

    def test_created_at_stays_out_of_pinned_dict(self):
        record = make_record(created_at=123.456)
        assert "created_at" in record.to_dict()
        assert "created_at" not in record.pinned_dict()
        assert record.pinned_dict() == make_record(created_at=None).pinned_dict()

    def test_newer_version_is_refused(self):
        data = make_record().to_dict()
        data["record_version"] = RECORD_VERSION + 1
        with pytest.raises(StoreError, match="newer"):
            RunRecord.from_dict(data)

    def test_constructor_pins_current_version(self):
        with pytest.raises(StoreError, match="current schema"):
            make_record(record_version=1)

    def test_bad_payloads_are_loud(self):
        with pytest.raises(StoreError):
            RunRecord.from_dict({"record_version": RECORD_VERSION})
        with pytest.raises(StoreError, match="unknown record field"):
            RunRecord.from_dict({**make_record().to_dict(), "bogus": 1})
        with pytest.raises(StoreError, match="summary"):
            RunRecord.from_dict(
                {**make_record().to_dict(), "summary": [1, 2]}
            )
        with pytest.raises(StoreError):
            RunRecord.from_dict("not a dict")


class TestResultStore:
    def test_put_get_contains(self, tmp_path):
        store = ResultStore(tmp_path / "st")
        record = make_record()
        assert store.get(DIGEST) is None
        assert not store.contains(DIGEST)
        path = store.put(record)
        assert path.exists() and DIGEST in str(path)
        assert store.contains(DIGEST) and DIGEST in store
        assert store.get(DIGEST) == record
        assert len(store) == 1 and list(store.digests()) == [DIGEST]

    def test_last_writer_wins(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(make_record(elapsed_s=1.0))
        store.put(make_record(elapsed_s=2.0))
        assert store.get(DIGEST).elapsed_s == 2.0
        assert len(store) == 1

    def test_bad_digest_key_rejected(self, tmp_path):
        store = ResultStore(tmp_path)
        for bad in ("", "../evil", "a/b", "a\\b", "x.json"):
            with pytest.raises(StoreError):
                store.path_for(bad)
            with pytest.raises(StoreError):
                store.get(bad, on_corrupt="miss")

    def test_truncated_record(self, tmp_path):
        store = ResultStore(tmp_path)
        path = store.put(make_record())
        path.write_text(path.read_text()[:25])  # torn by external force
        with pytest.raises(StoreError, match="corrupt"):
            store.get(DIGEST)
        assert store.get(DIGEST, on_corrupt="miss") is None
        with pytest.raises(ValueError):
            store.get(DIGEST, on_corrupt="whatever")
        # recomputation heals: a fresh put replaces the torn file
        store.put(make_record())
        assert store.get(DIGEST) is not None

    def test_renamed_record_detected(self, tmp_path):
        # Content addressing makes a mis-keyed file detectable: a record
        # copied under another digest's name must not be served.
        store = ResultStore(tmp_path)
        src = store.put(make_record())
        dst = store.path_for(OTHER)
        dst.parent.mkdir(parents=True, exist_ok=True)
        dst.write_text(src.read_text())
        with pytest.raises(StoreError, match="claims spec_digest"):
            store.get(OTHER)
        assert store.get(OTHER, on_corrupt="miss") is None

    def test_prune_and_stats(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(make_record())
        store.put(make_record(OTHER_SPEC, tier="replay"))
        bad = store.put(make_record(SPEC.evolve(name="third")))
        bad.write_text("{")  # corrupt it
        stats = store.stats()
        assert stats["n_records"] == 3 and stats["n_corrupt"] == 1
        assert stats["by_tier"] == {"replay": 1, "vector": 1}
        assert stats["total_bytes"] > 0
        counts = store.prune(keep={DIGEST, OTHER}, drop_corrupt=True)
        assert counts == {"removed": 1, "kept": 2, "corrupt_removed": 0,
                          "stale_removed": 0}
        counts = store.prune(keep={DIGEST})
        assert counts["removed"] == 1 and counts["kept"] == 1
        assert list(store.digests()) == [DIGEST]

    def test_prune_drop_corrupt_only(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(make_record())
        bad = store.put(make_record(OTHER_SPEC))
        bad.write_text("nonsense")
        counts = store.prune(drop_corrupt=True)
        assert counts["corrupt_removed"] == 1 and counts["kept"] == 1

    def test_create_false_requires_existing(self, tmp_path):
        with pytest.raises(StoreError, match="does not exist"):
            ResultStore(tmp_path / "nope", create=False)
        ResultStore(tmp_path, create=False)  # exists: fine


class TestDecisionLog:
    """``get`` says on ``repro.store`` what it made of each record."""

    def _lines(self, caplog, store, digest):
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="repro.store"):
            store.get(digest, on_corrupt="miss")
        return [r.getMessage() for r in caplog.records
                if r.name == "repro.store"]

    def test_one_line_per_status(self, tmp_path, caplog):
        store = ResultStore(tmp_path)
        prefix = DIGEST[:12]
        assert self._lines(caplog, store, DIGEST) == [
            f"{prefix}: missing, no record"]
        store.put(make_record())
        assert self._lines(caplog, store, DIGEST) == [
            f"{prefix}: hit, record served"]
        store.put(make_record(provenance={"model_version": 1}))
        assert self._lines(caplog, store, DIGEST) == [
            f"{prefix}: stale, record of model_version 1 (this build "
            f"serves {MODEL_VERSION}); a miss"]
        old = {**make_record().to_dict(), "record_version": 2}
        store.path_for(DIGEST).write_text(json.dumps(old))
        assert self._lines(caplog, store, DIGEST) == [
            f"{prefix}: stale, record_version 2 is older than this build "
            f"reads (version {RECORD_VERSION}); a miss"]
        store.path_for(DIGEST).write_text("{")
        [line] = self._lines(caplog, store, DIGEST)
        assert line.startswith(f"{prefix}: corrupt, read as a miss: "
                               "corrupt record ")

    def test_raised_corruption_and_info_level_log_nothing(self, tmp_path,
                                                          caplog):
        store = ResultStore(tmp_path)
        store.put(make_record())
        store.path_for(DIGEST).write_text("{")
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="repro.store"):
            with pytest.raises(StoreError):
                store.get(DIGEST)
        store.put(make_record())
        with caplog.at_level(logging.INFO, logger="repro.store"):
            store.get(DIGEST)
            store.get(OTHER)
        assert not [r for r in caplog.records if r.name == "repro.store"]


# ----------------------------------------------------------------------
# Concurrency: two writers racing on one digest.
# ----------------------------------------------------------------------
def _race_writer(args) -> int:
    """Hammer one digest with writer-specific payloads."""
    root, writer_id, n_iter = args
    store = ResultStore(root, create=False)
    for i in range(n_iter):
        store.put(make_record(elapsed_s=float(writer_id)))
    return writer_id


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the racing-writer test relies on fork for module pickling",
)
def test_racing_writers_never_tear(tmp_path):
    """Atomic rename wins: a reader overlapping two racing writers
    always sees one writer's complete record, never a prefix or an
    interleaving."""
    store = ResultStore(tmp_path)
    store.put(make_record(elapsed_s=-1.0))  # pre-existing record
    ctx = multiprocessing.get_context("fork")
    n_iter = 150
    with ctx.Pool(processes=2) as pool:
        async_res = pool.map_async(
            _race_writer, [(str(tmp_path), 1, n_iter), (str(tmp_path), 2, n_iter)]
        )
        seen = set()
        while not async_res.ready():
            record = store.get(DIGEST)  # on_corrupt="raise": torn => fail
            assert record is not None
            assert record.elapsed_s in (-1.0, 1.0, 2.0)
            seen.add(record.elapsed_s)
        assert async_res.get() == [1, 2]
    final = store.get(DIGEST)
    assert final.elapsed_s in (1.0, 2.0)
    # no stray temp files survive the race
    assert not [p for p in store.root.rglob("*.tmp")]


def test_no_temp_files_after_failed_put(tmp_path):
    store = ResultStore(tmp_path)

    class Boom(RunRecord):
        def to_json(self):
            raise RuntimeError("disk on fire")

    bad = Boom(spec_digest=DIGEST, name="x", tier="vector", seed=0,
               digest=None)
    with pytest.raises(RuntimeError, match="disk on fire"):
        store.put(bad)
    assert not [p for p in store.root.rglob("*")
                if p.is_file()], "temp file leaked"
    assert os.listdir(store.root) in ([], [DIGEST[:2]])
