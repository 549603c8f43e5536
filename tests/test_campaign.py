"""Tests for the declarative campaign layer (:mod:`repro.campaign`).

The acceptance contract of the store/campaign redesign: interrupting a
campaign mid-grid and re-running with the same store recomputes only
the uncached cells, and the resulting per-cell digests and shared
report match a from-scratch run **byte for byte**.
"""

from __future__ import annotations

import json

import pytest

import repro.spec as spec_mod
from repro.campaign import (
    CampaignSpec,
    build_report,
    campaign_status,
    load_campaign,
    main as campaign_main,
    report_json,
    run_campaign,
)
from repro.experiments.common import policy_run_spec
from repro.spec import SpecError
from repro.store import ResultStore


def small_campaign(**over) -> CampaignSpec:
    kwargs = dict(
        name="unit-grid",
        description="2x2 policy/storage grid over a tiny trace",
        specs=(policy_run_spec("optimal", n_jobs=40, trace_seed=0,
                               name="unit-base"),),
        axes=(
            ("policy.name", ("optimal", "young")),
            ("storage.mode", ("auto", "local")),
        ),
        store="unit.store",
        report_path="unit.report.json",
        workers=1,
    )
    kwargs.update(over)
    return CampaignSpec(**kwargs)


def _swap_snapshot(store: ResultStore, digest: str, source: str) -> None:
    """Put the spec snapshot of the record of ``source`` into the record
    of ``digest``, leaving the rest of that record as it is."""
    path = store.path_for(digest)
    data = json.loads(path.read_text())
    data["spec"] = json.loads(store.path_for(source).read_text())["spec"]
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


class TestCampaignSpec:
    def test_json_round_trip(self):
        camp = small_campaign()
        assert CampaignSpec.from_dict(
            json.loads(json.dumps(camp.to_dict()))
        ) == camp

    def test_save_load_json(self, tmp_path):
        camp = small_campaign()
        path = tmp_path / "c.json"
        path.write_text(json.dumps(camp.to_dict()))
        assert load_campaign(path) == camp

    def test_validation(self):
        with pytest.raises(SpecError, match="at least one base spec"):
            small_campaign(specs=())
        with pytest.raises(SpecError, match="duplicate axis"):
            small_campaign(axes=(("policy.name", ("a",)),
                                 ("policy.name", ("b",))))
        with pytest.raises(SpecError, match="no values"):
            small_campaign(axes=(("policy.name", ()),))
        with pytest.raises(SpecError, match="workers"):
            small_campaign(workers=0)
        with pytest.raises(SpecError, match="unknown CampaignSpec field"):
            CampaignSpec.from_dict({**small_campaign().to_dict(),
                                    "zigzag": 1})
        with pytest.raises(SpecError, match="campaign_version"):
            CampaignSpec.from_dict({**small_campaign().to_dict(),
                                    "campaign_version": 99})

    @pytest.mark.parametrize("scalar", ["abc", 5], ids=["str", "int"])
    def test_scalar_axis_rejected(self, scalar):
        data = {**small_campaign().to_dict(), "axes": {"description": scalar}}
        with pytest.raises(SpecError,
                           match="axis 'description' must be a list"):
            CampaignSpec.from_dict(data)

    def test_expand_grid_order_and_overrides(self):
        camp = small_campaign(overrides=(("execution.base_seed", 7),))
        cells = camp.expand()
        assert [(s.policy.name, s.storage.mode) for s in cells] == [
            ("optimal", "auto"), ("optimal", "local"),
            ("young", "auto"), ("young", "local"),
        ]
        assert all(s.execution.base_seed == 7 for s in cells)
        # expansion and digests are deterministic
        assert camp.cell_digests() == camp.cell_digests()
        assert len(set(camp.cell_digests())) == 4
        assert camp.campaign_digest() == camp.campaign_digest()

    def test_multiple_base_specs_concatenate_in_order(self):
        camp = small_campaign(specs=(
            policy_run_spec("optimal", n_jobs=40, trace_seed=0, name="a"),
            policy_run_spec("optimal", n_jobs=40, trace_seed=1, name="b"),
        ))
        cells = camp.expand()
        assert [s.name for s in cells] == ["a"] * 4 + ["b"] * 4


class TestRunCampaign:
    def test_fresh_run_then_full_cache(self, tmp_path):
        camp = small_campaign()
        store = tmp_path / "store"
        report1, stats1 = run_campaign(camp, store=store)
        assert stats1["n_computed"] == 4 and stats1["n_cached"] == 0
        assert report1["n_cells"] == 4
        assert [c["spec_digest"] for c in report1["cells"]] == \
            camp.cell_digests()
        report2, stats2 = run_campaign(camp, store=store)
        assert stats2["n_computed"] == 0 and stats2["n_cached"] == 4
        assert report_json(report1) == report_json(report2)

    def test_interrupt_and_resume_matches_fresh_run(self, tmp_path):
        """The acceptance criterion: kill mid-grid, resume, get only the
        missing cells recomputed and a byte-identical report."""
        camp = small_campaign()
        killed = ResultStore(tmp_path / "killed")
        fresh = ResultStore(tmp_path / "fresh")
        report_fresh, _ = run_campaign(camp, store=fresh)
        report_a, _ = run_campaign(camp, store=killed)
        # simulate the kill: half the grid's records vanish
        digests = camp.cell_digests()
        for digest in digests[::2]:
            killed.path_for(digest).unlink()
        status = campaign_status(camp, store=killed)
        assert status["n_missing"] == 2 and not status["complete"]
        report_b, stats = run_campaign(camp, store=killed)
        assert stats["n_computed"] == 2 and stats["n_cached"] == 2
        assert report_json(report_a) == report_json(report_b)
        assert report_json(report_b) == report_json(report_fresh)

    def test_each_record_is_read_once(self, tmp_path, monkeypatch):
        """Cached cells are read once; a computed cell is read back
        once, loudly, after it ran (besides the reads that find it
        missing)."""
        camp = small_campaign()
        store = ResultStore(tmp_path / "store")
        report, _ = run_campaign(camp, store=store)
        digests = camp.cell_digests()
        store.path_for(digests[2]).unlink()
        reads = []
        get = ResultStore.get
        monkeypatch.setattr(ResultStore, "get", lambda self, digest, **kw: (
            reads.append((digest, kw.get("on_corrupt", "raise")))
            or get(self, digest, **kw)))
        resumed, stats = run_campaign(camp, store=store)
        assert stats["n_computed"] == 1
        assert report_json(resumed) == report_json(report)
        for digest in digests[:2] + digests[3:]:
            assert [r for r in reads if r[0] == digest] == [(digest, "miss")]
        assert [r for r in reads if r[0] == digests[2]][-1] == (
            digests[2], "raise")
        assert reads.count((digests[2], "raise")) == 1
        reads.clear()
        run_campaign(camp, store=store)
        assert sorted(reads) == sorted((d, "miss") for d in digests)

    def test_corrupt_record_is_a_miss_and_heals(self, tmp_path):
        camp = small_campaign()
        store = ResultStore(tmp_path / "store")
        run_campaign(camp, store=store)
        digest = camp.cell_digests()[1]
        path = store.path_for(digest)
        path.write_text(path.read_text()[:30])
        _, stats = run_campaign(camp, store=store)
        assert stats["n_computed"] == 1 and stats["n_cached"] == 3
        assert store.get(digest) is not None  # healed

    def test_workers_invariant_report(self, tmp_path):
        camp = small_campaign()
        r1, _ = run_campaign(camp, store=tmp_path / "w1", workers=1)
        r2, _ = run_campaign(camp, store=tmp_path / "w2", workers=2)
        assert report_json(r1) == report_json(r2)

    def test_report_cells_have_no_volatile_fields(self, tmp_path):
        report, _ = run_campaign(small_campaign(), store=tmp_path / "s")
        for cell in report["cells"]:
            assert "elapsed_s" not in cell and "provenance" not in cell
            assert cell["digest"] and cell["summary"]["n_tasks"] > 0

    def test_status_counts_foreign_records(self, tmp_path):
        from repro import api

        camp = small_campaign()
        store = ResultStore(tmp_path / "store")
        run_campaign(camp, store=store)
        api.run(policy_run_spec("daly", n_jobs=40, trace_seed=9),
                store=store)
        status = campaign_status(camp, store=store)
        assert status["complete"] and status["foreign_records"] == 1
        assert status["store"]["n_records"] == 5


class TestLaneGroups:
    """A campaign's checkpoint-free redraw cells that differ only in
    storage share one kernel pass; nothing they record may show it."""

    @staticmethod
    def lane_campaign(**over) -> CampaignSpec:
        return small_campaign(
            name="lane-grid",
            axes=(
                ("policy.name", ("none", "optimal")),
                ("storage.mode", ("auto", "local", "shared")),
                ("failures.mode", ("replay", "redraw")),
            ),
            overrides=(("policy.estimation", "oracle"),
                       ("execution.base_seed", 21)),
            **over,
        )

    @pytest.mark.parametrize("workers", [1, 2])
    def test_grouped_grid_matches_cells_run_one_by_one(self, tmp_path,
                                                       caplog, workers):
        import logging

        from repro.parallel.sweep import run_specs

        camp = self.lane_campaign(workers=workers)
        grouped_store = ResultStore(tmp_path / "grouped")
        with caplog.at_level(logging.DEBUG, logger="repro.parallel.sweep"):
            grouped, stats = run_campaign(camp, store=grouped_store)
        assert stats["n_computed"] == 12
        assert any("3 checkpoint-free redraw cells run as 1 lane groups"
                   in rec.getMessage() for rec in caplog.records)
        alone_store = ResultStore(tmp_path / "alone")
        for spec in camp.expand():
            run_specs([spec], store=alone_store)
        alone, stats = run_campaign(camp, store=alone_store)
        assert stats["n_computed"] == 0
        assert report_json(grouped) == report_json(alone)
        for digest in camp.cell_digests():
            assert (grouped_store.get(digest).pinned_dict()
                    == alone_store.get(digest).pinned_dict())

    def test_resume_recomputes_a_group_member_alone(self, tmp_path):
        camp = self.lane_campaign()
        store = ResultStore(tmp_path / "store")
        report, _ = run_campaign(camp, store=store)
        lanes = [spec.spec_digest() for spec in camp.expand()
                 if spec.policy.name == "none"
                 and spec.failures.mode == "redraw"]
        store.path_for(lanes[1]).unlink()
        resumed, stats = run_campaign(camp, store=store)
        assert stats["n_computed"] == 1
        assert report_json(resumed) == report_json(report)


class TestCampaignCLI:
    def _write(self, tmp_path, **over):
        camp = small_campaign(**over)
        path = tmp_path / "camp.json"
        path.write_text(json.dumps(camp.to_dict()))
        return camp, path

    def test_run_status_report_prune(self, tmp_path, capsys):
        camp, path = self._write(tmp_path)
        args = ["run", str(path), "--stats-out", str(tmp_path / "st.json")]
        assert campaign_main(args) == 0
        out = capsys.readouterr().out
        assert "4 cell(s), 0 cached, 4 computed" in out
        stats = json.loads((tmp_path / "st.json").read_text())
        assert stats["n_computed"] == 4
        report_path = tmp_path / "unit.report.json"
        assert report_path.exists()
        first = report_path.read_bytes()

        # status: complete -> exit 0
        assert campaign_main(["status", str(path)]) == 0
        assert "missing 0" in capsys.readouterr().out

        # rerun: all cached, byte-identical report
        assert campaign_main(["run", str(path), "--quiet"]) == 0
        assert "4 cached, 0 computed" in capsys.readouterr().out
        assert report_path.read_bytes() == first

        # report subcommand rebuilds identically from the store alone
        rebuilt = tmp_path / "rebuilt.json"
        assert campaign_main(
            ["report", str(path), "--out", str(rebuilt)]) == 0
        capsys.readouterr()
        assert rebuilt.read_bytes() == first

        # prune removes nothing when the store holds exactly the cells
        assert campaign_main(["prune", str(path)]) == 0
        assert "removed 0 foreign" in capsys.readouterr().out

    def test_status_and_report_on_partial_store(self, tmp_path, capsys):
        camp, path = self._write(tmp_path)
        assert campaign_main(["run", str(path), "--quiet"]) == 0
        capsys.readouterr()
        store = ResultStore(tmp_path / "unit.store")
        store.path_for(camp.cell_digests()[0]).unlink()
        assert campaign_main(["status", str(path)]) == 1
        assert "missing 1" in capsys.readouterr().out
        assert campaign_main(["report", str(path)]) == 1
        assert "no record" in capsys.readouterr().err

    def test_store_flag_overrides_campaign_field(self, tmp_path, capsys):
        camp, path = self._write(tmp_path)
        other = tmp_path / "elsewhere"
        assert campaign_main(
            ["run", str(path), "--quiet", "--store", str(other)]) == 0
        capsys.readouterr()
        assert len(ResultStore(other)) == 4
        assert not (tmp_path / "unit.store").exists()

    def test_prune_drops_foreign_and_dry_run(self, tmp_path, capsys):
        camp, path = self._write(tmp_path)
        assert campaign_main(["run", str(path), "--quiet"]) == 0
        store = ResultStore(tmp_path / "unit.store")
        foreign = policy_run_spec("daly", n_jobs=40, trace_seed=3)
        from repro import api

        api.run(foreign, store=store)
        capsys.readouterr()
        assert campaign_main(["prune", str(path), "--dry-run"]) == 0
        assert "would remove 1" in capsys.readouterr().out
        assert len(store) == 5
        assert campaign_main(["prune", str(path)]) == 0
        assert "removed 1 foreign" in capsys.readouterr().out
        assert len(store) == 4

    def test_a_swapped_snapshot_is_a_missing_cell(self, tmp_path, capsys):
        # A record holding another cell's spec snapshot is not this
        # cell's result: status and report call the campaign incomplete,
        # and a run recomputes that cell alone.
        camp, path = self._write(tmp_path)
        assert campaign_main(["run", str(path), "--quiet"]) == 0
        store = ResultStore(tmp_path / "unit.store")
        digests = camp.cell_digests()
        _swap_snapshot(store, digests[0], digests[1])
        status = campaign_status(camp, store=store)
        assert [cell["spec_digest"] for cell in status["missing"]] == [
            digests[0]]
        assert not status["complete"]
        assert status["store"]["n_corrupt"] == 1
        capsys.readouterr()
        assert campaign_main(["status", str(path)]) == 1
        assert "missing 1" in capsys.readouterr().out
        assert campaign_main(["report", str(path)]) == 1
        assert "1/4 cell(s) have no record" in capsys.readouterr().err
        report, stats = run_campaign(camp, store=store)
        assert (stats["n_computed"], stats["n_cached"]) == (1, 3)
        fresh, _ = run_campaign(camp, store=tmp_path / "fresh")
        assert report_json(report) == report_json(fresh)

    def test_prune_dry_run_counts_what_prune_removes(self, tmp_path, capsys):
        # One record of each kind prune drops: foreign, stale, truncated
        # and holding another cell's snapshot.
        import re

        from repro import api

        camp, path = self._write(tmp_path)
        assert campaign_main(["run", str(path), "--quiet"]) == 0
        store = ResultStore(tmp_path / "unit.store")
        api.run(policy_run_spec("daly", n_jobs=40, trace_seed=3),
                store=store)
        stale, truncated, swapped, source = camp.cell_digests()
        data = json.loads(store.path_for(stale).read_text())
        data["provenance"]["model_version"] = 1
        store.path_for(stale).write_text(json.dumps(data))
        store.path_for(truncated).write_text("{")
        _swap_snapshot(store, swapped, source)
        capsys.readouterr()
        assert campaign_main(["prune", str(path), "--dry-run"]) == 0
        dry = re.fullmatch(
            r"\[dry run\] would remove (\d+) foreign, (\d+) stale and "
            r"(\d+) corrupt of (\d+) record\(s\)\n",
            capsys.readouterr().out)
        assert len(store) == 5
        assert campaign_main(["prune", str(path)]) == 0
        done = re.fullmatch(
            r"removed (\d+) foreign, (\d+) stale and (\d+) corrupt "
            r"record\(s\); (\d+) kept\n", capsys.readouterr().out)
        assert dry.groups()[:3] == done.groups()[:3] == ("1", "1", "2")
        assert list(store.digests()) == [source]
        assert int(dry[4]) - 4 == int(done[4]) == 1

    def test_bad_campaign_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert campaign_main(["status", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("scalar", ["abc", 5], ids=["str", "int"])
    def test_scalar_axis_exits_2(self, tmp_path, capsys, scalar):
        path = tmp_path / "scalar-axis.json"
        data = small_campaign().to_dict()
        data["axes"] = {"execution.base_seed": scalar}
        path.write_text(json.dumps(data))
        assert campaign_main(["run", str(path), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "axis 'execution.base_seed' must be a list" in err
        assert not (tmp_path / "unit.store").exists()

    def test_toplevel_cli_dispatches_campaign(self, tmp_path, capsys):
        from repro.cli import main as toplevel

        _, path = self._write(tmp_path)
        assert toplevel(["campaign", "status", str(path)]) == 1
        assert "missing 4" in capsys.readouterr().out

    def test_example_campaign_file_loads(self):
        if spec_mod.tomllib is None:
            pytest.skip("tomllib needs Python >= 3.11")
        from pathlib import Path

        path = (Path(__file__).resolve().parents[1]
                / "examples" / "specs" / "campaign-policy-grid.toml")
        camp = load_campaign(path)
        assert camp.name == "policy-grid"
        assert len(camp.expand()) == 6
