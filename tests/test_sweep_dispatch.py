"""Cost-aware grid dispatch: redraw cells weighed by policy.

A replay-tier redraw cell without checkpoints runs the redraw kernel's
long tail and costs tens of replay cells, so :func:`estimate_spec_cost`
ranks it first and the pool takes cells one at a time.  Other tiers'
costs, which also decide DES sharding, do not move, and no schedule
changes a report.
"""

from __future__ import annotations

import logging

import pytest

from repro import api
from repro.experiments.common import policy_run_spec
from repro.parallel.sweep import (
    SERIAL_FALLBACK_COST,
    estimate_spec_cost,
    run_specs,
)


def _cell(policy, mode, n_jobs=1000):
    return policy_run_spec(policy, n_jobs=n_jobs, trace_seed=2013,
                           failure_mode=mode)


class TestCostRanking:
    def test_redraw_cells_ranked_by_policy(self):
        cost = {(p, m): estimate_spec_cost(_cell(p, m))
                for p in ("optimal", "young", "daly", "none")
                for m in ("replay", "redraw")}
        cheap = [cost["optimal", "redraw"]] + [
            cost[p, "replay"] for p in ("optimal", "young", "daly", "none")]
        middle = [cost["young", "redraw"], cost["daly", "redraw"]]
        assert min(middle) > max(cheap)
        assert cost["none", "redraw"] > max(middle)

    def test_replay_mode_cost_ignores_the_policy(self):
        costs = {estimate_spec_cost(_cell(p, "replay"))
                 for p in ("optimal", "young", "daly", "none")}
        assert costs == {1.5 * 2.5 * 1000}

    @pytest.mark.parametrize("scenario,tier,want", [
        ("short-tasks", "vector", 1.0),
        ("short-tasks", "scalar", 25.0),
        ("short-tasks", "des", 60.0),
        ("exp-baseline-local", "des", 60.0),
    ])
    def test_other_tiers_unchanged(self, scenario, tier, want):
        """Per-task tier factors only, whatever the policy or failure
        mode: DES sharding reads these costs too."""
        spec = api.scenario_spec(scenario, tier=tier)
        size = spec.workload.n_tasks
        assert estimate_spec_cost(spec) == size * want
        for policy in ("none", "young"):
            other = spec.evolve(**{"policy.name": policy})
            assert estimate_spec_cost(other) == size * want


def _deterministic(report: dict) -> dict:
    """The report without wall-clock and scheduling bookkeeping."""
    drop = {"elapsed_s", "provenance", "created_at", "cached"}
    out = {k: v for k, v in report.items()
           if k not in ("elapsed_s", "workers", "workers_effective")}
    out["points"] = [{k: v for k, v in cell.items() if k not in drop}
                     for cell in report["points"]]
    return out


class TestSchedule:
    def _grid(self):
        # Big enough to clear the serial fallback only through the
        # weight of its no-checkpoint redraw cell.
        specs = [_cell(p, m, n_jobs=400) for p in ("optimal", "none")
                 for m in ("replay", "redraw")]
        assert (sum(estimate_spec_cost(_cell("optimal", m, 400))
                    for m in ("replay", "redraw")) * 2
                < SERIAL_FALLBACK_COST
                <= sum(estimate_spec_cost(s) for s in specs))
        return specs

    def test_report_identical_at_one_and_two_workers(self):
        specs = self._grid()
        serial = run_specs(specs, workers=1)
        pooled = run_specs(specs, workers=2)
        assert serial["workers_effective"] == 1
        assert pooled["workers_effective"] == 2
        assert _deterministic(serial) == _deterministic(pooled)

    def test_lane_group_on_the_pool(self, caplog):
        """The three storage cells of a no-checkpoint redraw cell are one
        pool job beside the other cells; the report does not show it."""
        specs = [policy_run_spec("none", n_jobs=400, trace_seed=2013,
                                 failure_mode="redraw", storage=storage)
                 for storage in ("auto", "local", "shared")]
        specs.insert(1, _cell("optimal", "replay", n_jobs=400))
        serial = run_specs(specs, workers=1)
        with caplog.at_level(logging.DEBUG, logger="repro.parallel.sweep"):
            pooled = run_specs(specs, workers=2)
        assert pooled["workers_effective"] == 2
        assert _deterministic(serial) == _deterministic(pooled)
        assert [c["digest"] for c in pooled["points"]] == [
            api.run(spec).digest for spec in specs]
        lanes = [rec.getMessage() for rec in caplog.records
                 if "lane groups" in rec.getMessage()]
        assert lanes == ["3 checkpoint-free redraw cells run as 1 lane "
                         "groups of [3] cells, one kernel pass each; 2 jobs"]

    def test_digested_specs_digest_the_same_in_pool_workers(self, tmp_path):
        """Specs digested (and so memoised) before dispatch persist their
        records in the workers under the same digests."""
        from repro.spec import RunSpec
        from repro.store import ResultStore

        specs = self._grid()
        digests = [spec.spec_digest() for spec in specs]
        store = ResultStore(tmp_path)
        report = run_specs(specs, workers=2, store=store)
        assert report["workers_effective"] == 2
        assert [c["spec_digest"] for c in report["points"]] == digests
        for spec, digest in zip(specs, digests):
            record = store.get(digest)
            assert record.spec_digest == digest
            assert RunSpec.from_dict(record.spec).spec_digest() == digest
            assert api.run(spec, store=store).cached

    def test_debug_log_records_the_decision(self, caplog):
        specs = self._grid()
        with caplog.at_level(logging.DEBUG, logger="repro.parallel.sweep"):
            run_specs(specs, workers=2)
            run_specs(specs[:1], workers=2)
        msgs = [rec.getMessage() for rec in caplog.records
                if rec.name == "repro.parallel.sweep"]
        assert len(msgs) == 2
        pooled, fallback = msgs
        total = sum(estimate_spec_cost(s) for s in specs)
        assert "workers_effective 2" in pooled
        assert "serial fallback False" in pooled
        assert f"cost sum {total:.0f}" in pooled
        assert "chunksize 1" in pooled
        assert "workers_effective 1" in fallback
        assert "serial fallback True" in fallback
        assert "chunksize -" in fallback

    def test_silent_above_debug(self, caplog):
        with caplog.at_level(logging.INFO, logger="repro.parallel.sweep"):
            run_specs([_cell("optimal", "replay", n_jobs=40)], workers=1)
        assert not [rec for rec in caplog.records
                    if rec.name == "repro.parallel.sweep"]
