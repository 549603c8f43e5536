"""The DES perf guard (``check_des_regression.check``) on the committed
``BENCH_des.json``: what passes, what fails and what is skipped."""

from __future__ import annotations

import copy
import json
from pathlib import Path

import pytest

from check_des_regression import check

COMMITTED = json.loads(
    (Path(__file__).resolve().parents[1] / "BENCH_des.json").read_text())

#: every guarded ratio, as (path into the record, the label it fails as)
GUARDED = [
    *[(("event_loop", shape, ratio), f"event_loop.{shape}.{ratio}")
      for shape in COMMITTED["event_loop"]
      for ratio in ("probe_over_raw", "probe_over_timeout_mode")],
    (("scheduler", "speedup"), "scheduler.speedup"),
    (("executor", "speedup"), "executor.speedup"),
    (("contended", "total", "speedup"), "contended.total.speedup"),
    *[(("sharding", shape, f"speedup_w{w}_vs_unsharded"),
       f"sharding.{shape}.speedup_w{w}_vs_unsharded")
      for shape in COMMITTED["sharding"] for w in (1, 4)],
]


def _scale(record: dict, path: tuple, factor: float) -> None:
    *parents, last = path
    node = record
    for key in parents:
        node = node[key]
    node[last] *= factor


def test_equal_records_pass():
    assert check(COMMITTED, copy.deepcopy(COMMITTED)) == []


@pytest.mark.parametrize("path, label", GUARDED,
                         ids=[label for _, label in GUARDED])
def test_a_30_percent_drop_fails_and_names_the_ratio(path, label):
    fresh = copy.deepcopy(COMMITTED)
    _scale(fresh, path, 0.7)
    failures = check(COMMITTED, fresh)
    assert len(failures) == 1 and failures[0].startswith(f"{label}:")

    # A 20% drop is within the tolerance.
    fresh = copy.deepcopy(COMMITTED)
    _scale(fresh, path, 0.8)
    assert check(COMMITTED, fresh) == []


@pytest.mark.parametrize("section", ["scheduler", "executor", "contended",
                                     "sharding"])
def test_mismatched_workload_sizes_skip(section, capsys):
    fresh = copy.deepcopy(COMMITTED)
    rows = ([fresh[section]] if section in ("scheduler", "executor")
            else [row for label, row in fresh[section].items()
                  if label != "total"])
    for row in rows:
        row["n_tasks"] += 1
    for path, _ in GUARDED:
        if path[0] == section:
            _scale(fresh, path, 0.5)
    assert check(COMMITTED, fresh) == []
    assert f"[skip] {section}" in capsys.readouterr().out


def test_a_cpu_count_mismatch_skips_only_the_workers_4_comparison(capsys):
    fresh = copy.deepcopy(COMMITTED)
    fresh["host"]["cpu_count"] = COMMITTED["host"]["cpu_count"] + 2
    for shape in COMMITTED["sharding"]:
        _scale(fresh, ("sharding", shape, "speedup_w4_vs_unsharded"), 0.5)
    assert check(COMMITTED, fresh) == []
    assert "workers-4 scaling" in capsys.readouterr().out

    shape = next(iter(COMMITTED["sharding"]))
    _scale(fresh, ("sharding", shape, "speedup_w1_vs_unsharded"), 0.7)
    (failure,) = check(COMMITTED, fresh)
    assert failure.startswith(f"sharding.{shape}.speedup_w1_vs_unsharded:")
