"""``run_parallel_bench.py --only``: re-recording sections into a record
file that does not exist yet, and into one that does."""

from __future__ import annotations

import json

import run_parallel_bench


def test_only_into_a_new_file_records_the_named_section(tmp_path):
    out = tmp_path / "BENCH_parallel.json"
    argv = ["--only", "workload_build", "--repeats", "1", "--out", str(out)]
    assert run_parallel_bench.main(argv) == 0
    payload = json.loads(out.read_text())
    assert set(run_parallel_bench.SECTIONS) & set(payload) == {
        "workload_build"}
    assert payload["workload_build"]["build_s"] > 0

    # Into an existing file, the other sections are kept as they were.
    payload["sweep"] = {"kept": True}
    out.write_text(json.dumps(payload))
    assert run_parallel_bench.main(argv) == 0
    assert json.loads(out.read_text())["sweep"] == {"kept": True}
