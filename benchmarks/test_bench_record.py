"""``run_parallel_bench.py --only`` and ``run_des_bench.py --only``:
re-recording sections into a record file that does not exist yet, and
into one that does."""

from __future__ import annotations

import json

import run_des_bench
import run_parallel_bench


def _only_into_a_new_file(bench, section, field, tmp_path):
    out = tmp_path / "BENCH.json"
    argv = ["--only", section, "--repeats", "1", "--out", str(out)]
    assert bench.main(argv) == 0
    payload = json.loads(out.read_text())
    assert set(bench.SECTIONS) & set(payload) == {section}
    assert payload[section][field] > 0

    # Into an existing file, the other sections are kept as they were.
    other = next(name for name in bench.SECTIONS if name != section)
    payload[other] = {"kept": True}
    out.write_text(json.dumps(payload))
    assert bench.main(argv) == 0
    assert json.loads(out.read_text())[other] == {"kept": True}


def test_only_into_a_new_file_records_the_named_section(tmp_path):
    _only_into_a_new_file(run_parallel_bench, "workload_build", "build_s",
                          tmp_path)


def test_des_only_into_a_new_file_records_the_named_section(tmp_path):
    _only_into_a_new_file(run_des_bench, "executor", "current_s", tmp_path)
