"""Tests for the experiment-data export module and CLI wiring."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cli import main
from repro.experiments.export import export_report
from repro.experiments.registry import ExperimentReport


def _report(**data):
    return ExperimentReport(
        exp_id="testexp", title="T", text="body", data=data, notes=["n1"]
    )


class TestExportReport:
    def test_json_written(self, tmp_path):
        rep = _report(scalar=1.5, name="abc")
        paths = export_report(rep, tmp_path)
        payload = json.loads((tmp_path / "testexp.json").read_text())
        assert payload["data"]["scalar"] == 1.5
        assert payload["data"]["name"] == "abc"
        assert payload["notes"] == ["n1"]
        assert (tmp_path / "testexp.json") in paths

    def test_numpy_converted(self, tmp_path):
        rep = _report(arr=np.array([1.0, 2.0]), num=np.float64(3.5),
                      count=np.int64(7))
        export_report(rep, tmp_path)
        payload = json.loads((tmp_path / "testexp.json").read_text())
        assert payload["data"]["arr"] == [1.0, 2.0]
        assert payload["data"]["num"] == 3.5
        assert payload["data"]["count"] == 7

    def test_csv_series_written(self, tmp_path):
        rep = _report(series=np.array([10.0, 20.0, 30.0]))
        paths = export_report(rep, tmp_path)
        csvs = [p for p in paths if p.suffix == ".csv"]
        assert len(csvs) == 1
        lines = csvs[0].read_text().strip().splitlines()
        assert lines[0] == "index,value"
        assert lines[1].startswith("0,")
        assert len(lines) == 4

    def test_nested_dict_series(self, tmp_path):
        rep = _report(group={"inner": [1.0, 2.0]})
        paths = export_report(rep, tmp_path)
        names = {p.name for p in paths}
        assert "testexp__group__inner.csv" in names

    def test_creates_directory(self, tmp_path):
        target = tmp_path / "deep" / "dir"
        export_report(_report(x=1.0), target)
        assert (target / "testexp.json").exists()

    def test_unserializable_falls_back_to_repr(self, tmp_path):
        class Odd:
            def __repr__(self):
                return "<odd>"

        export_report(_report(obj=Odd()), tmp_path)
        payload = json.loads((tmp_path / "testexp.json").read_text())
        assert payload["data"]["obj"] == "<odd>"


class TestCLIExport:
    def test_export_flag(self, tmp_path, capsys):
        assert main(["experiments", "tab4", "--export", str(tmp_path)]) == 0
        assert (tmp_path / "tab4.json").exists()
        out = capsys.readouterr().out
        assert "exported" in out
