"""Tests for the report-rendering helpers and the crossval experiment."""

from __future__ import annotations

import math

import pytest

from repro.experiments.registry import run_experiment
from repro.experiments.reporting import fmt, render_table


class TestFmt:
    def test_floats_rounded(self):
        assert fmt(3.14159, 3) == "3.142"

    def test_trailing_zeros_stripped(self):
        assert fmt(2.5) == "2.5"
        assert fmt(2.0) == "2"

    def test_special_values(self):
        assert fmt(math.inf) == "inf"
        assert fmt(-math.inf) == "-inf"
        assert fmt(math.nan) == "nan"
        assert fmt(0.0) == "0"

    def test_large_numbers_compact(self):
        assert "e" in fmt(1.5e7) or len(fmt(1.5e7)) <= 8

    def test_non_floats_passthrough(self):
        assert fmt("abc") == "abc"
        assert fmt(7) == "7"


class TestRenderTable:
    def test_alignment_and_borders(self):
        txt = render_table(["name", "value"], [["a", 1.0], ["bb", 22.5]],
                           title="T")
        lines = txt.splitlines()
        assert lines[0] == "T"
        assert lines[1].startswith("+") and lines[1].endswith("+")
        widths = {len(line) for line in lines[1:]}
        assert len(widths) == 1  # all rows equal width

    def test_row_length_mismatch(self):
        with pytest.raises(ValueError):
            render_table(["a", "b"], [["only-one"]])

    def test_values_present(self):
        txt = render_table(["x"], [[123.456]])
        assert "123.456" in txt


class TestCrossValidation:
    def test_tiers_agree(self):
        rep = run_experiment("crossval", n_jobs=150)
        # Identical replay through both tiers: WPRs nearly coincide.
        assert rep.data["wpr_gap"] < 0.01
        assert rep.data["mc_failures"] == rep.data["des_failures"]

    def test_des_fig9_ordering_holds(self):
        rep = run_experiment("des9", n_jobs=120)
        # The headline ordering survives full cluster effects.
        assert rep.data["gap"] > 0.0
        assert rep.data["formula3_avg"] > 0.85
