"""Tests for the ``repro`` CLI: subcommand dispatch and ``repro
experiments``."""

from __future__ import annotations

import pytest

from repro.cli import main


class TestCLI:
    def test_list(self, capsys):
        assert main(["experiments", "--list"]) == 0
        out = capsys.readouterr().out.split()
        assert "fig9" in out and "tab6" in out
        assert len(out) >= 16

    def test_no_args_prints_help(self, capsys):
        assert main(["experiments"]) == 2
        assert "usage" in capsys.readouterr().out.lower()

    def test_unknown_experiment(self, capsys):
        assert main(["experiments", "fig99"]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_runs_single_experiment(self, capsys):
        assert main(["experiments", "tab4"]) == 0
        out = capsys.readouterr().out
        assert "tab4" in out and "completed" in out

    def test_forwards_n_jobs_override(self, capsys):
        assert main(["experiments", "fig8", "--n-jobs", "300"]) == 0
        out = capsys.readouterr().out
        assert "fig8" in out

    def test_n_jobs_ignored_for_calibration(self, capsys):
        # tab4 takes no n_jobs parameter; the override must not break it.
        assert main(["experiments", "tab4", "--n-jobs", "10"]) == 0

    @pytest.mark.parametrize("argv", [[], ["fig9"], ["--list"]],
                             ids=["none", "fig9", "--list"])
    def test_no_or_unknown_subcommand_lists_subcommands(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        for name in ("experiments", "verify", "run", "sweep", "campaign"):
            assert name in err
