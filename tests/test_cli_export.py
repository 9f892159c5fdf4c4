"""Tests for the CLI."""

from pathlib import Path

import pytest

from repro.__main__ import build_parser, main

GOLDEN = Path(__file__).with_name("golden_figures.md")


class TestCLI:
    def test_parser_builds(self):
        parser = build_parser()
        args = parser.parse_args(["run", "gcn", "--scale", "0.2"])
        assert args.workload == "gcn"

    def test_run_command(self, capsys):
        assert main(["run", "gcn", "--scale", "0.15"]) == 0
        out = capsys.readouterr().out
        assert "coverage" in out
        assert "cycles" in out

    def test_compare_command(self, capsys):
        assert main(["compare", "st", "--scale", "0.15"]) == 0
        out = capsys.readouterr().out
        for mech in ("inorder", "nvr"):
            assert mech in out

    def test_workloads_command(self, capsys):
        assert main(["workloads", "--scale", "0.15"]) == 0
        out = capsys.readouterr().out
        assert "Switch Transformer" in out

    def test_overhead_command(self, capsys):
        assert main(["overhead"]) == 0
        out = capsys.readouterr().out
        assert "1808" in out

    def test_figures_command(self, tmp_path, capsys):
        target = tmp_path / "EXP.md"
        assert main(["figures", "--scale", "0.1", "-o", str(target)]) == 0
        assert target.exists()
        report = target.read_text()
        assert "Fig. 5" in report
        # The whole report is pinned, apart from its run line's wall
        # time (the CI smoke job's `grep -v 'wall time'` comparison).
        kept = [line for line in report.splitlines(True) if "wall time" not in line]
        assert "".join(kept) == GOLDEN.read_text()

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "resnet"])
