"""Tests for the CLI and JSON export."""

import json

import numpy as np
import pytest

from repro.__main__ import build_parser, main
from repro.analysis.export import export_json, run_result_dict
from repro.analysis.experiments import fig1b_sparsity_gap, table1_overhead
from repro.api import run_workload
from repro.errors import ConfigError
from repro.runner import RunSpec, execute_spec


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
        assert "Fig. 5" in target.read_text()

    def test_profile_command(self, tmp_path, capsys):
        target = tmp_path / "profile.json"
        argv = "profile --workloads gcn --mechanisms inorder,stream --scale 0.02"
        assert main(argv.split() + ["--repeat", "1", "--json", str(target)]) == 0
        out = capsys.readouterr().out
        assert "profile (scale=0.02, min of 1 repeat)" in out
        assert "memory breakdown" in out
        document = json.loads(target.read_text())
        assert document["format"] == 2
        records = document["records"]
        assert [r["mechanism"] for r in records] == ["inorder", "stream"]
        for record in records:
            stats = execute_spec(
                RunSpec("gcn", mechanism=record["mechanism"], scale=0.02)
            )["stats"]
            assert (
                record["nsb_hits"],
                record["l2_hits"],
                record["dram_fills"],
                record["pf_useful"],
                record["pf_late"],
            ) == (
                stats["nsb"]["demand_hits"],
                stats["l2"]["demand_hits"],
                stats["l2"]["demand_misses"],
                stats["prefetch"]["useful"],
                stats["prefetch"]["late"],
            )

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "resnet"])


class TestExport:
    def test_run_result_dict(self):
        result = run_workload("gcn", mechanism="nvr", scale=0.15, with_base=True)
        payload = run_result_dict(result)
        assert payload["mechanism"] == "nvr"
        assert payload["total_cycles"] > 0
        assert 0 <= payload["coverage"] <= 1
        json.dumps(payload)  # must be JSON-native

    def test_export_dataclass_tree(self):
        res = fig1b_sparsity_gap(ratios=(1, 4), scale=0.15)
        text = export_json(res)
        parsed = json.loads(text)
        assert parsed["ratios"] == [1, 4]

    def test_export_overhead_report(self):
        text = export_json(table1_overhead())
        parsed = json.loads(text)
        assert len(parsed["structures"]) == 5

    def test_export_to_file(self, tmp_path):
        result = run_workload("st", mechanism="inorder", scale=0.15)
        path = tmp_path / "out.json"
        export_json(result, path=str(path))
        assert json.loads(path.read_text())["program"] == "st"

    def test_numpy_values_converted(self):
        text = export_json({"a": np.int64(3), "b": np.float32(0.5), "c": np.arange(3)})
        parsed = json.loads(text)
        assert parsed == {"a": 3, "b": 0.5, "c": [0, 1, 2]}

    def test_unserialisable_rejected(self):
        with pytest.raises(ConfigError):
            export_json({"x": object()})
