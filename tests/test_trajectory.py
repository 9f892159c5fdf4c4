"""The trajectory gate over synthetic perfbench records (no perfbench run)."""

import copy
import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "benchmarks" / "trajectory.py"
_SPEC = importlib.util.spec_from_file_location("trajectory", _PATH)
trajectory = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(trajectory)


def perfbench_line(metrics: dict) -> dict:
    """A perfbench final JSON line; metrics map name -> (value, unit)."""
    named = {key: {"value": v, "unit": unit} for key, (v, unit) in metrics.items()}
    return {"correct": True, "attempted": 100, "failed": 0, "metrics": named}


def runs(wall_s: float = 5.0, npu_runs: int = 474, npu_self_s: float = 1.2) -> dict:
    return {
        "end_to_end": perfbench_line(
            {"figures.wall_s": (wall_s, "s"), "figures.peak_rss_mb": (90.0, "MiB")}
        ),
        "per_layer": perfbench_line(
            {
                "figures.sim.npu.runs": (npu_runs, "count"),
                "figures.sim.npu.self_s": (npu_self_s, "s"),
            }
        ),
    }


@pytest.fixture
def trajectory_file(tmp_path, monkeypatch):
    path = tmp_path / "BENCH_trajectory.json"
    monkeypatch.setattr(trajectory, "TRAJECTORY_PATH", path)
    return path


class TestGate:
    def test_equal_counts_pass(self):
        # Timings move between runs; only counts must repeat.
        assert trajectory.gate(runs(), runs(wall_s=6.1, npu_self_s=1.9)) == []

    def test_changed_count_fails_and_names_the_metric(self):
        failures = trajectory.gate(runs(), runs(npu_runs=475))
        assert failures == ["figures.sim.npu.runs = 475, recorded 474"]

    @pytest.mark.parametrize("field, value", [("correct", False), ("failed", 1)])
    def test_incorrect_or_failed_run_fails(self, field, value):
        measured = runs()
        measured["per_layer"][field] = value
        (failure,) = trajectory.gate(runs(), measured)
        assert failure.startswith("per_layer run:")

    def test_wall_time_above_bound_fails(self):
        # Bound: max(2x the record, the record + 5 s).
        assert trajectory.gate(runs(wall_s=5.0), runs(wall_s=10.0)) == []
        assert trajectory.gate(runs(wall_s=1.0), runs(wall_s=5.9)) == []
        (failure,) = trajectory.gate(runs(wall_s=5.0), runs(wall_s=10.5))
        assert failure.startswith("figures.wall_s = 10.5 s")


class TestCommands:
    def test_last_entry_without_perfbench_record_is_a_clean_error(
        self, trajectory_file, monkeypatch, capsys
    ):
        old = {"label": "old-figures-plan", "figures_wall_s": 5.4, "points": 279}
        trajectory_file.write_text(json.dumps({"format": 2, "entries": [old]}))

        def never(trace, seconds):
            raise AssertionError("perfbench ran before the record was read")

        monkeypatch.setattr(trajectory, "perfbench", never)
        assert trajectory.main(["check"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: the last entry (old-figures-plan)")
        assert len(err.splitlines()) == 1

    def test_append_then_check_round_trip(self, trajectory_file, monkeypatch):
        trajectory_file.write_text(json.dumps({"format": 2, "entries": []}))
        measured = runs()
        calls = []

        def fake(trace, seconds):
            calls.append((trace, seconds))
            key = "per_layer" if trace else "end_to_end"
            return copy.deepcopy(measured[key])

        monkeypatch.setattr(trajectory, "perfbench", fake)
        assert trajectory.main(["append", "--label", "x", "--note", "why"]) == 0
        (entry,) = json.loads(trajectory_file.read_text())["entries"]
        assert entry["perfbench"] == measured
        assert (entry["label"], entry["note"], entry["seed"]) == ("x", "why", 1)
        assert calls == [(0, entry["seconds"]), (1, entry["seconds"])]

        assert trajectory.main(["check"]) == 0
        assert calls[2:] == [(0, 1), (1, 1)]
        measured["per_layer"]["metrics"]["figures.sim.npu.runs"]["value"] = 1
        assert trajectory.main(["check"]) == 1
