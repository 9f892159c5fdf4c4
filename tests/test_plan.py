"""Wire-format plans: the unit of work that leaves the process.

The acceptance properties of the plan format and its commands:

* plans round-trip through JSON for every registered mechanism, engine
  and workload, and corrupt wire files fail with ``ConfigError``;
* the figures plan is exactly what ``repro figures`` submits, sweep by
  sweep, so executing it warms a cache that the report reads 100% warm;
* machines that share nothing run a plan with ``plan export`` →
  ``sweep --spec``, and after a plain copy of that cache directory the
  submitter's payloads are bit-identical to a local run.
"""

import hashlib
import json
import shutil

import pytest

from repro.__main__ import main as cli_main
from repro.analysis.experiments import fig6c_plan, fig7_plan, table2_plan
from repro.analysis.paperfigs import FIGURES, figures_plan, generate_report
from repro.core import NVRConfig
from repro.core.nsb import nsb_config
from repro.errors import ConfigError
from repro.registry import MECHANISMS
from repro.runner import Plan, RunSpec, shape_l2
from repro.session import Grid, Session
from repro.sim.memory.hierarchy import MemoryConfig
from repro.sim.npu.executor import ENGINES, ExecutorConfig
from repro.workloads import WORKLOAD_ORDER

SCALE = 0.05


def small_plan() -> Plan:
    grid = Grid(workload=["st", "ds"], mechanism=["inorder", "nvr"], scale=SCALE)
    return Plan(specs=grid.specs())


def spec_for_mechanism(mechanism: str) -> RunSpec:
    """A spec exercising every override the mechanism accepts."""
    return RunSpec(
        "gcn",
        mechanism=mechanism,
        dtype="int8",
        scale=0.2,
        seed=3,
        memory=MemoryConfig(l2=shape_l2(128), nsb=nsb_config(size_kib=8)),
        nvr=(
            NVRConfig(depth_tiles=4)
            if MECHANISMS.get(mechanism).uses_nvr_config
            else None
        ),
        executor=ExecutorConfig(issue_width=4),
        workload_args=(("feature_dim", 32),),
    )


class TestPlanWireFormat:
    def test_round_trip_preserves_specs_and_meta(self):
        plan = Plan(specs=small_plan().specs, meta={"source": "test", "n": 1})
        clone = Plan.from_json(plan.to_json())
        assert [s.key() for s in clone.specs] == [s.key() for s in plan.specs]
        assert clone.meta == plan.meta

    @pytest.mark.parametrize("mechanism", sorted(MECHANISMS.names()))
    def test_round_trip_every_mechanism(self, mechanism):
        plan = Plan(specs=[spec_for_mechanism(mechanism)])
        clone = Plan.from_json(plan.to_json())
        assert clone.specs[0] == plan.specs[0]
        assert clone.specs[0].key() == plan.specs[0].key()

    def test_every_engine_reachable_from_some_mechanism(self):
        # The per-mechanism round trips above cover every engine iff the
        # registries stay in sync; pin that so a new engine grows a
        # mechanism (and thereby a wire-format test) with it.
        modes = {MECHANISMS.get(m).mode for m in MECHANISMS.names()}
        assert modes == set(ENGINES.names())

    @pytest.mark.parametrize("workload", WORKLOAD_ORDER)
    def test_round_trip_every_workload(self, workload):
        specs = [
            RunSpec(workload, scale=0.3, seed=1),
            RunSpec(workload, kind="trace", scale=0.3),
        ]
        clone = Plan.from_json(Plan(specs=specs).to_json())
        assert [s.key() for s in clone.specs] == [s.key() for s in specs]

    def test_rejects_bad_json(self):
        with pytest.raises(ConfigError, match="not valid JSON"):
            Plan.from_json("{truncated")

    def test_rejects_non_object(self):
        with pytest.raises(ConfigError, match="JSON object"):
            Plan.from_json("[1, 2]")

    def test_rejects_wrong_format_version(self):
        with pytest.raises(ConfigError, match="unsupported plan format"):
            Plan.from_dict({"format": 99, "specs": []})

    def test_rejects_unknown_fields(self):
        with pytest.raises(ConfigError, match="unknown plan field"):
            Plan.from_dict({"format": 1, "specs": [], "shards": 2})

    def test_rejects_malformed_spec_with_index(self):
        document = {
            "format": 1,
            "specs": [RunSpec("st").to_dict(), {"workload": "st", "bogus": 1}],
        }
        with pytest.raises(ConfigError, match="spec #1"):
            Plan.from_dict(document)

    def test_load_missing_file_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read plan file"):
            Plan.load(tmp_path / "nope.json")

    def test_save_load_round_trip(self, tmp_path):
        plan = small_plan()
        path = plan.save(tmp_path / "deep" / "plan.json")
        loaded = Plan.load(path)
        assert [s.key() for s in loaded.specs] == [s.key() for s in plan.specs]


class TestPlanCLI:
    def test_share_nothing_recipe_matches_local(self, tmp_path, capsys):
        # Two machines sharing no filesystem: the worker exports and runs
        # the plan into its own cache; the submitter copies that cache
        # directory into a cache of its own.
        plan_path = tmp_path / "plan.json"
        argv = [
            "plan",
            "export",
            "--workloads",
            "st",
            "--mechanisms",
            "inorder,nvr",
            "--scales",
            str(SCALE),
            "--out",
            str(plan_path),
        ]
        assert cli_main(argv) == 0
        sweep_argv = ["sweep", "--spec", str(plan_path)]
        worker_cache = ["--cache-dir", str(tmp_path / "a")]
        assert cli_main(sweep_argv + worker_cache) == 0
        shutil.copytree(tmp_path / "a", tmp_path / "b")
        submitter_cache = ["--cache-dir", str(tmp_path / "b")]
        capsys.readouterr()
        # Warm sweep over the copied cache: zero simulations, and the
        # payload records equal a from-scratch local run bit for bit.
        copied_json = tmp_path / "copied.json"
        warm_argv = sweep_argv + submitter_cache + ["--json", str(copied_json)]
        assert cli_main(warm_argv) == 0
        assert "0 simulated" in capsys.readouterr().out
        local_json = tmp_path / "local.json"
        local_argv = sweep_argv + ["--cache-dir", str(tmp_path / "c")]
        assert cli_main(local_argv + ["--json", str(local_json)]) == 0
        assert copied_json.read_bytes() == local_json.read_bytes()

    def test_sweep_corrupt_spec_is_clean_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"format": 1, "specs": "nope"}')
        out = tmp_path / "out.json"
        argv = ["sweep", "--spec", str(bad), "--json", str(out)]
        rc = cli_main(argv + ["--cache-dir", str(tmp_path / "c")])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith("error:")
        assert "Traceback" not in captured.err
        assert not out.exists()

    @pytest.mark.parametrize(
        "spec_d",
        [
            pytest.param({"workload": "ds", "scale": "x"}, id="scale"),
            # The retired shorthand layout: memory overrides travel as a
            # full MemoryConfig under "system", never as KiB fields.
            pytest.param(
                {"workload": "ds", "memory": {"l2_kib": 128}}, id="shorthand-memory"
            ),
        ],
    )
    def test_sweep_malformed_spec_value_is_clean_error(self, tmp_path, capsys, spec_d):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"format": 1, "specs": [spec_d]}))
        argv = ["sweep", "--spec", str(bad), "--cache-dir", str(tmp_path / "c")]
        rc = cli_main(argv)
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith("error:")
        assert "plan spec #0" in captured.err
        assert "Traceback" not in captured.err


class TestFiguresPlan:
    def test_deterministic_and_wire_clean(self):
        a = figures_plan(scale=0.1)
        b = figures_plan(scale=0.1)
        assert a.to_json() == b.to_json()
        assert a.meta["source"] == "figures"
        assert len(a.unique_specs()) > 100

    def test_report_sweeps_are_the_figures_plan(self):
        # The report submits exactly the figures plan, sweep by sweep and
        # in order. perfbench's figures workload shuffles this key
        # sequence by seed, so the sequence itself is pinned too. The
        # suite's shared cache holds most of these points.
        calls = []

        class RecordingSession(Session):
            def sweep(self, plan):
                calls.append(list(plan))
                return super().sweep(calls[-1])

        generate_report(scale=0.1, session=RecordingSession())
        assert [len(specs) for specs in calls] == [5, 192, 32, 3, 3, 2, 2, 2, 2, 28, 8]
        keys = [spec.key() for specs in calls for spec in specs]
        assert keys == [spec.key() for spec in figures_plan(scale=0.1).specs]
        assert hashlib.sha256("\n".join(keys).encode()).hexdigest() == (
            "6fb36cf12c0190afc6ce5a979ffede5dc3244bb5423110625fe7930d9c097e4b"
        )

    def test_figure_runner_submits_only_plan_specs(self, tmp_path):
        class RecordingSession(Session):
            def __init__(self):
                super().__init__(cache_dir=tmp_path)
                self.seen = []

            def sweep(self, plan):
                self.seen.extend(plan)
                return super().sweep(plan)

        for name, plan_fn in (
            ("fig6c", fig6c_plan),
            ("fig7", fig7_plan),
            ("table2", table2_plan),
        ):
            recorder = RecordingSession()
            FIGURES[name].run(scale=SCALE, session=recorder)
            assert [s.key() for s in recorder.seen] == [
                s.key() for specs in plan_fn(scale=SCALE) for s in specs
            ]
