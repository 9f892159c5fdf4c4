"""The Session/Grid/ResultSet front door (PR 4).

Acceptance properties:

* ``Grid`` expands deterministically, matches an explicit workload-major
  expansion and the explicit config-override spellings, and rejects
  ambiguous axis combinations;
* ``Session`` memoises single points and sweeps through one cache, and
  figure runners sharing a session's cache re-simulate nothing;
* ``run_workload``/``compare_mechanisms`` run through a session (the
  default one unless given), warm-hitting its cache;
* ``ResultSet`` selection (filter/one/pivot/speedup) and its exports
  (records/csv/markdown/json) round-trip.
"""

import csv
import io
import json

import pytest

from repro import (
    Grid,
    ResultSet,
    Session,
    compare_mechanisms,
    run_workload,
)
from repro.core import NVRConfig
from repro.core.nsb import nsb_config
from repro.errors import ConfigError
from repro.runner import Plan, RunSpec, shape_l2
from repro.session import (
    resolve_cache_dir,
    session_from_args,
    set_default_session,
)
from repro.sim.memory.hierarchy import MemoryConfig
from repro.sim.npu.executor import ExecutorConfig

SCALE = 0.05


@pytest.fixture
def scratch_session(tmp_path):
    with Session(cache_dir=tmp_path / "cache") as session:
        yield session


@pytest.fixture
def scratch_default(tmp_path):
    """Route the convenience API at a throwaway default session."""
    session = Session(cache_dir=tmp_path / "default-cache")
    previous = set_default_session(session)
    try:
        yield session
    finally:
        set_default_session(previous)
        session.close()


class TestGrid:
    def test_matches_expand(self):
        grid = Grid(
            workload=["ds", "st"],
            mechanism=["inorder", "nvr"],
            dtype="int8",
            nsb=[False, True],
            scale=[0.2, 0.4],
            seed=0,
        )
        specs = [
            RunSpec(w, mechanism=m, dtype="int8", nsb=n, scale=sc, seed=0)
            for w in ("ds", "st")
            for m in ("inorder", "nvr")
            for n in (False, True)
            for sc in (0.2, 0.4)
        ]
        assert [s.key() for s in grid.specs()] == [s.key() for s in specs]
        assert len(grid) == len(specs) == 16

    def test_expansion_is_deterministic(self):
        grid = lambda: Grid(  # noqa: E731
            workload=["gcn", "ds"], mechanism=["nvr", "inorder"], seed=[1, 0]
        )
        assert [s.key() for s in grid()] == [s.key() for s in grid()]

    def test_later_axes_vary_fastest(self):
        grid = Grid(workload=["ds", "st"], mechanism=["inorder", "nvr"])
        order = [(s.workload, s.mechanism) for s in grid]
        assert order == [
            ("ds", "inorder"),
            ("ds", "nvr"),
            ("st", "inorder"),
            ("st", "nvr"),
        ]

    def test_derived_axes_equal_explicit_overrides(self):
        derived = Grid(
            workload="ds",
            mechanism="nvr",
            nvr_depth=4,
            nsb_kib=8,
            l2_kib=128,
            issue_width=4,
        ).specs()
        explicit = [
            RunSpec(
                "ds",
                mechanism="nvr",
                nvr=NVRConfig(depth_tiles=4),
                memory=MemoryConfig(l2=shape_l2(128), nsb=nsb_config(size_kib=8)),
                executor=ExecutorConfig(issue_width=4),
            )
        ]
        assert [s.key() for s in derived] == [s.key() for s in explicit]

    def test_workload_arg_axes(self):
        grid = Grid(workload="ds", mechanism="stream", topk_ratio=[2, 4], drift=1.0)
        specs = grid.specs()
        assert len(specs) == 2
        assert specs[0].workload_args == (("drift", 1.0), ("topk_ratio", 2))
        assert specs[1].workload_args == (("drift", 1.0), ("topk_ratio", 4))

    def test_requires_workload(self):
        with pytest.raises(ConfigError, match="workload"):
            Grid(mechanism="nvr")

    def test_rejects_override_plus_derived_axis(self):
        with pytest.raises(ConfigError, match="l2_kib"):
            Grid(workload="ds", memory=MemoryConfig(l2=shape_l2(64)), l2_kib=[64, 128])
        with pytest.raises(ConfigError, match="nvr_depth"):
            Grid(workload="ds", nvr=NVRConfig(), nvr_depth=2)
        with pytest.raises(ConfigError, match="issue_width"):
            Grid(workload="ds", executor=ExecutorConfig(), issue_width=2)

    def test_rejects_empty_axis(self):
        with pytest.raises(ConfigError, match="no values"):
            Grid(workload="ds", mechanism=[])

    def test_plan_wire_round_trip(self):
        plan = Grid(workload=["st"], mechanism=["inorder", "nvr"], scale=SCALE).plan(
            note="test"
        )
        clone = Plan.from_json(plan.to_json())
        assert [s.key() for s in clone.specs] == [s.key() for s in plan.specs]
        assert clone.meta == {"source": "grid", "note": "test"}


class TestSession:
    def test_single_point_memoised(self, tmp_path):
        with Session(cache_dir=tmp_path) as session:
            first = session.run("st", mechanism="inorder", scale=SCALE)
            second = session.run("st", mechanism="inorder", scale=SCALE)
        assert session.submitted == 1
        assert session.cache_hits == 1
        assert first == second

    def test_run_accepts_spec_or_axes(self, scratch_session):
        spec = RunSpec("st", mechanism="inorder", scale=SCALE)
        by_spec = scratch_session.run(spec)
        by_axes = scratch_session.run("st", mechanism="inorder", scale=SCALE)
        assert by_spec == by_axes
        assert scratch_session.submitted == 1
        with pytest.raises(ConfigError, match="not both"):
            scratch_session.run(spec, mechanism="nvr")

    def test_point_cache_shared_with_sweeps(self, tmp_path):
        # The run_workload bugfix property at the Session level: a single
        # point warm-hits results a sweep simulated, and vice versa.
        with Session(cache_dir=tmp_path) as session:
            grid = Grid(workload="st", mechanism=["inorder", "nvr"], scale=SCALE)
            session.sweep(grid)
            assert session.submitted == 2
            session.run("st", mechanism="nvr", scale=SCALE)
            assert session.submitted == 2
            assert session.cache_hits == 1
        # A warm sweep pays only grid expansion, keying and cache reads.
        with Session(cache_dir=tmp_path) as warm:
            rs = warm.sweep(grid)
            assert warm.submitted == 0
            assert warm.cache_hits == len(grid)
        assert len(rs) == len(grid)
        assert all(r.total_cycles > 0 for r in rs.results)

    def test_sweep_returns_aligned_resultset(self, scratch_session):
        grid = Grid(workload="st", mechanism=["inorder", "nvr"], scale=SCALE)
        rs = scratch_session.sweep(grid)
        assert isinstance(rs, ResultSet)
        assert [s.mechanism for s in rs.specs] == ["inorder", "nvr"]
        assert rs.one(mechanism="nvr").total_cycles > 0

    def test_sessions_share_cache_across_figure_runners(self, tmp_path):
        from repro.analysis.paperfigs import FIGURES

        with Session(cache_dir=tmp_path / "shared") as first:
            FIGURES["fig6c"].run(scale=SCALE, session=first)
            FIGURES["fig7"].run(scale=SCALE, session=first)
            # fig7 reuses fig6c's nvr and nvr+nsb points.
            assert first.cache_hits >= 2
        with Session(cache_dir=tmp_path / "shared") as second:
            FIGURES["fig6c"].run(scale=SCALE, session=second)
            FIGURES["fig7"].run(scale=SCALE, session=second)
            assert second.submitted == 0  # fully warm

    def test_no_cache_session(self, tmp_path):
        with Session(cache=False) as session:
            session.run("st", mechanism="inorder", scale=SCALE)
            session.run("st", mechanism="inorder", scale=SCALE)
            assert session.submitted == 2
            assert session.cache is None

    def test_resolve_cache_dir_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envcache"))
        assert str(resolve_cache_dir()) == str(tmp_path / "envcache")
        assert resolve_cache_dir("explicit") == "explicit"
        with Session() as session:
            session.run("st", mechanism="inorder", scale=SCALE)
            assert (tmp_path / "envcache").is_dir()


class TestConvenienceShims:
    def test_run_workload_memoises(self, scratch_default):
        first = run_workload("st", mechanism="inorder", scale=SCALE)
        second = run_workload("st", mechanism="inorder", scale=SCALE)
        assert scratch_default.submitted == 1
        assert scratch_default.cache_hits == 1
        assert first == second

    def test_run_workload_point_warm_hits_sweep(self, scratch_default):
        compare_mechanisms("st", mechanisms=("inorder", "nvr"), scale=SCALE)
        assert scratch_default.submitted == 2
        run_workload("st", mechanism="nvr", scale=SCALE)
        assert scratch_default.submitted == 2
        assert scratch_default.cache_hits == 1

    def test_run_workload_rejects_non_scalar_workload_args(self, scratch_default):
        # Workload arguments are part of the point's content address, so
        # a value that cannot be plan content is rejected before any run.
        with pytest.raises(ConfigError, match="must be a scalar"):
            run_workload("ds", mechanism="inorder", scale=SCALE, topk_ratio=[2, 4])
        assert scratch_default.submitted == 0

    def test_compare_accepts_session(self, scratch_session):
        results = compare_mechanisms(
            "st", mechanisms=("inorder", "nvr"), scale=SCALE, session=scratch_session
        )
        assert set(results) == {"inorder", "nvr"}
        assert scratch_session.submitted == 2


class TestResultSet:
    @pytest.fixture(scope="class")
    def rs(self, tmp_path_factory):
        with Session(cache_dir=tmp_path_factory.mktemp("cache")) as session:
            return session.sweep(
                Grid(
                    workload=["st", "ds"],
                    mechanism=["inorder", "nvr"],
                    scale=SCALE,
                )
            )

    def test_filter_and_one(self, rs):
        assert len(rs.filter(mechanism="nvr")) == 2
        assert rs.one(workload="st", mechanism="nvr").total_cycles > 0
        with pytest.raises(ConfigError, match="found 2"):
            rs.one(mechanism="nvr")
        with pytest.raises(ConfigError, match="found 0"):
            rs.one(mechanism="dvr")

    def test_filter_by_derived_axis(self, tmp_path):
        with Session(cache_dir=tmp_path) as session:
            rs = session.sweep(
                Grid(workload="st", mechanism="nvr", nvr_depth=[1, 8], scale=SCALE)
            )
        assert rs.one(nvr_depth=1).total_cycles >= rs.one(nvr_depth=8).total_cycles

    def test_filter_by_cpu_traffic_axis(self, tmp_path):
        with Session(cache_dir=tmp_path) as session:
            rs = session.sweep(
                Grid(workload="st", mechanism="nvr", cpu_traffic=[False, True],
                     scale=SCALE)
            )
        assert len(rs.filter(cpu_traffic=True)) == 1
        noisy = rs.one(cpu_traffic=True)
        assert noisy.total_cycles >= rs.one(cpu_traffic=False).total_cycles
        # ...and the axis shows up as a record column since it varies.
        assert [r["cpu_traffic"] for r in rs.to_records()] == [False, True]

    def test_records_name_varying_derived_axes(self, tmp_path):
        # An ablation export must say which axis value each row is —
        # including the value that canonicalises to the default platform.
        with Session(cache_dir=tmp_path) as session:
            rs = session.sweep(
                Grid(workload="st", mechanism="nvr", nvr_depth=[1, 8], scale=SCALE)
            )
        assert [r["nvr_depth"] for r in rs.to_records()] == [1, 8]
        assert "nvr_depth" in rs.to_csv().splitlines()[0]
        # Axes that never leave the default platform stay out of the way.
        assert "l2_kib" not in rs.to_records()[0]

    def test_speedup_records_keep_derived_axes(self, tmp_path):
        with Session(cache_dir=tmp_path) as session:
            rs = session.sweep(
                Grid(workload="st", mechanism="nvr", nvr_depth=[1, 8], scale=SCALE)
            )
        records = rs.speedup_over(nvr_depth=1)
        assert len(records) == 1
        assert records[0]["nvr_depth"] == 8
        assert records[0]["speedup"] > 0

    def test_pivot(self, rs):
        pivot = rs.pivot(rows="workload", cols="mechanism", value="total_cycles")
        assert pivot.rows == ["st", "ds"]
        assert pivot.cols == ["inorder", "nvr"]
        assert pivot.cell("st", "nvr") == rs.one(
            workload="st", mechanism="nvr"
        ).total_cycles
        assert "workload\\mechanism" in pivot.to_markdown()

    def test_pivot_rejects_duplicate_cells(self, rs):
        with pytest.raises(ConfigError, match="not unique"):
            rs.pivot(rows="mechanism", cols="dtype")

    def test_speedup_over(self, rs):
        records = rs.speedup_over(mechanism="inorder")
        assert len(records) == 2  # one nvr point per workload
        for record in records:
            assert record["mechanism"] == "nvr"
            base = rs.one(workload=record["workload"], mechanism="inorder")
            ours = rs.one(workload=record["workload"], mechanism="nvr")
            assert record["speedup"] == pytest.approx(
                base.total_cycles / ours.total_cycles
            )

    def test_speedup_over_requires_baseline(self, rs):
        with pytest.raises(ConfigError, match="baseline axis"):
            rs.speedup_over()

    def test_speedup_over_zero_metric_is_config_error(self, rs):
        with pytest.raises(ConfigError, match="is 0 for"):
            rs.speedup_over(value=lambda result: 0, mechanism="inorder")

    def test_speedup_over_duplicate_baseline_is_config_error(self, rs):
        entries = list(rs)
        doubled = ResultSet(entries + [entries[0]])  # st/inorder twice
        with pytest.raises(ConfigError, match="more than one"):
            doubled.speedup_over(mechanism="inorder")

    def test_to_records(self, rs):
        records = rs.to_records()
        assert len(records) == 4
        assert records[0]["workload"] == "st"
        assert records[0]["total_cycles"] > 0
        assert 0 <= records[0]["coverage"] <= 1

    def test_csv_round_trip(self, rs):
        text = rs.to_csv()
        rows = list(csv.DictReader(io.StringIO(text)))
        assert len(rows) == len(rs)
        for row, record in zip(rows, rs.to_records()):
            for key, value in record.items():
                assert row[key] == ("" if value is None else str(value))

    def test_json_round_trip(self, rs, tmp_path):
        path = tmp_path / "rs.json"
        text = rs.to_json(path)
        assert json.loads(text) == rs.to_records()
        assert json.loads(path.read_text()) == rs.to_records()

    def test_csv_write_to_path(self, rs, tmp_path):
        path = tmp_path / "rs.csv"
        text = rs.to_csv(path)
        assert path.read_text() == text

    def test_markdown_contains_all_cells(self, rs):
        text = rs.to_markdown()
        lines = text.splitlines()
        assert len(lines) == 2 + len(rs)
        for record in rs.to_records():
            assert f"| {record['workload']} |" in text
            assert str(record["total_cycles"]) in text

    def test_to_json_maps_nonfinite_to_null(self):
        from repro.workloads.base import TraceStats

        stats = TraceStats(
            gather_elements=0,
            unique_slots=0,
            footprint_bytes=0,
            reuse_factor=float("nan"),
            mean_row_length=0.0,
            row_length_cv=float("inf"),
            locality_score=0.0,
        )
        rs = ResultSet([(RunSpec("st", kind="trace", scale=SCALE), stats)])
        text = rs.to_json()
        assert "NaN" not in text and "Infinity" not in text
        record = json.loads(text)[0]  # strict parse succeeds
        assert record["reuse_factor"] is None

    def test_trace_records(self, tmp_path):
        with Session(cache_dir=tmp_path) as session:
            rs = session.sweep(Grid(workload="st", kind="trace", scale=SCALE))
        record = rs.to_records()[0]
        assert record["kind"] == "trace"
        assert record["gather_elements"] > 0
        assert record["footprint_bytes"] > 0

    def test_slicing_returns_resultset(self, rs):
        assert isinstance(rs[:2], ResultSet)
        spec, result = rs[0]
        assert spec.workload == "st"
        assert result.total_cycles > 0


class TestCLISessionFlags:
    def test_shared_flags_on_every_executing_subcommand(self):
        from repro.__main__ import build_parser

        parser = build_parser()
        for argv in (
            ["run", "st", "--jobs", "3", "--cache-dir", "x"],
            ["compare", "st", "--jobs", "3", "--cache-dir", "x"],
            ["sweep", "--jobs", "3", "--cache-dir", "x"],
            ["ablate", "nvr-depth", "--jobs", "3", "--cache-dir", "x"],
            ["figures", "--jobs", "3", "--cache-dir", "x"],
        ):
            args = parser.parse_args(argv)
            assert args.jobs == 3
            assert args.cache_dir == "x"

    def test_unset_flags_fall_back_to_defaults(self):
        from repro.__main__ import build_parser

        args = build_parser().parse_args(["run", "st"])
        assert not hasattr(args, "jobs")  # SUPPRESS: factory fills defaults
        session = session_from_args(args)
        assert session.jobs == 1
        session.close()

    def test_cache_dir_survives_parent_then_subcommand(self):
        # The old argparse.SUPPRESS clobber workaround, now the uniform
        # convention: the flag binds at either nesting level.
        from repro.__main__ import build_parser

        parser = build_parser()
        before = parser.parse_args(["cache", "--cache-dir", "x", "gc", "--max-mb", "1"])
        after = parser.parse_args(["cache", "gc", "--max-mb", "1", "--cache-dir", "y"])
        assert before.cache_dir == "x"
        assert after.cache_dir == "y"

    def test_run_command_is_cached(self, tmp_path, capsys):
        from repro.__main__ import main

        argv = ["run", "st", "--scale", str(SCALE)]
        argv += ["--cache-dir", str(tmp_path / "c")]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert warm == cold
        from repro.runner import ResultCache

        assert len(ResultCache(tmp_path / "c")) == 1

    def test_sweep_json_uses_resultset_records(self, tmp_path, capsys):
        from repro.__main__ import main

        out = tmp_path / "sweep.json"
        argv = ["sweep", "--workloads", "st", "--mechanisms", "inorder,nvr"]
        argv += ["--scales", str(SCALE), "--cache-dir", str(tmp_path / "c")]
        argv += ["--json", str(out)]
        assert main(argv) == 0
        records = json.loads(out.read_text())
        assert [r["mechanism"] for r in records] == ["inorder", "nvr"]
        assert all("total_cycles" in r for r in records)


class TestSessionClose:
    def test_close_is_idempotent(self, tmp_path):
        session = Session(cache_dir=tmp_path)
        session.run("st", scale=SCALE)
        session.close()
        session.close()  # a second close is a no-op, not an error

    def test_close_before_first_use_is_safe(self, tmp_path):
        Session(cache_dir=tmp_path).close()

    def test_close_survives_a_failed_constructor(self):
        # __del__ fires even when __init__ raised before any attribute
        # was set; close() must not turn that into an AttributeError.
        with pytest.raises(TypeError):
            Session(runner=object())
        broken = Session.__new__(Session)
        broken.close()  # no _runner attribute at all
        del broken

    def test_del_closes_silently(self, tmp_path):
        # Interpreter-shutdown/atexit path: __del__ must swallow every
        # close-time error rather than spray "Exception ignored in".
        session = Session(cache_dir=tmp_path)
        session.run("st", scale=SCALE)

        def explode():
            raise RuntimeError("backend already torn down")

        session._runner.close = explode
        session.__del__()  # swallowed
        session._runner = None  # let the real del find nothing to do
