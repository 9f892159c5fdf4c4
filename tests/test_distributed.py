"""The distributed sweep backend: plans on the wire, workers, merging.

The acceptance properties of the subsystem:

* plans round-trip through JSON for every registered mechanism, engine
  and workload, and corrupt wire files fail with ``ConfigError``;
* sharding is a pure function of (plan content, shard count);
* a sharded run — whether driven by hand through the ``plan``/``worker``
  CLIs or by ``--backend shards`` — produces payloads bit-identical to
  local execution, and merged results serve as ordinary cache hits;
* cache gc and worker-result merging serialise on the cache lock.
"""

import dataclasses
import json
import threading
import time

import pytest

from repro.__main__ import main as cli_main
from repro.analysis.experiments import (
    fig1b_plan,
    fig6c_data_movement,
    fig6c_plan,
    fig7_bandwidth_allocation,
    fig7_plan,
    table2_plan,
    table2_workloads,
)
from repro.analysis.paperfigs import figures_plan
from repro.errors import ConfigError
from repro.llm import calibration_plan, layer_miss_plan
from repro.registry import MECHANISMS
from repro.runner import (
    FileShardBackend,
    MemorySpec,
    NVRSpec,
    Plan,
    ResultCache,
    RunSpec,
    SweepRunner,
    expand,
    load_results,
    merge_results,
    run_shard,
    write_results,
)
from repro.sim.npu.executor import ENGINES, ExecutorConfig
from repro.workloads import WORKLOAD_ORDER

SCALE = 0.05


def small_plan() -> Plan:
    return Plan(specs=expand(["st", "ds"], ["inorder", "nvr"], scales=SCALE))


def as_dicts(results):
    return [dataclasses.asdict(r) for r in results]


def spec_for_mechanism(mechanism: str) -> RunSpec:
    """A spec exercising every override the mechanism accepts."""
    return RunSpec(
        "gcn",
        mechanism=mechanism,
        dtype="int8",
        scale=0.2,
        seed=3,
        memory=MemorySpec(l2_kib=128, nsb_kib=8),
        nvr=(
            NVRSpec(depth_tiles=4)
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


class TestSharding:
    def test_partition_is_disjoint_balanced_and_complete(self):
        plan = small_plan()
        shards = plan.shard(3)
        keys = [{s.key() for s in shard.specs} for shard in shards]
        assert sum(len(k) for k in keys) == len(plan.unique_specs())
        assert set().union(*keys) == {s.key() for s in plan.unique_specs()}
        sizes = sorted(len(k) for k in keys)
        assert sizes[-1] - sizes[0] <= 1

    def test_partition_depends_only_on_content(self):
        specs = small_plan().specs
        forward = Plan(specs=specs).shard(2)
        reversed_ = Plan(specs=list(reversed(specs)) * 2).shard(2)
        assert [
            [s.key() for s in shard.specs] for shard in forward
        ] == [[s.key() for s in shard.specs] for shard in reversed_]

    def test_more_shards_than_specs_leaves_empties(self):
        shards = Plan(specs=[RunSpec("st", scale=SCALE)]).shard(3)
        assert [len(s) for s in shards] == [1, 0, 0]

    def test_shard_meta_records_coordinates(self):
        shards = Plan(specs=small_plan().specs, meta={"source": "x"}).shard(2)
        assert shards[1].meta == {
            "source": "x",
            "shard": {"index": 1, "of": 2},
        }

    def test_zero_shards_rejected(self):
        with pytest.raises(ConfigError, match="shard count"):
            small_plan().shard(0)


class TestWorkerResults:
    def test_run_shard_returns_sorted_content_addressed_records(self):
        plan = Plan(specs=expand("st", ["inorder", "nvr"], scales=SCALE))
        records = run_shard(plan)
        assert len(records) == 2
        assert [r["key"] for r in records] == sorted(r["key"] for r in records)
        for record in records:
            assert RunSpec.from_dict(record["spec"]).key() == record["key"]
            assert record["payload"]["kind"] == "sim"

    def test_run_shard_deduplicates(self):
        spec = RunSpec("st", scale=SCALE)
        assert len(run_shard(Plan(specs=[spec, spec]))) == 1

    def test_write_load_round_trip(self, tmp_path):
        records = run_shard(Plan(specs=[RunSpec("st", scale=SCALE)]))
        path = write_results(tmp_path / "r.json", records)
        loaded = load_results(path)
        assert loaded == records
        # Loaded records stay pure wire data: rewriting them (e.g. to
        # combine result files) must reproduce the file byte for byte.
        rewritten = write_results(tmp_path / "r2.json", loaded)
        assert rewritten.read_bytes() == path.read_bytes()

    def test_write_results_maps_nonfinite_to_null(self, tmp_path):
        # Worker result files follow the same rule as `sweep --json`:
        # non-finite metrics become null, never bare NaN/Infinity
        # literals that a strict JSON parser rejects.
        records = [
            {"key": "k", "spec": {}, "payload": {"cv": float("nan")}},
        ]
        path = write_results(tmp_path / "r.json", records)
        text = path.read_text(encoding="utf-8")
        assert "NaN" not in text
        assert json.loads(text)["results"][0]["payload"]["cv"] is None

    def test_load_rejects_corrupt_file(self, tmp_path):
        path = tmp_path / "r.json"
        path.write_text("{oops")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_results(path)

    def test_load_rejects_wrong_format(self, tmp_path):
        path = tmp_path / "r.json"
        path.write_text(json.dumps({"format": 9, "results": []}))
        with pytest.raises(ConfigError, match="unsupported result format"):
            load_results(path)

    def test_load_rejects_key_spec_mismatch(self, tmp_path):
        records = run_shard(Plan(specs=[RunSpec("st", scale=SCALE)]))
        records[0] = dict(records[0], key="0" * 64)
        path = write_results(tmp_path / "r.json", records)
        with pytest.raises(ConfigError, match="does not match its spec"):
            load_results(path)

    def test_merge_turns_worker_results_into_cache_hits(self, tmp_path):
        plan = small_plan()
        paths = [
            write_results(tmp_path / f"r{i}.json", run_shard(shard))
            for i, shard in enumerate(plan.shard(2))
        ]
        cache = ResultCache(tmp_path / "cache")
        report = merge_results(paths, cache)
        assert report.files == 2
        assert report.merged == len(plan.unique_specs())
        assert report.refreshed == 0
        warm = SweepRunner(cache=ResultCache(tmp_path / "cache"))
        warm.run_plan(plan.specs)
        assert warm.submitted == 0
        # Re-merging refreshes rather than duplicating.
        again = merge_results(paths, ResultCache(tmp_path / "cache"))
        assert again.merged == 0
        assert again.refreshed == report.records

    def test_merge_aborts_whole_batch_on_one_corrupt_file(self, tmp_path):
        good = write_results(
            tmp_path / "good.json",
            run_shard(Plan(specs=[RunSpec("st", scale=SCALE)])),
        )
        bad = tmp_path / "bad.json"
        bad.write_text("nope")
        cache = ResultCache(tmp_path / "cache")
        with pytest.raises(ConfigError):
            merge_results([good, bad], cache)
        assert len(cache) == 0  # nothing half-applied


class TestLocalVsSharded:
    def test_file_shard_backend_matches_local(self, tmp_path):
        plan = small_plan()
        local = SweepRunner(cache=ResultCache(tmp_path / "a"))
        backend = FileShardBackend(shards=2, work_dir=tmp_path / "work")
        sharded = SweepRunner(cache=ResultCache(tmp_path / "b"), backend=backend)
        try:
            assert as_dicts(sharded.run_plan(plan.specs)) == as_dicts(
                local.run_plan(plan.specs)
            )
        finally:
            sharded.close()
        # The cached payload files are byte-identical across backends.
        files_a = sorted(p.name for p in ResultCache(tmp_path / "a").entries())
        files_b = sorted(p.name for p in ResultCache(tmp_path / "b").entries())
        assert files_a == files_b and files_a
        for name in files_a:
            pa = next((tmp_path / "a").glob(f"??/{name}"))
            pb = next((tmp_path / "b").glob(f"??/{name}"))
            assert pa.read_bytes() == pb.read_bytes()

    def test_cli_export_shard_work_merge_flow(self, tmp_path, capsys):
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
        shard_argv = ["plan", "shard", str(plan_path), "--shards", "2"]
        shard_argv += ["--out-dir", str(tmp_path / "shards")]
        assert cli_main(shard_argv) == 0
        result_paths = []
        for index in range(2):
            shard = tmp_path / "shards" / f"plan-shard-{index}-of-2.json"
            out = tmp_path / f"r{index}.json"
            worker_argv = ["worker", "run", str(shard), "--out", str(out)]
            assert cli_main(worker_argv) == 0
            result_paths.append(out)
        merge_argv = ["plan", "merge", *map(str, result_paths)]
        merge_argv += ["--cache-dir", str(tmp_path / "cache")]
        assert cli_main(merge_argv) == 0
        capsys.readouterr()
        # Warm sweep over the merged cache: zero simulations, and the
        # payload records equal a from-scratch local run bit for bit.
        merged_json = tmp_path / "merged.json"
        sweep_argv = ["sweep", "--spec", str(plan_path)]
        warm_argv = sweep_argv + ["--cache-dir", str(tmp_path / "cache")]
        assert cli_main(warm_argv + ["--json", str(merged_json)]) == 0
        assert "0 simulated" in capsys.readouterr().out
        local_json = tmp_path / "local.json"
        local_argv = sweep_argv + ["--backend", "local"]
        local_argv += ["--cache-dir", str(tmp_path / "cache2")]
        assert cli_main(local_argv + ["--json", str(local_json)]) == 0
        assert merged_json.read_bytes() == local_json.read_bytes()

    def test_sweep_backend_shards_flag(self, tmp_path, capsys):
        base = [
            "sweep",
            "--workloads",
            "st",
            "--mechanisms",
            "inorder,nvr",
            "--scales",
            str(SCALE),
        ]
        shards_argv = base + ["--backend", "shards", "--jobs", "2"]
        assert cli_main(shards_argv + ["--cache-dir", str(tmp_path / "a")]) == 0
        sharded = capsys.readouterr().out
        assert cli_main(base + ["--cache-dir", str(tmp_path / "b")]) == 0
        local = capsys.readouterr().out
        assert sharded == local

    def test_worker_cli_corrupt_shard_is_clean_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"format": 1, "specs": "nope"}')
        out = tmp_path / "out.json"
        rc = cli_main(["worker", "run", str(bad), "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith("error:")
        assert "Traceback" not in captured.err
        assert not out.exists()

    def test_merge_cli_corrupt_results_is_clean_error(self, tmp_path, capsys):
        bad = tmp_path / "r.json"
        bad.write_text("[]")
        rc = cli_main(["plan", "merge", str(bad), "--cache-dir", str(tmp_path)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith("error:")


class TestCacheLock:
    def test_lock_serialises_gc_against_merge(self, tmp_path):
        records = run_shard(Plan(specs=[RunSpec("st", scale=SCALE)]))
        results = write_results(tmp_path / "r.json", records)
        cache = ResultCache(tmp_path / "cache")
        events: list[str] = []

        def gc_thread():
            events.append("gc-start")
            ResultCache(tmp_path / "cache").gc(max_bytes=0)
            events.append("gc-done")

        with cache.lock():
            thread = threading.Thread(target=gc_thread)
            thread.start()
            # The gc pass must block on the lock we hold...
            time.sleep(0.3)
            assert events == ["gc-start"]
            # ...so the merge happening under the same lock cannot have
            # its fresh entries collected mid-flight.
            for record in load_results(results):
                cache.put(RunSpec.from_dict(record["spec"]), record["payload"])
        thread.join(timeout=10)
        assert events == ["gc-start", "gc-done"]
        # The gc (max_bytes=0) ran strictly after the merge and evicted
        # everything — but never interleaved: entries were either all
        # present or all gone, not half-merged.
        assert len(ResultCache(tmp_path / "cache")) == 0

    def test_merge_waits_for_held_lock(self, tmp_path):
        records = run_shard(Plan(specs=[RunSpec("st", scale=SCALE)]))
        results = write_results(tmp_path / "r.json", records)
        cache = ResultCache(tmp_path / "cache")
        done = threading.Event()

        def merge_thread():
            merge_results([results], ResultCache(tmp_path / "cache"))
            done.set()

        with cache.lock():
            thread = threading.Thread(target=merge_thread)
            thread.start()
            time.sleep(0.3)
            assert not done.is_set()
        thread.join(timeout=10)
        assert done.is_set()
        assert len(ResultCache(tmp_path / "cache")) == 1


class TestFiguresPlan:
    def test_deterministic_and_wire_clean(self):
        a = figures_plan(scale=0.1)
        b = figures_plan(scale=0.1)
        assert a.to_json() == b.to_json()
        assert a.meta["source"] == "figures"
        assert len(a.unique_specs()) > 100

    def test_covers_cheap_figure_runners(self, tmp_path):
        # Contract per figure: the plan builder emits exactly what the
        # runner submits. Checked on the cheap figures here; the full
        # generate_report coverage (every figure, zero warm submissions)
        # is pinned by the distributed-smoke CI job.
        scale = SCALE
        keys = {s.key() for s in figures_plan(scale=scale).specs}
        for plan_specs in (
            fig1b_plan(scale=scale),
            fig6c_plan(scale=scale),
            fig7_plan(scale=scale),
            table2_plan(scale=scale),
            layer_miss_plan(("inorder", "nvr"), scale=scale),
            calibration_plan("nvr", scale=scale),
        ):
            assert {s.key() for s in plan_specs} <= keys

    def test_figure_runner_submits_only_plan_specs(self, tmp_path):
        class RecordingRunner(SweepRunner):
            def __init__(self):
                super().__init__(cache=ResultCache(tmp_path))
                self.seen = []

            def run_plan(self, specs):
                self.seen.extend(specs)
                return super().run_plan(specs)

        for runner_fn, plan_fn in (
            (fig6c_data_movement, fig6c_plan),
            (fig7_bandwidth_allocation, fig7_plan),
            (table2_workloads, table2_plan),
        ):
            recorder = RecordingRunner()
            runner_fn(scale=SCALE, runner=recorder)
            assert [s.key() for s in recorder.seen] == [
                s.key() for s in plan_fn(scale=SCALE)
            ]
