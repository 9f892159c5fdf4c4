"""The sweep runner: plan expansion, cache, pool, CLI integration.

The acceptance properties of the subsystem:

* grids expand deterministically and specs content-address stably;
* the cache turns repeated runs into zero executor submissions;
* changing the code-version salt invalidates every entry;
* results are bit-identical for every ``--jobs`` setting.
"""

import dataclasses
import io
import json
import os
import shutil
import time
from pathlib import Path

import pytest

from repro.__main__ import main as cli_main
from repro.api import compare_mechanisms, run_workload
from repro.core import NVRConfig
from repro.core.nsb import nsb_config
from repro.errors import ConfigError, SimulationError
from repro.runner import (
    Progress,
    ResultCache,
    RunSpec,
    SweepRunner,
    execute_spec,
    payload_to_result,
    result_to_payload,
    shape_l2,
    trace_to_payload,
)
from repro.session import Grid, Session
from repro.sim.memory.hierarchy import MemoryConfig
from repro.workloads.base import TraceStats

SCALE = 0.05


def small_plan():
    grid = Grid(workload=["ds", "st"], mechanism=["inorder", "nvr"], scale=SCALE)
    return grid.specs()


def as_dicts(results):
    return [dataclasses.asdict(r) for r in results]


class TestPlan:
    def test_expand_cartesian_order(self):
        specs = Grid(
            workload=["ds", "st"],
            mechanism=["inorder", "nvr"],
            dtype=["int8", "fp16"],
            scale=[0.1, 0.2],
            seed=[0, 1],
        ).specs()
        assert len(specs) == 2 * 2 * 2 * 2 * 2
        # Workload-major order, matching the figures' bar order.
        assert [s.workload for s in specs[:16]] == ["ds"] * 16
        assert specs[0].mechanism == "inorder"
        assert specs[0].dtype == "int8"
        assert [s.seed for s in specs[:2]] == [0, 1]

    def test_expand_scalar_axes(self):
        specs = Grid(workload="gcn", mechanism="nvr", scale=0.3).specs()
        assert len(specs) == 1
        assert specs[0] == RunSpec("gcn", "nvr", scale=0.3)

    def test_key_stable_under_workload_arg_order(self):
        a = RunSpec("ds", workload_args=(("drift", 1.0), ("topk_ratio", 4)))
        b = RunSpec("ds", workload_args=(("topk_ratio", 4), ("drift", 1.0)))
        assert a == b
        assert a.key() == b.key()

    def test_key_distinguishes_every_axis(self):
        from repro.sim.npu.executor import ExecutorConfig

        base = RunSpec("ds")
        variants = [
            RunSpec("st"),
            RunSpec("ds", mechanism="imp"),
            RunSpec("ds", dtype="int8"),
            RunSpec("ds", nsb=True),
            RunSpec("ds", scale=0.5),
            RunSpec("ds", seed=1),
            RunSpec("ds", with_base=True),
            RunSpec("ds", memory=MemoryConfig(l2=shape_l2(128))),
            RunSpec("ds", memory=MemoryConfig().with_cpu_traffic()),
            RunSpec("ds", nvr=NVRConfig(depth_tiles=4)),
            RunSpec("ds", nvr=NVRConfig(depth_tiles=2)),
            RunSpec("ds", executor=ExecutorConfig(issue_width=4)),
            RunSpec("ds", workload_args=(("topk_ratio", 4),)),
            RunSpec("ds", kind="trace"),
        ]
        keys = {base.key()} | {v.key() for v in variants}
        assert len(keys) == len(variants) + 1

    def test_round_trip_through_dict(self):
        spec = RunSpec(
            "gcn",
            mechanism="nvr",
            scale=0.2,
            seed=3,
            memory=MemoryConfig(l2=shape_l2(128), nsb=nsb_config(size_kib=8)),
            nvr=NVRConfig(depth_tiles=4),
            workload_args=(("topk_ratio", 4),),
        )
        clone = RunSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert clone == spec
        assert clone.key() == spec.key()

    def test_convenience_args_fold_into_system(self):
        # Shorthand overrides and an explicit SystemSpec describing the
        # same platform are the *same point*: equal, same content key.
        from repro.spec import SystemSpec

        shorthand = RunSpec("ds", mechanism="nvr", nsb=True, scale=0.2)
        explicit = RunSpec(
            "ds",
            scale=0.2,
            system=SystemSpec(mechanism="nvr", nsb=True),
        )
        assert shorthand == explicit
        assert shorthand.key() == explicit.key()
        assert explicit.mechanism == "nvr" and explicit.nsb is True

    def test_system_plus_overrides_rejected(self):
        from repro.errors import ConfigError
        from repro.spec import SystemSpec

        with pytest.raises(ConfigError, match="not both"):
            RunSpec("ds", system=SystemSpec(), memory=MemoryConfig(l2=shape_l2(128)))

    def test_system_plus_conflicting_scalars_rejected(self):
        from repro.errors import ConfigError
        from repro.spec import SystemSpec

        with pytest.raises(ConfigError, match="conflicts with"):
            RunSpec("ds", mechanism="inorder", system=SystemSpec())
        with pytest.raises(ConfigError, match="conflicts with"):
            # Explicit 'nvr' conflicting with the system is caught too
            # (the default is None, not 'nvr', exactly so this cannot
            # be silently resolved).
            RunSpec("ds", mechanism="nvr", system=SystemSpec(mechanism="imp"))
        with pytest.raises(ConfigError, match="conflicts with"):
            RunSpec("ds", nsb=True, system=SystemSpec(mechanism="nvr"))
        # Consistent repetition stays fine.
        spec = RunSpec("ds", mechanism="imp", system=SystemSpec(mechanism="imp"))
        assert spec.mechanism == "imp"

    def test_specs_are_hashable_with_object_overrides(self):
        from repro.sim.memory.hierarchy import MemoryConfig

        a = RunSpec("ds", memory=MemoryConfig().with_nsb(True))
        b = RunSpec("ds", memory=MemoryConfig().with_nsb(True))
        c = RunSpec("ds")
        assert hash(a) == hash(b)
        assert a.system is not None and hash(a.system) == hash(b.system)
        assert {a, b, c} == {a, c}  # set dedupe mirrors key() dedupe

    def test_rejects_non_scalar_workload_args(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            RunSpec("ds", workload_args=(("ratios", (1, 2)),))

    def test_rejects_unknown_dtype_at_plan_build(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="fp32"):
            RunSpec("ds", dtype="fp32")
        with pytest.raises(ConfigError, match="fp32"):
            compare_mechanisms("ds", mechanisms=("nvr",), dtype="fp32")

    def test_numeric_types_normalised_in_key(self):
        assert RunSpec("ds", scale=1).key() == RunSpec("ds", scale=1.0).key()
        assert RunSpec("ds", seed=0).key() == RunSpec("ds", seed=False).key()
        assert RunSpec("ds", nsb=1).key() == RunSpec("ds", nsb=True).key()
        assert RunSpec("ds", with_base=1).key() == RunSpec("ds", with_base=True).key()

    def test_cache_entry_with_non_object_json_is_a_miss(self, tmp_path):
        from repro.runner import ResultCache

        cache = ResultCache(tmp_path)
        spec = RunSpec("st", scale=SCALE)
        path = cache.put(spec, {"x": 1})
        path.write_text("null", encoding="utf-8")
        assert cache.get(spec) is None

    def test_memory_spec_builds_shaped_hierarchy(self):
        memory = MemoryConfig(l2=shape_l2(128), nsb=nsb_config(size_kib=8))
        assert memory.l2.size_bytes == 128 * 1024
        assert memory.nsb is not None
        assert memory.nsb.size_bytes == 8 * 1024


class TestPayloads:
    def test_run_result_round_trip(self):
        result = run_workload("st", mechanism="nvr", scale=SCALE, with_base=True)
        clone = payload_to_result(json.loads(json.dumps(result_to_payload(result))))
        assert dataclasses.asdict(clone) == dataclasses.asdict(result)
        assert clone.stall_cycles == result.stall_cycles
        assert clone.stats.coverage() == result.stats.coverage()

    def test_trace_spec_executes(self):
        payload = execute_spec(RunSpec("gcn", kind="trace", scale=0.1))
        stats = TraceStats(**payload["trace"])
        assert stats.gather_elements > 0
        assert stats.reuse_factor >= 1.0

    def test_payload_construction_normalises_nonfinite(self):
        # Normalised at construction, not just serialisation: the
        # in-memory payload a cold run keeps and the JSON a warm run
        # reads back must materialise identically.
        stats = TraceStats(
            gather_elements=0,
            unique_slots=0,
            footprint_bytes=0,
            reuse_factor=float("nan"),
            mean_row_length=0.0,
            row_length_cv=float("inf"),
            locality_score=0.0,
        )
        payload = trace_to_payload(stats)
        assert payload["trace"]["reuse_factor"] is None
        assert payload["trace"]["row_length_cv"] is None


class TestCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = RunSpec("st", scale=SCALE)
        assert cache.get(spec) is None
        cache.put(spec, {"kind": "sim", "x": 1})
        assert cache.get(spec) == {"kind": "sim", "x": 1}
        assert (cache.hits, cache.misses, cache.writes) == (1, 1, 1)
        assert len(cache) == 1

    def test_default_salt_embeds_code_fingerprint(self, tmp_path):
        from repro.runner.cache import CACHE_SALT, code_fingerprint

        fp = code_fingerprint()
        assert fp == code_fingerprint()  # memoised, stable
        cache = ResultCache(tmp_path)
        assert cache.salt == f"{CACHE_SALT}:{fp}"
        # Default-salt caches interoperate within one code version.
        spec = RunSpec("st", scale=SCALE)
        cache.put(spec, {"x": 1})
        assert ResultCache(tmp_path).get(spec) == {"x": 1}

    def test_fingerprint_covers_the_kernel_c_source(self, tmp_path):
        """An edit to the compiled kernels' C source changes the salt."""
        import repro
        from repro.runner.cache import code_fingerprint, source_fingerprint

        package = Path(repro.__file__).resolve().parent
        tree = tmp_path / "repro"
        shutil.copytree(package, tree, ignore=shutil.ignore_patterns("__pycache__"))
        assert source_fingerprint(tree) == code_fingerprint()
        source = tree / "sim" / "memory" / "_kernels.c"
        data = bytearray(source.read_bytes())
        data[len(data) // 2] ^= 1
        source.write_bytes(bytes(data))
        assert source_fingerprint(tree) != code_fingerprint()

    def test_salt_change_invalidates(self, tmp_path):
        spec = RunSpec("st", scale=SCALE)
        ResultCache(tmp_path, salt="v1").put(spec, {"x": 1})
        assert ResultCache(tmp_path, salt="v2").get(spec) is None
        assert ResultCache(tmp_path, salt="v1").get(spec) == {"x": 1}

    def test_corrupt_entry_degrades_to_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = RunSpec("st", scale=SCALE)
        path = cache.put(spec, {"x": 1})
        path.write_text("{truncated", encoding="utf-8")
        assert cache.get(spec) is None
        cache.put(spec, {"x": 2})
        assert cache.get(spec) == {"x": 2}

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(RunSpec("st"), {"x": 1})
        cache.put(RunSpec("ds"), {"x": 2})
        assert cache.clear() == 2
        assert len(cache) == 0

    def test_clear_sweeps_orphaned_tmp_files(self, tmp_path):
        from repro.runner.cache import TMP_ORPHAN_AGE_S

        cache = ResultCache(tmp_path)
        path = cache.put(RunSpec("st"), {"x": 1})
        orphan = path.parent / "deadbeef0123.tmp"
        orphan.write_text("partial", encoding="utf-8")
        # A killed writer's orphan, as old as the sweep requires.
        past = time.time() - TMP_ORPHAN_AGE_S - 1
        os.utime(orphan, (past, past))
        cache.clear()
        assert not orphan.exists()

    def test_entry_at_wrong_path_is_miss(self, tmp_path):
        # A worker file hand-merged at the wrong path must not be served
        # for the spec that happens to hash there: neither for another
        # workload nor for a spec that differs only inside `system`.
        cache = ResultCache(tmp_path)
        spec_a = RunSpec("st", scale=SCALE)
        path_a = cache.put(spec_a, {"x": 1})
        for spec_b in (
            RunSpec("ds", scale=SCALE),
            RunSpec("st", scale=SCALE, nsb=True),
        ):
            target = cache.path_for(spec_b)
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy(path_a, target)
            assert cache.get(spec_b) is None
        assert cache.get(spec_a) == {"x": 1}

    def test_mutating_to_dict_leaves_the_entry_a_hit(self, tmp_path):
        # get() compares entries with the dict the spec keeps privately;
        # the dict to_dict() returns is the caller's own.
        cache = ResultCache(tmp_path)
        spec = RunSpec("st", scale=SCALE, nsb=True)
        cache.put(spec, {"x": 1})
        exported = spec.to_dict()
        exported["workload"] = "ds"
        exported["system"]["mechanism"] = "inorder"
        exported["system"]["memory"] = None
        assert cache.get(spec) == {"x": 1}
        assert spec.to_dict() != exported

    def test_entry_with_foreign_salt_is_miss(self, tmp_path):
        # An entry carried over from a different code version (its salt
        # field disagrees) degrades to a miss even at the right path.
        cache = ResultCache(tmp_path, salt="v1")
        spec = RunSpec("st", scale=SCALE)
        path = cache.put(spec, {"x": 1})
        entry = json.loads(path.read_text(encoding="utf-8"))
        entry["salt"] = "v0"
        path.write_text(json.dumps(entry), encoding="utf-8")
        assert cache.get(spec) is None

    def test_nonfinite_payload_values_stored_as_null(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = RunSpec("st", scale=SCALE)
        path = cache.put(spec, {"kind": "sim", "cv": float("nan")})
        assert "NaN" not in path.read_text(encoding="utf-8")
        assert cache.get(spec) == {"kind": "sim", "cv": None}


class TestCacheGC:
    def _fill(self, tmp_path, n=4):
        cache = ResultCache(tmp_path)
        workloads = ("st", "ds", "gcn", "gat")[:n]
        paths = {}
        for i, w in enumerate(workloads):
            spec = RunSpec(w, scale=SCALE)
            paths[w] = cache.put(spec, {"kind": "sim", "pad": "x" * 200})
            # Distinct, strictly increasing access times: st oldest.
            os.utime(paths[w], (1_000_000 + i, 1_000_000 + i))
        return cache, paths

    def test_gc_evicts_least_recently_accessed_first(self, tmp_path):
        cache, paths = self._fill(tmp_path)
        total = cache.size_bytes()
        oldest_two = paths["st"].stat().st_size + paths["ds"].stat().st_size
        report = cache.gc(max_bytes=total - oldest_two)
        assert report.removed == 2
        assert not paths["st"].exists() and not paths["ds"].exists()
        assert paths["gcn"].exists() and paths["gat"].exists()
        assert report.kept == 2
        assert report.kept_bytes == total - oldest_two

    def test_gc_hit_refreshes_recency(self, tmp_path):
        cache, paths = self._fill(tmp_path)
        # A cache hit touches the entry, so the oldest-by-write survives.
        assert cache.get(RunSpec("st", scale=SCALE)) is not None
        evict_two = cache.size_bytes() - (
            paths["gat"].stat().st_size + paths["st"].stat().st_size
        )
        cache.gc(max_bytes=evict_two)
        assert paths["st"].exists()
        assert not paths["ds"].exists()

    def test_gc_dry_run_deletes_nothing(self, tmp_path):
        cache, paths = self._fill(tmp_path)
        report = cache.gc(max_bytes=0, dry_run=True)
        assert report.removed == report.examined == 4
        assert report.dry_run
        assert all(p.exists() for p in paths.values())
        assert len(cache) == 4

    def test_gc_noop_when_under_bound(self, tmp_path):
        cache, paths = self._fill(tmp_path)
        report = cache.gc(max_bytes=10 * 1024 * 1024)
        assert report.removed == 0
        assert report.freed_bytes == 0
        assert len(cache) == 4


class FailingBackend:
    """Yields ``fail_after`` real results, then dies mid-plan."""

    jobs = 1

    def __init__(self, fail_after: int = 1) -> None:
        self.fail_after = fail_after

    def run(self, pending):
        for i, (key, spec) in enumerate(pending):
            if i >= self.fail_after:
                raise SimulationError("backend died mid-plan")
            yield key, spec, execute_spec(spec)

    def close(self) -> None:
        pass


class RecordingProgress:
    def __init__(self) -> None:
        self.events = []

    def plan_started(self, total, unique, cached):
        self.events.append("started")

    def point_done(self, label, source, done, total):
        self.events.append(f"point:{done}")

    def plan_finished(self, submitted, hits, elapsed):
        self.events.append("finished")

    def plan_failed(self, done, total, elapsed):
        self.events.append(f"failed:{done}/{total}")


class TestPlanFailure:
    def test_partial_counts_recorded_and_streamed_results_cached(self, tmp_path):
        plan = small_plan()  # 4 unique points
        cache = ResultCache(tmp_path)
        runner = SweepRunner(cache=cache, backend=FailingBackend(fail_after=2))
        with pytest.raises(SimulationError, match="mid-plan"):
            runner.run_plan(plan)
        assert runner.submitted == 2
        assert runner.last_report is not None
        assert runner.last_report.submitted == 2
        assert runner.last_report.unique == 4
        assert len(cache) == 2
        # The streamed results are ordinary cache entries: a retry of
        # the same plan resumes warm.
        retry = SweepRunner(cache=ResultCache(tmp_path))
        retry.run_plan(plan)
        assert retry.cache_hits == 2
        assert retry.submitted == 2

    def test_observer_gets_plan_failed_not_finished(self):
        progress = RecordingProgress()
        runner = SweepRunner(backend=FailingBackend(fail_after=1), progress=progress)
        with pytest.raises(SimulationError):
            runner.run_plan(small_plan())
        assert progress.events[0] == "started"
        assert progress.events[-1] == "failed:1/4"
        assert "finished" not in progress.events

    def test_legacy_observer_without_plan_failed_keeps_real_error(self):
        # A custom observer written against the pre-plan_failed protocol
        # must not turn the backend's failure into an AttributeError.
        class LegacyProgress:
            def plan_started(self, total, unique, cached):
                pass

            def point_done(self, label, source, done, total):
                pass

            def plan_finished(self, submitted, hits, elapsed):
                pass

        runner = SweepRunner(
            backend=FailingBackend(fail_after=0), progress=LegacyProgress()
        )
        with pytest.raises(SimulationError, match="mid-plan"):
            runner.run_plan(small_plan())

    def test_progress_plan_failed_clears_live_line(self):
        buffer = io.StringIO()
        progress = Progress(stream=buffer, live=True)
        progress.plan_started(2, 2, 0)
        progress.point_done("st/nvr", "run", 1, 2)
        progress.plan_failed(1, 2, 0.5)
        text = buffer.getvalue()
        # The live \r line is cleared before the failure summary, so a
        # traceback printed next never glues onto the point trail.
        assert text.split("\r")[-1] == "plan failed: 1/2 points done, 0.5s\n"


class TestSweepRunner:
    def test_dedupes_within_plan(self):
        runner = SweepRunner()
        spec = RunSpec("st", scale=SCALE)
        results = runner.run_plan([spec, spec, spec])
        assert runner.submitted == 1
        assert runner.last_report.total == 3
        assert runner.last_report.unique == 1
        assert len({r.total_cycles for r in results}) == 1

    def test_warm_cache_zero_submissions(self, tmp_path):
        plan = small_plan()
        cold = SweepRunner(cache=ResultCache(tmp_path))
        cold_results = cold.run_plan(plan)
        assert cold.submitted == len(plan)
        assert all(r.total_cycles > 0 for r in cold_results)

        warm = SweepRunner(cache=ResultCache(tmp_path))
        warm_results = warm.run_plan(plan)
        assert warm.submitted == 0
        assert warm.cache_hits == len(plan)
        assert as_dicts(warm_results) == as_dicts(cold_results)

    def test_parallel_equals_serial(self, tmp_path):
        plan = small_plan()
        serial = SweepRunner(jobs=1).run_plan(plan)
        with SweepRunner(jobs=2) as parallel_runner:
            parallel = parallel_runner.run_plan(plan)
        assert as_dicts(parallel) == as_dicts(serial)

    def test_worker_pool_persists_across_plans(self):
        with SweepRunner(jobs=2) as runner:
            runner.run_plan(small_plan())
            pool = runner.backend._executor
            assert pool is not None
            runner.run_plan([RunSpec("gcn", scale=SCALE), RunSpec("gat", scale=SCALE)])
            assert runner.backend._executor is pool
        assert runner.backend._executor is None  # close() tore it down

    def test_deterministic_across_jobs_with_cache(self, tmp_path):
        plan = small_plan()
        a = SweepRunner(jobs=2, cache=ResultCache(tmp_path / "a"))
        b = SweepRunner(jobs=3, cache=ResultCache(tmp_path / "b"))
        assert as_dicts(a.run_plan(plan)) == as_dicts(b.run_plan(plan))
        # And the cached payload files are byte-identical too.
        files_a = sorted(p.name for p in ResultCache(tmp_path / "a").entries())
        files_b = sorted(p.name for p in ResultCache(tmp_path / "b").entries())
        assert files_a == files_b
        for name in files_a:
            pa = next(ResultCache(tmp_path / "a").root.glob(f"??/{name}"))
            pb = next(ResultCache(tmp_path / "b").root.glob(f"??/{name}"))
            assert pa.read_bytes() == pb.read_bytes()

    def test_runner_matches_direct_api(self):
        spec = RunSpec("st", mechanism="nvr", scale=SCALE, with_base=True)
        via_runner = SweepRunner().run(spec)
        direct = run_workload("st", mechanism="nvr", scale=SCALE, with_base=True)
        assert dataclasses.asdict(via_runner) == dataclasses.asdict(direct)

    def test_trace_plan(self, tmp_path):
        runner = SweepRunner(cache=ResultCache(tmp_path))
        specs = [RunSpec(w, kind="trace", scale=0.1) for w in ("ds", "st")]
        first = runner.run_plan(specs)
        assert all(isinstance(t, TraceStats) for t in first)
        warm = SweepRunner(cache=ResultCache(tmp_path))
        assert as_dicts(warm.run_plan(specs)) == as_dicts(first)
        assert warm.submitted == 0


class TestCompareMechanisms:
    def test_routes_through_runner(self, tmp_path):
        session = Session(cache_dir=tmp_path)
        table = compare_mechanisms(
            "st", mechanisms=("inorder", "nvr"), session=session, scale=SCALE
        )
        assert set(table) == {"inorder", "nvr"}
        assert session.submitted == 2
        # Default-session call gives identical results.
        direct = compare_mechanisms("st", mechanisms=("inorder", "nvr"), scale=SCALE)
        assert as_dicts(table.values()) == as_dicts(direct.values())

    def test_object_overrides_route_through_runner(self, tmp_path):
        # The acceptance property of the SystemSpec layer: memory= and
        # nvr_config= overrides are plan content, not a serial fallback —
        # a warm rerun is served entirely from the cache.
        kwargs = dict(
            mechanisms=("inorder", "nvr"),
            scale=SCALE,
            memory=MemoryConfig().with_nsb(True),
            nvr_config=NVRConfig(depth_tiles=2),
        )
        cold = Session(cache_dir=tmp_path)
        table = compare_mechanisms("gcn", session=cold, **kwargs)
        assert cold.submitted == 2
        assert table["inorder"].stats.nsb.demand_accesses > 0

        warm = Session(cache_dir=tmp_path)
        rerun = compare_mechanisms("gcn", session=warm, **kwargs)
        assert warm.submitted == 0
        assert warm.cache_hits == 2
        assert as_dicts(rerun.values()) == as_dicts(table.values())

    def test_nvr_config_with_no_nvr_mechanism_rejected(self):
        # If *no* compared mechanism uses the config, the sweep would
        # silently ignore it — that is an error, mirroring run_workload.
        with pytest.raises(ConfigError, match="none of the compared"):
            compare_mechanisms(
                "st",
                mechanisms=("inorder", "stream"),
                scale=SCALE,
                nvr_config=NVRConfig(depth_tiles=16),
            )

    def test_nvr_config_applies_only_to_nvr_family(self):
        # nvr_config= alongside baseline mechanisms tunes only the
        # mechanisms that declare uses_nvr_config; the baselines' points
        # stay identical to an untuned run (same cache identity).
        session = Session(cache=False)
        tuned = compare_mechanisms(
            "st",
            mechanisms=("inorder", "nvr"),
            session=session,
            scale=SCALE,
            nvr_config=NVRConfig(depth_tiles=2),
        )
        plain = compare_mechanisms(
            "st", mechanisms=("inorder",), session=session, scale=SCALE
        )
        assert tuned["inorder"].total_cycles == plain["inorder"].total_cycles
        assert tuned["nvr"].total_cycles > 0

    def test_workload_kwargs_stay_cacheable(self, tmp_path):
        compare_mechanisms(
            "ds",
            mechanisms=("stream",),
            session=Session(cache_dir=tmp_path),
            scale=SCALE,
            topk_ratio=4,
        )
        warm = Session(cache_dir=tmp_path)
        compare_mechanisms(
            "ds",
            mechanisms=("stream",),
            session=warm,
            scale=SCALE,
            topk_ratio=4,
        )
        assert warm.submitted == 0


class TestFigureRunners:
    def test_fig5_shares_plan_and_caches(self, tmp_path):
        from repro.analysis.paperfigs import FIGURES

        cold = Session(cache_dir=tmp_path)
        res = FIGURES["fig5"].run(
            workloads=("st",), panels=("fp16",), scale=SCALE, session=cold
        )
        assert cold.submitted == 6
        warm = Session(cache_dir=tmp_path)
        res2 = FIGURES["fig5"].run(
            workloads=("st",), panels=("fp16",), scale=SCALE, session=warm
        )
        assert warm.submitted == 0
        assert res2.panels == res.panels

    def test_fig9_memory_override_grid(self, tmp_path):
        from repro.analysis.paperfigs import FIGURES

        session = Session(cache_dir=tmp_path)
        res = FIGURES["fig9"].run(
            nsb_sizes=(4, 16), l2_sizes=(64, 256), scale=0.1, session=session
        )
        assert session.submitted == 4
        assert res.cell(16, 256) > 0


def _seed_cache(cache_dir, workloads="st"):
    """Populate ``cache_dir`` with a tiny single-mechanism sweep."""
    argv = ["sweep", "--workloads", workloads, "--mechanisms", "inorder"]
    cli_main(argv + ["--scales", str(SCALE), "--cache-dir", str(cache_dir)])


class TestCLI:
    def test_sweep_command(self, tmp_path, capsys):
        argv = ["sweep", "--workloads", "st", "--mechanisms", "inorder,nvr"]
        argv += ["--scales", str(SCALE), "--cache-dir", str(tmp_path / "c")]
        rc = cli_main(argv + ["--json", str(tmp_path / "sweep.json")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "2 points" in out
        records = json.loads((tmp_path / "sweep.json").read_text())
        assert len(records) == 2
        # ResultSet record format: flat axis columns + metrics.
        assert records[0]["workload"] == "st"
        assert records[0]["mechanism"] == "inorder"
        assert records[0]["total_cycles"] > 0

    def test_sweep_rejects_unknown_axis_value(self, capsys):
        # A malformed axis value is user input: exit 2, one error line.
        for argv in (
            ["sweep", "--workloads", "nope"],
            ["sweep", "--workloads", "foo"],
            ["sweep", "--scales", "x"],
            ["sweep", "--seeds", "1.5"],
            ["plan", "export", "--mechanisms", "bogus"],
            ["ablate", "nvr-depth", "--values", "x"],
        ):
            assert cli_main(argv) == 2, argv
            err = capsys.readouterr().err
            assert err.startswith("error: "), (argv, err)
            assert len(err.splitlines()) == 1, (argv, err)

    def test_compare_command_with_cache(self, tmp_path, capsys):
        args = ["compare", "st", "--scale", str(SCALE)]
        args += ["--cache-dir", str(tmp_path / "c")]
        assert cli_main(args) == 0
        cold = capsys.readouterr().out
        assert cli_main(args) == 0
        warm = capsys.readouterr().out
        assert warm == cold

    def test_cache_command(self, tmp_path, capsys):
        cache_dir = tmp_path / "c"
        _seed_cache(cache_dir)
        capsys.readouterr()
        assert cli_main(["cache", "--cache-dir", str(cache_dir)]) == 0
        assert "entries   : 1" in capsys.readouterr().out
        assert cli_main(["cache", "--cache-dir", str(cache_dir), "clear"]) == 0
        assert "cleared 1" in capsys.readouterr().out

    def test_cache_gc_subcommand(self, tmp_path, capsys):
        cache_dir = tmp_path / "c"
        _seed_cache(cache_dir, workloads="st,ds")
        capsys.readouterr()
        gc_argv = ["cache", "gc", "--max-mb", "0"]
        rc = cli_main(gc_argv + ["--dry-run", "--cache-dir", str(cache_dir)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "would evict 2/2" in out
        assert len(ResultCache(cache_dir)) == 2  # dry run kept everything
        assert cli_main(gc_argv + ["--cache-dir", str(cache_dir)]) == 0
        assert "evicted 2/2" in capsys.readouterr().out
        assert len(ResultCache(cache_dir)) == 0

    def test_cache_gc_honours_parent_cache_dir_flag(self, tmp_path, capsys):
        # `repro cache --cache-dir X gc` must operate on X, not on the
        # default directory (the subparser must not clobber the flag).
        cache_dir = tmp_path / "c"
        _seed_cache(cache_dir)
        capsys.readouterr()
        argv = ["cache", "--cache-dir", str(cache_dir), "gc", "--max-mb", "0"]
        assert cli_main(argv) == 0
        assert "evicted 1/1" in capsys.readouterr().out
        assert len(ResultCache(cache_dir)) == 0

    def test_cache_gc_rejects_negative_max_mb(self, tmp_path, capsys):
        for bad in ("-1", "nan"):
            argv = ["cache", "gc", "--max-mb", bad]
            with pytest.raises(SystemExit):
                cli_main(argv + ["--cache-dir", str(tmp_path)])
            assert "finite value >= 0" in capsys.readouterr().err

    def test_cache_clear_subcommand(self, tmp_path, capsys):
        cache_dir = tmp_path / "c"
        _seed_cache(cache_dir)
        capsys.readouterr()
        assert cli_main(["cache", "clear", "--cache-dir", str(cache_dir)]) == 0
        assert "cleared 1" in capsys.readouterr().out

    def test_ablate_command_bit_identical_across_jobs(self, tmp_path, capsys):
        base = ["ablate", "nvr-depth", "--values", "1,4"]
        base += ["--workloads", "ds", "--scale", str(SCALE)]
        assert cli_main(base + ["--jobs", "1", "--cache-dir", str(tmp_path / "a")]) == 0
        serial = capsys.readouterr().out
        assert cli_main(base + ["--jobs", "2", "--cache-dir", str(tmp_path / "b")]) == 0
        parallel = capsys.readouterr().out
        assert serial == parallel
        assert "depth_tiles" in serial and "geomean speedup" in serial
        # Warm rerun from the first cache is identical too.
        assert cli_main(base + ["--jobs", "1", "--cache-dir", str(tmp_path / "a")]) == 0
        assert capsys.readouterr().out == serial

    def test_ablate_json_record(self, tmp_path, capsys):
        out_json = tmp_path / "abl.json"
        argv = ["ablate", "nsb-size", "--values", "4,16", "--workloads", "st"]
        argv += ["--scale", str(SCALE), "--no-cache", "--json", str(out_json)]
        rc = cli_main(argv)
        capsys.readouterr()
        assert rc == 0
        record = json.loads(out_json.read_text())
        assert record["axis"] == "nsb_kib"
        assert record["values"] == [4, 16]
        assert len(record["cycles"]["st"]) == 2
