"""The declarative spec layer: serde round-trips, registries, goldens.

Three acceptance properties:

* every config object and every registered mechanism/mode/workload
  round-trips ``from_dict(to_dict(x)) == x`` through pure JSON;
* incompatible combinations (nvr_config on a non-NVR mechanism, nsb
  toggle against a memory override that already has an NSB) raise
  ``ConfigError`` instead of being silently resolved;
* spec content keys are *stable across interpreter runs* — the golden
  hashes in ``golden_spec_keys.json`` pin the serialisation format, so
  an accidental change to it (which would orphan every user's result
  cache) fails CI. Intentional format changes must regenerate the file
  (``python tests/test_spec.py regen``) and say so in the PR.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.core import NVRConfig
from repro.core.nsb import nsb_config
from repro.errors import ConfigError, WorkloadError
from repro.prefetch import NullPrefetcher
from repro.registry import MECHANISM_ORDER, MECHANISMS, MechanismDef, Registry
from repro.runner import RunSpec, shape_l2
from repro.sim.memory.hierarchy import CPUTrafficConfig, MemoryConfig
from repro.sim.npu.executor import ENGINES, ExecutorConfig
from repro.session import Grid
from repro.spec import SystemSpec, stable_hash
from repro.workloads import WORKLOAD_ORDER, build_workload
from repro.workloads.registry import WORKLOAD_BUILDERS, register_workload

GOLDEN_PATH = Path(__file__).parent / "golden_spec_keys.json"


def golden_specs() -> dict[str, RunSpec]:
    """The pinned spec corpus: one representative per serialisation path."""
    return {
        "default": RunSpec("ds"),
        "scalar-axes": RunSpec(
            "gcn",
            mechanism="inorder",
            dtype="int8",
            nsb=True,
            scale=0.25,
            seed=7,
            with_base=True,
        ),
        "workload-args": RunSpec(
            "ds",
            workload_args=(("topk_ratio", 4), ("drift", 1.0)),
        ),
        "trace": RunSpec("st", kind="trace", scale=0.1),
        "memory-shorthand": RunSpec(
            "ds", memory=MemoryConfig(l2=shape_l2(128), nsb=nsb_config(size_kib=8))
        ),
        "memory-full": RunSpec(
            "ds", memory=MemoryConfig().with_cpu_traffic(
                CPUTrafficConfig(lines_per_kcycle=10)
            ),
        ),
        "nvr-tuned": RunSpec(
            "gat",
            mechanism="nvr",
            nvr=NVRConfig(depth_tiles=4, vector_width=8, approximate=False),
        ),
        "executor-tuned": RunSpec(
            "scn", executor=ExecutorConfig(issue_width=4, ooo_window=16)
        ),
        "kitchen-sink": RunSpec(
            "h2o",
            mechanism="nvr",
            dtype="int32",
            scale=0.5,
            seed=3,
            with_base=True,
            memory=MemoryConfig(
                l2=shape_l2(512), nsb=nsb_config(size_kib=32)
            ).with_cpu_traffic(),
            nvr=NVRConfig(depth_tiles=16),
            executor=ExecutorConfig(issue_width=8),
            workload_args=(("heavy_ratio", 0.2),),
        ),
    }


def golden_grids() -> dict[str, Grid]:
    """The pinned Grid corpus: expansion *order* and content, hashed.

    A drifted hash here means either the RunSpec serialisation format or
    Grid's deterministic expansion order changed — both orphan caches /
    break plan reproducibility and must be called out in the PR.
    """
    return {
        "grid:canonical-axes": Grid(
            workload=["ds", "gcn"],
            mechanism=["inorder", "nvr"],
            dtype=["int8", "fp16"],
            nsb=[False, True],
            scale=0.25,
            seed=[0, 1],
            with_base=True,
        ),
        "grid:derived-axes": Grid(
            workload="ds",
            mechanism="nvr",
            scale=0.3,
            nvr_depth=[2, 8],
            nvr_width=[8, 16],
            nsb_kib=[4, 16],
            l2_kib=[128, 256],
            issue_width=[1, 4],
        ),
        "grid:workload-args": Grid(
            workload="ds",
            mechanism="stream",
            scale=0.2,
            topk_ratio=[2, 4],
            drift=1.0,
        ),
        "grid:trace": Grid(workload=list(WORKLOAD_ORDER), kind="trace", scale=0.1),
    }


def _grid_hash(grid: Grid) -> str:
    """Order-sensitive content hash of a grid's expansion."""
    keys = "\n".join(spec.key() for spec in grid.specs())
    return hashlib.sha256(keys.encode()).hexdigest()


def _current_goldens() -> dict[str, str]:
    current = {
        name: hashlib.sha256(spec.key().encode()).hexdigest()
        for name, spec in golden_specs().items()
    }
    current.update({name: _grid_hash(grid) for name, grid in golden_grids().items()})
    return current


class TestConfigRoundTrips:
    @pytest.mark.parametrize(
        "config",
        [
            MemoryConfig(),
            MemoryConfig().with_nsb(True),
            MemoryConfig().with_cpu_traffic(),
            MemoryConfig(l2=shape_l2(1024), nsb=nsb_config(size_kib=4)),
        ],
    )
    def test_memory_config(self, config):
        clone = MemoryConfig.from_dict(json.loads(json.dumps(config.to_dict())))
        assert clone == config

    def test_nvr_config(self):
        config = NVRConfig(depth_tiles=4, fuzz_vectors=2, approximate=False)
        clone = NVRConfig.from_dict(json.loads(json.dumps(config.to_dict())))
        assert clone == config

    def test_executor_config(self):
        config = ExecutorConfig(issue_width=4, preload_granule=1024)
        clone = ExecutorConfig.from_dict(json.loads(json.dumps(config.to_dict())))
        assert clone == config

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ConfigError, match="depht_tiles"):
            NVRConfig.from_dict({"depht_tiles": 4})
        with pytest.raises(ConfigError, match="l3"):
            MemoryConfig.from_dict({"l3": {}})
        with pytest.raises(ConfigError, match="engine"):
            SystemSpec.from_dict({"mechanism": "nvr", "engine": "batched"})

    def test_from_dict_revalidates(self):
        d = ExecutorConfig().to_dict()
        d["issue_width"] = 0
        with pytest.raises(ConfigError):
            ExecutorConfig.from_dict(d)


class TestSystemSpec:
    @pytest.mark.parametrize("mechanism", sorted(MECHANISMS))
    def test_round_trip_every_mechanism(self, mechanism):
        spec = SystemSpec(
            mechanism=mechanism,
            nsb=True,
            memory=None,
            nvr=NVRConfig(depth_tiles=4) if mechanism == "nvr" else None,
            executor=ExecutorConfig(issue_width=4),
        )
        clone = SystemSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert clone == spec
        assert clone.stable_hash() == spec.stable_hash()

    @pytest.mark.parametrize("mode", sorted(ENGINES))
    def test_every_engine_reachable_and_spec_able(self, mode):
        mechanism = next(name for name, d in MECHANISMS.items() if d.mode == mode)
        spec = SystemSpec(mechanism=mechanism)
        clone = SystemSpec.from_dict(spec.to_dict())
        assert clone == spec
        assert clone.mechanism_def().mode == mode

    @pytest.mark.parametrize("workload", WORKLOAD_ORDER)
    def test_round_trip_every_workload(self, workload):
        spec = RunSpec(workload, mechanism="nvr", nsb=True, scale=0.3)
        clone = RunSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert clone == spec
        assert clone.key() == spec.key()

    def test_equal_platforms_are_equal_specs(self):
        # The canonicalisation contract: however a platform is written,
        # the spec (equality, hash, content key) is the same.
        assert SystemSpec(nsb=True) == SystemSpec(memory=MemoryConfig().with_nsb(True))
        assert SystemSpec(nvr=NVRConfig()) == SystemSpec()
        assert SystemSpec(memory=MemoryConfig()) == SystemSpec()
        assert SystemSpec(executor=ExecutorConfig()) == SystemSpec()
        # RunSpec dedupe follows: an all-defaults NVRConfig override hits
        # the same cache entry as a plain nvr run.
        a = RunSpec("ds", mechanism="nvr", nvr=NVRConfig(depth_tiles=8))
        b = RunSpec("ds", mechanism="nvr")
        assert a == b
        assert a.key() == b.key()

    def test_nsb_flag_derived_from_memory(self):
        spec = SystemSpec(memory=MemoryConfig(nsb=nsb_config(size_kib=8)))
        assert spec.nsb is True
        assert SystemSpec().nsb is False

    def test_shorthand_specs_rejected_at_construction(self):
        with pytest.raises(ConfigError, match="MemoryConfig, got dict"):
            SystemSpec(memory={"l2_kib": 128})

    def test_build_resolves_defaults_and_nsb(self):
        program = build_workload("st", scale=0.05)
        system = SystemSpec(mechanism="nvr", nsb=True).build(program)
        assert system.memory.nsb is not None
        assert system.mode == "inorder"

    def test_label_is_compact(self):
        spec = SystemSpec(
            mechanism="nvr",
            memory=MemoryConfig(l2=shape_l2(128), nsb=nsb_config(size_kib=8)),
            nvr=NVRConfig(depth_tiles=4),
        )
        assert spec.label() == "nvr/nsb l2=128K nsb=8K nvr(d4,w16)"


class TestIncompatibleCombinations:
    """Satellite: incompatible configs raise instead of silently resolving."""

    def test_nvr_config_rejected_for_non_nvr_mechanism(self):
        with pytest.raises(ConfigError, match="does not take an nvr config"):
            SystemSpec(mechanism="inorder", nvr=NVRConfig())

    def test_make_system_rejects_nvr_config_on_baseline(self):
        from repro.api import make_system

        program = build_workload("st", scale=0.05)
        with pytest.raises(ConfigError, match="does not take an nvr config"):
            make_system(program, mechanism="stream", nvr_config=NVRConfig())

    def test_nsb_toggle_conflicts_with_memory_nsb(self):
        with pytest.raises(ConfigError, match="nsb=True conflicts"):
            SystemSpec(
                mechanism="nvr",
                nsb=True,
                memory=MemoryConfig().with_nsb(True),
            )

    def test_make_system_rejects_double_nsb(self):
        from repro.api import make_system

        program = build_workload("st", scale=0.05)
        with pytest.raises(ConfigError, match="nsb=True conflicts"):
            make_system(program, nsb=True, memory=MemoryConfig().with_nsb(True))

    def test_nsb_toggle_with_plain_memory_override_is_fine(self):
        spec = SystemSpec(
            mechanism="nvr",
            nsb=True,
            memory=MemoryConfig(l2=shape_l2(128)),
        )
        assert spec.resolved_memory().nsb is not None

    def test_run_workload_propagates_validation(self):
        from repro.api import run_workload

        with pytest.raises(ConfigError):
            run_workload("st", mechanism="ooo", scale=0.05, nvr_config=NVRConfig())

    def test_unknown_mechanism_lists_known(self):
        with pytest.raises(ConfigError, match="unknown mechanism 'magic'"):
            SystemSpec(mechanism="magic")


class TestRegistry:
    def test_duplicate_registration_rejected(self):
        registry = Registry("thing")
        registry.register("a", 1)
        with pytest.raises(ConfigError, match="already registered"):
            registry.register("a", 2)
        registry.register("a", 2, replace=True)
        assert registry.get("a") == 2

    def test_decorator_form(self):
        registry = Registry("thing")

        @registry.register("fn")
        def fn():
            return 42

        assert registry.get("fn") is fn
        assert "fn" in registry and len(registry) == 1

    def test_mechanism_plugs_in_without_touching_api(self):
        # The extension path: register, run through the public API by
        # name, spec it, cache-key it — then unregister cleanly.
        MECHANISMS.register("null2", MechanismDef("null2", NullPrefetcher, mode="ooo"))
        try:
            from repro.api import run_workload

            result = run_workload("st", mechanism="null2", scale=0.05)
            assert result.mode == "ooo"
            spec = RunSpec("st", mechanism="null2", scale=0.05)
            clone = RunSpec.from_dict(spec.to_dict())
            assert clone == spec
        finally:
            MECHANISMS.unregister("null2")
        with pytest.raises(ConfigError):
            SystemSpec(mechanism="null2")

    def test_workload_plugs_in(self):
        @register_workload("tiny-st")
        def build(scale=1.0, elem_bytes=2, seed=0, **kwargs):
            return build_workload("st", scale=0.05, seed=seed)

        try:
            program = build_workload("tiny-st")
            assert program.n_rows > 0
        finally:
            WORKLOAD_BUILDERS.unregister("tiny-st")
        with pytest.raises(WorkloadError):
            build_workload("tiny-st")

    def test_mechanism_order_is_registered(self):
        assert set(MECHANISM_ORDER) <= set(MECHANISMS)
        assert set(ENGINES) == {"inorder", "ooo", "preload"}


class TestGoldenKeys:
    """Cache-key stability across interpreter runs (and accidental edits)."""

    def test_stable_hash_is_deterministic(self):
        d = {"b": 1, "a": [1, 2, {"z": True}]}
        assert stable_hash(d) == stable_hash(dict(reversed(d.items())))
        assert stable_hash(d) == (
            "0f4ecc2cc3d4a87c46460229fed460397dcea4d19afd09015e4a83b42bf826e8"
        )

    def test_golden_spec_keys(self):
        goldens = json.loads(GOLDEN_PATH.read_text())
        assert _current_goldens() == goldens, (
            "RunSpec serialisation format (or Grid expansion order) "
            "changed: this orphans every existing result cache. If "
            "intentional, regenerate with `PYTHONPATH=src python "
            "tests/test_spec.py regen` and call it out in the PR "
            "description."
        )


if __name__ == "__main__":
    import sys

    if len(sys.argv) > 1 and sys.argv[1] == "regen":
        goldens = _current_goldens()
        GOLDEN_PATH.write_text(json.dumps(goldens, indent=2) + "\n")
        print(f"wrote {GOLDEN_PATH} ({len(goldens)} entries)")
