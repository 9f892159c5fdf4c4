"""Safety tests for the benchmark's outside-in tracer.

The tracer must observe the simulator without changing it:

* every mechanism binds the same executor hooks with and without it
  (the executor elides hooks by method identity);
* a traced sweep's output digest equals the untraced one;
* the deterministic counters repeat exactly across two traced sweeps.

Run with ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from repro.prefetch.base import Prefetcher, PrefetchPort  # noqa: E402
from repro.registry import MECHANISMS  # noqa: E402
from repro.runner import pool  # noqa: E402
from repro.runner.plan import RunSpec  # noqa: E402
from repro.session import Grid, Session  # noqa: E402
from repro.sim.memory.hierarchy import MemorySystem  # noqa: E402
from repro.sim.npu.executor import build_engine  # noqa: E402
from repro.sim.npu.sparse_unit import SparseUnit  # noqa: E402
from repro.sim.soc import PerfectMemory  # noqa: E402
from repro.sim.stats import RunStats  # noqa: E402
from repro.workloads import build_workload  # noqa: E402

import workloads  # noqa: E402
from tracer import CLASS_LAYERS, Tracer  # noqa: E402

SCALE = 0.02
GRID = Grid(
    workload=("gcn", "mk"),
    mechanism=tuple(MECHANISMS.names()),
    nsb=(False, True),
    scale=SCALE,
)


@pytest.fixture
def tracer():
    tracer = Tracer().install()
    try:
        yield tracer
    finally:
        tracer.uninstall()


def hook_bindings(mechanism: str, perfect: bool) -> tuple:
    """Which prefetcher events the executor wires up, as System.run does."""
    program = build_workload("gcn", scale=SCALE)
    system = RunSpec("gcn", mechanism=mechanism, scale=SCALE).system.build(program)
    stats = RunStats()
    if perfect:
        mem = PerfectMemory(system.memory, stats)
    else:
        mem = MemorySystem(system.memory, stats)
    prefetcher = system.prefetcher_factory()
    sparse_unit = SparseUnit(program)
    prefetcher.attach(program, PrefetchPort(mem))
    if hasattr(prefetcher, "attach_npu"):
        prefetcher.attach_npu(sparse_unit)
    engine = build_engine(
        system.mode, program, mem, prefetcher, sparse_unit, stats, system.executor
    )
    return (
        engine._pf_hook is not None,
        engine._data_hook is not None,
        engine._needs_dispatch,
        engine._fast_perfect,
    )


def traced_sweep() -> tuple[str, dict]:
    """Sweep GRID cold (fresh program memo); returns (digest, counters)."""
    pool._workload_for.cache_clear()
    with Session(jobs=1, cache=False, progress=False) as session:
        rs = session.sweep(GRID)
    specs, results = zip(*rs)
    digest = workloads.plan_digest(workloads.point_digests(specs, results))
    return digest, workloads.counters(specs, results)


@pytest.mark.parametrize("perfect", [False, True])
@pytest.mark.parametrize("mechanism", MECHANISMS.names())
def test_same_hooks_bound_with_and_without_tracer(mechanism, perfect):
    untraced = hook_bindings(mechanism, perfect)
    tracer = Tracer().install()
    try:
        assert hook_bindings(mechanism, perfect) == untraced
    finally:
        tracer.uninstall()


def test_base_class_noops_are_never_wrapped(tracer):
    for name in ("on_demand_access", "on_data_return", "on_tile_dispatch", "on_branch"):
        assert getattr(Prefetcher, name) is vars(Prefetcher)[name]
        assert getattr(Prefetcher, name).__module__ == "repro.prefetch.base"


def test_only_own_public_functions_are_wrapped_and_restored():
    import importlib

    before = {}
    for module_name, class_name, _, _ in CLASS_LAYERS:
        cls = getattr(importlib.import_module(module_name), class_name)
        before[cls] = dict(vars(cls))
    tracer = Tracer().install()
    try:
        for cls, attrs in before.items():
            changed = {name for name, value in vars(cls).items() if attrs.get(name) is not value}
            assert changed, cls
            assert all(not name.startswith("_") for name in changed), cls
            assert changed <= set(attrs), cls
    finally:
        tracer.uninstall()
    for cls, attrs in before.items():
        assert dict(vars(cls)) == attrs


def test_traced_digest_equals_untraced(tracer):
    tracer.uninstall()
    untraced_digest, untraced_counters = traced_sweep()
    tracer.install()
    traced_digest, traced_counters = traced_sweep()
    assert traced_digest == untraced_digest
    assert traced_counters == untraced_counters
    for layer in ("sim.npu", "sim.memory", "prefetch", "prefetch.port", "core.nvr",
                  "workloads.build", "runner"):
        assert tracer.self_ns[layer] > 0, layer


def test_deterministic_counters_repeat_across_traced_runs():
    snapshots = []
    outputs = []
    for _ in range(2):
        tracer = Tracer().install()
        try:
            outputs.append(traced_sweep())
        finally:
            tracer.uninstall()
        snapshots.append(tracer.snapshot()["calls"])
    assert outputs[0] == outputs[1]
    assert snapshots[0] == snapshots[1]
    calls = snapshots[0]
    assert calls["workloads.build:build_workload"] == 2
    assert calls["sim.npu:run"] == len(GRID)
    assert calls["sim.memory:demand_line"] > 0
