"""The executor's two hierarchy walks simulate the same run.

Each run reaches the memory hierarchy on one of two walks, chosen once
per run: one request vector per instruction
(:meth:`~repro.sim.memory.hierarchy.MemorySystem.demand_lines`) when the
prefetcher keeps the base-class ``on_demand_access``, and one
``demand_line`` call per line when it snoops demand lines (stream, IMP,
DVR). Giving a hook-free prefetcher a no-op ``on_demand_access`` moves
its run onto the per-line walk without changing what it simulates, so
every hook-free mechanism can run one point on both walks, and the two
:class:`~repro.sim.soc.RunResult` records must be equal.

This pins the executor's request-vector issue path (the element- and
batch-miss folding in ``_gather_vector``) against the per-line loop.
``TestBatchKernelsMatchPerLineWalk`` in ``test_hierarchy_properties.py``
pins the hierarchy kernels themselves.

Settings discipline: ``derandomize=True`` keeps CI deterministic,
``deadline=None`` because an example is two whole simulations, and
small scales keep the draw affordable.
"""

from functools import cache

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.controller import NVRConfig
from repro.prefetch.base import Prefetcher
from repro.registry import MECHANISMS
from repro.runner import RunSpec
from repro.sim.memory.hierarchy import MemorySystem
from repro.sim.npu.executor import ENGINES
from repro.workloads import build_workload
from repro.workloads.registry import WORKLOAD_ORDER, elem_bytes


def _snoops_demand_lines(mechanism: str) -> bool:
    prefetcher = MECHANISMS.get(mechanism).factory()()
    return type(prefetcher).on_demand_access is not Prefetcher.on_demand_access


#: Mechanisms whose runs take the request-vector walk by default.
HOOK_FREE = tuple(m for m in MECHANISMS.names() if not _snoops_demand_lines(m))
#: The hook-free mechanisms tuned by an NVRConfig.
NVR_TUNED = tuple(m for m in HOOK_FREE if MECHANISMS.get(m).uses_nvr_config)


def _noop_demand_hook(self, now, stream_id, line_addr, idx_value, off_chip):
    """Observes nothing; its presence selects the per-line walk."""


@cache
def _per_line_class(cls: type) -> type:
    hooks = {"on_demand_access": _noop_demand_hook}
    return type(f"PerLine{cls.__name__}", (cls,), hooks)


def _with_noop_hook(factory):
    def make():
        prefetcher = factory()
        prefetcher.__class__ = _per_line_class(type(prefetcher))
        return prefetcher

    return make


def both_walks(spec: RunSpec):
    """``spec``'s system twice: on request vectors, then on the per-line walk."""
    program = build_workload(
        spec.workload,
        scale=spec.scale,
        elem_bytes=elem_bytes(spec.dtype),
        seed=spec.seed,
    )
    vector = spec.system.build(program)
    per_line = spec.system.build(program)
    per_line.prefetcher_factory = _with_noop_hook(per_line.prefetcher_factory)
    return vector, per_line


def test_hook_free_mechanisms_cover_every_mode_and_nvr():
    assert {MECHANISMS.get(m).mode for m in HOOK_FREE} == set(ENGINES)
    assert NVR_TUNED


@pytest.mark.parametrize("mechanism", HOOK_FREE)
def test_noop_hook_moves_the_run_off_request_vectors(monkeypatch, mechanism):
    calls = []
    demand_lines = MemorySystem.demand_lines

    def counting(self, *args):
        calls.append(args)
        return demand_lines(self, *args)

    monkeypatch.setattr(MemorySystem, "demand_lines", counting)
    vector, per_line = both_walks(
        RunSpec("gcn", mechanism=mechanism, nsb=True, scale=0.02)
    )
    vector.run()
    assert calls, "the default run never issued a request vector"
    calls.clear()
    per_line.run()
    assert not calls, "the no-op hook left the run on request vectors"


spec_strategy = st.fixed_dictionaries(
    {
        "workload": st.sampled_from(WORKLOAD_ORDER),
        "mechanism": st.sampled_from(HOOK_FREE),
        "nsb": st.booleans(),
        "scale": st.sampled_from((0.02, 0.03, 0.05)),
        "seed": st.integers(min_value=0, max_value=5),
    }
)

nvr_strategy = st.fixed_dictionaries(
    {
        "workload": st.sampled_from(WORKLOAD_ORDER),
        "mechanism": st.sampled_from(NVR_TUNED),
        "nsb": st.booleans(),
        "scale": st.sampled_from((0.02, 0.04)),
        "seed": st.integers(min_value=0, max_value=3),
        "vector_width": st.sampled_from((4, 8, 16)),
        "depth_tiles": st.sampled_from((2, 8)),
        "approximate": st.booleans(),
    }
)


class TestRandomizedWalks:
    @settings(
        max_examples=15,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(point=spec_strategy)
    def test_random_specs_agree(self, point):
        vector, per_line = both_walks(RunSpec(**point))
        assert per_line.run() == vector.run()

    @settings(
        max_examples=10,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(point=nvr_strategy)
    def test_random_nvr_tunings_agree(self, point):
        nvr = NVRConfig(
            vector_width=point.pop("vector_width"),
            depth_tiles=point.pop("depth_tiles"),
            approximate=point.pop("approximate"),
        )
        vector, per_line = both_walks(RunSpec(**point, nvr=nvr))
        assert per_line.run() == vector.run()
