"""Design-choice ablations beyond ``repro ablate`` (README.md).

Not a paper figure — these benches probe the knobs behind NVR's results:
runahead depth, fuzzy boundaries, the approximate (SCD-extrapolation)
mode, MSHR capacity and NSB associativity.
"""

from conftest import BENCH_SCALE, run_once

from repro import run_workload
from repro.core import NVRConfig
from repro.core.nsb import nsb_config
from repro.sim.memory.hierarchy import MemoryConfig


def _depth_sweep():
    return {
        depth: run_workload(
            "ds",
            mechanism="nvr",
            scale=BENCH_SCALE,
            nvr_config=NVRConfig(depth_tiles=depth),
        )
        for depth in (1, 4, 8)
    }


def test_ablation_runahead_depth(benchmark):
    results = run_once(benchmark, _depth_sweep)
    # Depth-1 runahead cannot hide a full DRAM latency; deeper does.
    assert results[4].total_cycles < results[1].total_cycles
    assert results[4].stats.coverage() > results[1].stats.coverage()


def _fuzz_sweep():
    return {
        fuzz: run_workload(
            "gcn",
            mechanism="nvr",
            scale=BENCH_SCALE,
            nvr_config=NVRConfig(fuzz_vectors=fuzz),
        )
        for fuzz in (0, 2)
    }


def test_ablation_fuzzy_boundaries(benchmark):
    results = run_once(benchmark, _fuzz_sweep)
    # Fuzz trades a little accuracy for boundary coverage; neither
    # direction may collapse.
    for result in results.values():
        assert result.stats.prefetch.accuracy > 0.85
        assert result.stats.coverage() > 0.85


def _approx_sweep():
    return {
        approx: run_workload(
            "ds",
            mechanism="nvr",
            scale=BENCH_SCALE,
            nvr_config=NVRConfig(approximate=approx),
        )
        for approx in (False, True)
    }


def test_ablation_approximate_mode(benchmark):
    results = run_once(benchmark, _approx_sweep)
    # The confidence gate must keep approximate mode from hurting accuracy.
    assert results[True].stats.prefetch.accuracy > 0.9
    assert results[True].total_cycles <= results[False].total_cycles * 1.05


def _mshr_sweep():
    from repro.sim.memory.cache import CacheConfig

    out = {}
    for entries in (8, 64):
        memory = MemoryConfig(
            l2=CacheConfig(
                size_bytes=256 * 1024, assoc=8, mshr_entries=entries, name="l2"
            )
        )
        out[entries] = run_workload(
            "ds", mechanism="nvr", scale=BENCH_SCALE, memory=memory
        )
    return out


def test_ablation_mshr_capacity(benchmark):
    results = run_once(benchmark, _mshr_sweep)
    # The paper: VMIG's pipelining "depends on the MSHR". Starving the
    # MSHR file caps memory-level parallelism.
    assert results[64].total_cycles < results[8].total_cycles


def _nsb_assoc_sweep():
    out = {}
    for assoc in (2, 16):
        memory = MemoryConfig(nsb=nsb_config(size_kib=16, assoc=assoc))
        out[assoc] = run_workload(
            "gsabt", mechanism="nvr", scale=BENCH_SCALE, memory=memory
        )
    return out


def test_ablation_nsb_associativity(benchmark):
    results = run_once(benchmark, _nsb_assoc_sweep)
    # Sec. IV-G's argument for high-way mapping: block/global-token reuse
    # (GSABT) conflict-misses in low-associativity NSBs. (On cyclic-reuse
    # traces LRU thrashing can invert this - a classic replacement
    # pathology, not a conflict effect.)
    assert results[16].stats.nsb.demand_hits >= results[2].stats.nsb.demand_hits
    assert results[16].total_cycles <= results[2].total_cycles
