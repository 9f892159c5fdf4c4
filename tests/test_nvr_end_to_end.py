"""End-to-end tests for the composed NVR mechanism."""

import numpy as np
import pytest

from repro.core import NVRConfig, NVRPrefetcher, nsb_config
from repro import workloads
from repro.core.snooper import Snooper
from repro.core.stride_detector import StrideDetector
from repro.errors import ConfigError, SimulationError
from repro.prefetch import (
    DecoupledVectorRunahead,
    IndirectMemoryPrefetcher,
    NullPrefetcher,
    StreamPrefetcher,
)
from repro.sim.memory.hierarchy import MemoryConfig
from repro.sim.npu.program import ProgramConfig, build_one_side_program
from repro.sim.npu.sparse_unit import SparseUnit
from repro.sim.soc import System
from repro.sparse.generate import uniform_csr
from repro.utils import make_rng
from repro.workloads.double_sparsity import rows_to_csr


def irregular_program(seed=1):
    w = uniform_csr(120, 4096, 0.02, seed=seed)
    return build_one_side_program("irr", w, ProgramConfig(elem_bytes=2))


def hashed_program(seed=2):
    w = uniform_csr(120, 2048, 0.04, seed=seed)
    perm = np.random.default_rng(seed).permutation(2048).astype(np.int64)
    return build_one_side_program(
        "hash", w, ProgramConfig(elem_bytes=2, index_map=perm)
    )


def run(program, factory=NVRPrefetcher, memory=None, mode="inorder"):
    return System(
        program=program,
        memory=memory or MemoryConfig(),
        prefetcher_factory=factory,
        mode=mode,
    ).run()


class TestNVRCoverageAccuracy:
    def test_coverage_above_90_percent_affine(self):
        res = run(irregular_program())
        assert res.stats.coverage() > 0.9

    def test_coverage_above_90_percent_hashed(self):
        """NVR resolves sparse_func on the sparse unit — hash is no barrier."""
        res = run(hashed_program())
        assert res.stats.coverage() > 0.9

    def test_accuracy_above_90_percent(self):
        for prog in (irregular_program(), hashed_program()):
            res = run(prog)
            assert res.stats.prefetch.accuracy > 0.9


class TestNVRBeatsBaselines:
    @pytest.mark.parametrize(
        "baseline",
        [StreamPrefetcher, IndirectMemoryPrefetcher, DecoupledVectorRunahead],
    )
    def test_fewer_cycles_than(self, baseline):
        prog = irregular_program()
        assert run(prog).total_cycles < run(prog, baseline).total_cycles

    def test_miss_reduction_vs_best_baseline(self):
        """Paper headline: ~90% cache-miss reduction vs SOTA prefetchers.

        Count unresolved stall events (true misses plus late prefetches —
        both stall the NPU pipeline).
        """
        prog = irregular_program()
        nvr = run(prog).stats
        dvr = run(prog, DecoupledVectorRunahead).stats
        nvr_stalls = nvr.l2.demand_misses + nvr.prefetch.late
        dvr_stalls = dvr.l2.demand_misses + dvr.prefetch.late
        assert nvr_stalls < 0.3 * dvr_stalls

    def test_speedup_vs_no_prefetch(self):
        """Paper headline: ~4x speedup on sparse workloads vs no prefetch."""
        prog = irregular_program()
        base = run(prog, NullPrefetcher).total_cycles
        nvr = run(prog).total_cycles
        assert base / nvr > 2.5

    def test_dominates_dvr_on_hashed(self):
        prog = hashed_program()
        nvr = run(prog)
        dvr = run(prog, DecoupledVectorRunahead)
        assert nvr.total_cycles < dvr.total_cycles
        assert nvr.stats.coverage() > dvr.stats.coverage() + 0.4


class TestNVRWithNSB:
    def test_nsb_helps_reuse_heavy_pattern(self):
        """NSB pays off where irregular lines are re-referenced (Sec. IV-G:
        "implicit cache line reuse patterns"); low-reuse traces are neutral.
        """
        # Zipf-skewed column popularity: a few hot columns in most rows.
        rng = make_rng(9)
        probs = np.arange(1, 4097, dtype=np.float64) ** -1.4
        probs /= probs.sum()
        probs = probs[rng.permutation(4096)]
        rows = [
            np.sort(rng.choice(4096, size=int(k), replace=False, p=probs))
            for k in rng.binomial(4096, 0.03, size=150)
        ]
        w = rows_to_csr(rows, 4096)
        prog = build_one_side_program("reuse", w, ProgramConfig(elem_bytes=2))
        plain = run(prog)
        with_nsb = run(prog, memory=MemoryConfig().with_nsb(True))
        assert with_nsb.total_cycles < plain.total_cycles
        assert with_nsb.stats.nsb.demand_hits > 0

    def test_nsb_neutral_on_low_reuse(self):
        prog = irregular_program()
        plain = run(prog).total_cycles
        with_nsb = run(prog, memory=MemoryConfig().with_nsb(True)).total_cycles
        assert abs(with_nsb - plain) / plain < 0.05

    def test_nsb_hits_recorded(self):
        prog = irregular_program()
        res = run(prog, memory=MemoryConfig().with_nsb(True))
        assert res.stats.nsb.demand_hits > 0

    def test_nsb_config_shapes(self):
        for kib in (4, 8, 16, 32):
            cfg = nsb_config(size_kib=kib)
            assert cfg.size_bytes == kib * 1024


class TestNVRMechanics:
    def test_runahead_uses_sparse_unit_idle_slots(self):
        prog = irregular_program()
        res = run(prog)
        assert res.stats.runahead_invocations > 0

    def test_controller_counters(self):
        prog = irregular_program()
        captured = []

        def factory():
            p = NVRPrefetcher()
            captured.append(p)
            return p

        run(prog, factory)
        c = captured[0].controller
        assert c.windows_opened > 0
        assert c.exact_prefetches > 0
        assert c.vmig.compression_ratio > 0.5

    def test_unattached_use_raises(self):
        p = NVRPrefetcher()
        with pytest.raises(SimulationError):
            p.on_data_return(0, 0)

    def test_depth_config_respected(self):
        prog = irregular_program()
        shallow = run(prog, lambda: NVRPrefetcher(NVRConfig(depth_tiles=1)))
        deep = run(prog, lambda: NVRPrefetcher(NVRConfig(depth_tiles=4)))
        # Deeper runahead hides more latency on this workload.
        assert deep.total_cycles <= shallow.total_cycles

    def test_no_approximate_mode_still_covers(self):
        prog = irregular_program()
        res = run(prog, lambda: NVRPrefetcher(NVRConfig(approximate=False)))
        assert res.stats.coverage() > 0.85

    def test_one_entry_per_detector_still_runs_ahead(self):
        """At ``vector_width=1`` the SD has one entry, which the W-values
        stream alone must hold long enough to become confident."""
        prog = workloads.build_workload("gcn", scale=0.05)
        captured = []

        def factory():
            captured.append(NVRPrefetcher(NVRConfig(vector_width=1)))
            return captured[-1]

        nvr = run(prog, factory)
        inorder = run(prog, NullPrefetcher)
        assert captured[0].controller.windows_opened > 0
        assert nvr.stats.runahead_invocations > 0
        assert nvr.total_cycles < inorder.total_cycles / 2

    @pytest.mark.parametrize("confirm", [0, StrideDetector.CONFIDENCE_MAX + 1])
    def test_confirm_stride_must_fit_the_confidence_counter(self, confirm):
        with pytest.raises(ConfigError, match="confirm_stride"):
            NVRConfig(confirm_stride=confirm)
        with pytest.raises(ConfigError, match="confirm_stride"):
            NVRConfig.from_dict({"confirm_stride": confirm})


class TestSnooper:
    def test_requires_sparse_unit(self):
        s = Snooper()
        with pytest.raises(SimulationError):
            s.read_sparse_window(0)

    def test_reads_window(self):
        prog = irregular_program()
        unit = SparseUnit(prog)
        s = Snooper()
        s.attach_sparse_unit(unit)
        start, end = s.read_sparse_window(0)
        assert (start, end) == (int(prog.rowptr[0]), int(prog.rowptr[1]))
        assert all(type(bound) is int for bound in (start, end))
