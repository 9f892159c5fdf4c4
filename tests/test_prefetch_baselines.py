"""Tests for the baseline prefetchers: mechanism-level behaviour."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.prefetch import (
    DecoupledVectorRunahead,
    IndirectMemoryPrefetcher,
    NullPrefetcher,
    StreamPrefetcher,
)
from repro.prefetch.stream import _StreamEntry
from repro.sim.memory.hierarchy import MemoryConfig
from repro.sim.npu.program import ProgramConfig, build_one_side_program
from repro.sim.soc import System
from repro.sparse.csr import CSRMatrix
from repro.sparse.generate import uniform_csr


def sequential_program():
    """A fully dense single row: pure streaming, stride prefetch heaven."""
    dense = np.ones((4, 512), dtype=np.float32)
    w = CSRMatrix.from_dense(dense)
    return build_one_side_program("seq", w, ProgramConfig(elem_bytes=4))


def irregular_program(seed=1):
    w = uniform_csr(120, 4096, 0.02, seed=seed)
    return build_one_side_program("irr", w, ProgramConfig(elem_bytes=2))


def hashed_program(seed=2):
    w = uniform_csr(120, 2048, 0.04, seed=seed)
    perm = np.random.default_rng(seed).permutation(2048).astype(np.int64)
    return build_one_side_program(
        "hash", w, ProgramConfig(elem_bytes=2, index_map=perm)
    )


def run(program, factory, mode="inorder"):
    return System(
        program=program, memory=MemoryConfig(), prefetcher_factory=factory, mode=mode
    ).run()


class TestNull:
    def test_issues_nothing(self):
        res = run(irregular_program(), NullPrefetcher)
        assert res.stats.prefetch.issued == 0
        assert res.stats.coverage() == 0.0


class TestStream:
    def test_covers_streaming_workload(self):
        res = run(sequential_program(), StreamPrefetcher)
        # Degree-16 streaming prefetch: covers a solid fraction; the rest
        # are late (demand advances faster than one DRAM latency) - those
        # still shorten stalls but do not count as covered.
        assert res.stats.coverage() > 0.25
        covered_or_late = res.stats.prefetch.useful + res.stats.prefetch.late
        assert covered_or_late > 0.7 * (covered_or_late + res.stats.l2.demand_misses)

    def test_low_coverage_on_irregular(self):
        res = run(irregular_program(), StreamPrefetcher)
        assert res.stats.coverage() < 0.4

    def test_accuracy_degrades_on_irregular(self):
        seq = run(sequential_program(), StreamPrefetcher).stats.prefetch.accuracy
        irr = run(irregular_program(), StreamPrefetcher).stats.prefetch.accuracy
        assert irr < seq

    def test_faster_than_no_prefetch_on_streaming(self):
        base = run(sequential_program(), NullPrefetcher).total_cycles
        with_pf = run(sequential_program(), StreamPrefetcher).total_cycles
        assert with_pf < base


class _RecordingPort:
    """Records each ``prefetch_bursts`` call as per-line cycles and lines."""

    line_bytes = 64

    def __init__(self):
        self.calls = []

    def prefetch_bursts(self, at, bursts, irregular):
        assert all(bursts), "bursts are non-empty"
        ats = [at + i for i, burst in enumerate(bursts) for _ in burst]
        self.calls.append((ats, [line for burst in bursts for line in burst]))
        return []


def _candidate_loop(now, line_addr, step, frontier, degree):
    """Reference: check every multiple ``k = 1..degree`` of the stride."""
    ats, targets = [], []
    for k in range(1, degree + 1):
        target = line_addr + k * step
        if target <= frontier and step > 0:
            continue  # already requested on this stream
        if target < 0:
            break
        ats.append(now + k // 4)
        targets.append(target)
    return ats, targets


class TestStreamTraining:
    @settings(max_examples=400, deadline=None)
    @given(
        st.integers(min_value=0, max_value=1 << 14),
        st.integers(min_value=-40, max_value=40).filter(bool),
        st.integers(min_value=-64 * 64, max_value=40 * 40 * 64),
        st.integers(min_value=1, max_value=32),
        st.integers(min_value=0, max_value=1000),
    )
    def test_confirmed_stride_targets_match_candidate_loop(
        self, line, stride, frontier_offset, degree, now
    ):
        pf = StreamPrefetcher(degree=degree)
        port = _RecordingPort()
        pf.attach(None, port)
        line_addr = line * 64
        frontier = line_addr + frontier_offset
        pf._table[0] = _StreamEntry(
            last_line=line_addr - stride * 64,
            stride=stride,
            confidence=pf.confirm,
            frontier=frontier,
        )
        pf.on_demand_access(now, 0, line_addr, None, off_chip=False)
        ats, targets = _candidate_loop(now, line_addr, stride * 64, frontier, degree)
        assert port.calls == ([(ats, targets)] if targets else [])
        assert pf._table[0].frontier == max(frontier, line_addr + degree * stride * 64)


class TestIMP:
    def test_learns_affine_map(self):
        res = run(irregular_program(), IndirectMemoryPrefetcher)
        assert res.stats.prefetch.issued > 100
        assert res.stats.prefetch.accuracy > 0.9

    def test_beats_stream_on_irregular(self):
        stream = run(irregular_program(), StreamPrefetcher)
        imp = run(irregular_program(), IndirectMemoryPrefetcher)
        assert imp.total_cycles < stream.total_cycles

    def test_silent_on_hashed_gathers(self):
        """No consistent (base, shift) exists for a hash permutation."""
        res = run(hashed_program(), IndirectMemoryPrefetcher)
        # Index-stream (regular) prefetches still happen; indirect coverage
        # must be negligible.
        assert res.stats.coverage() < 0.2

    def test_shallow_lookahead_leaves_late_prefetches(self):
        res = run(irregular_program(), IndirectMemoryPrefetcher)
        assert res.stats.prefetch.late > 0


class TestDVR:
    def test_triggered_by_stalls(self):
        prog = irregular_program()
        res = run(prog, DecoupledVectorRunahead)
        assert res.stats.prefetch.issued > 0

    def test_high_coverage_on_affine(self):
        res = run(irregular_program(), DecoupledVectorRunahead)
        assert res.stats.coverage() > 0.6

    def test_beats_imp_on_affine(self):
        imp = run(irregular_program(), IndirectMemoryPrefetcher)
        dvr = run(irregular_program(), DecoupledVectorRunahead)
        assert dvr.total_cycles < imp.total_cycles

    def test_covers_only_index_side_on_hashed(self):
        affine_cov = run(irregular_program(), DecoupledVectorRunahead).stats.coverage()
        hashed_cov = run(hashed_program(), DecoupledVectorRunahead).stats.coverage()
        assert hashed_cov < 0.3
        assert hashed_cov < affine_cov

    def test_depth_bounds_invocations(self):
        prog = irregular_program()
        captured = []

        def factory():
            p = DecoupledVectorRunahead(depth_tiles=8)
            captured.append(p)
            return p

        run(prog, factory)
        assert captured[0].invocations > 0
        # Each invocation covers up to depth_tiles; invocations should be
        # far fewer than tiles.
        assert captured[0].invocations <= prog.n_tiles


class TestOrderingOnIrregular:
    def test_paper_mechanism_ordering(self):
        """Fig. 5/6 shape: none < stream < imp <= dvr on irregular SpMM."""
        prog = irregular_program()
        none_t = run(prog, NullPrefetcher).total_cycles
        stream_t = run(prog, StreamPrefetcher).total_cycles
        imp_t = run(prog, IndirectMemoryPrefetcher).total_cycles
        dvr_t = run(prog, DecoupledVectorRunahead).total_cycles
        assert dvr_t < imp_t < stream_t < none_t
