"""Tests for two-sides-sparsity lowering (the paper's second Fig. 2 listing)."""

import numpy as np
import pytest

from repro.core import NVRPrefetcher
from repro.errors import ProgramError
from repro.prefetch import (
    DecoupledVectorRunahead,
    IndirectMemoryPrefetcher,
    NullPrefetcher,
)
from repro.sim.npu.isa import STREAM_IA_GATHER, STREAM_IA_METADATA
from repro.sim.npu.program import GatherStream, ProgramConfig
from repro.sim.npu.two_side import build_two_side_program
from repro.sim.soc import System
from repro.sparse.generate import uniform_csr


@pytest.fixture(scope="module")
def operands():
    # Sized so IA's compressed value array meaningfully exceeds what the
    # L2 retains across the run (the regime the pattern targets).
    w = uniform_csr(120, 1024, 0.03, seed=1)
    ia = uniform_csr(1024, 2048, 0.02, seed=2)
    return w, ia


@pytest.fixture(scope="module")
def program(operands):
    w, ia = operands
    return build_two_side_program("2s", w, ia, ProgramConfig(elem_bytes=2))


class TestGatherStreamCompressed:
    def test_address_through_rowptr(self):
        rowptr = np.array([0, 3, 3, 10], dtype=np.int64)
        gs = GatherStream(
            stream_id=3,
            base=0x1000,
            row_bytes=2,
            n_slots=3,
            table_rowptr=rowptr,
            elem_bytes=2,
        )
        assert gs.address(0) == 0x1000
        assert gs.address(2) == 0x1000 + 3 * 2
        assert not gs.affine
        assert gs.compressed

    def test_segment_bytes_dynamic(self):
        rowptr = np.array([0, 3, 3, 10], dtype=np.int64)
        gs = GatherStream(
            stream_id=3,
            base=0,
            row_bytes=2,
            n_slots=3,
            table_rowptr=rowptr,
            elem_bytes=2,
        )
        assert gs.segment_bytes(0) == 6
        assert gs.segment_bytes(1) == 1  # empty row clamps to 1 byte
        assert gs.segment_bytes(2) == 14

    def test_footprint_is_nnz_bytes(self):
        rowptr = np.array([0, 3, 10], dtype=np.int64)
        gs = GatherStream(
            stream_id=3,
            base=0,
            row_bytes=2,
            n_slots=2,
            table_rowptr=rowptr,
            elem_bytes=2,
        )
        assert gs.footprint_bytes() == 20


class TestLowering:
    def test_shape_mismatch_rejected(self, operands):
        w, _ = operands
        bad_ia = uniform_csr(100, 50, 0.1, seed=3)
        with pytest.raises(ProgramError):
            build_two_side_program("x", w, bad_ia, ProgramConfig())

    @pytest.mark.parametrize("mapped", [False, True])
    def test_gathers_equal_the_per_element_form(self, operands, mapped):
        """Each element's gathers follow ``GatherStream.slot`` of its index."""
        w, ia = operands
        index_map = None
        if mapped:
            index_map = np.random.default_rng(5).permutation(ia.n_rows)
            index_map = index_map.astype(np.int32)
        cfg = ProgramConfig(elem_bytes=2, index_map=index_map)
        prog = build_two_side_program("2s", w, ia, cfg)
        values = prog.gather_streams[STREAM_IA_GATHER]
        meta_base = prog.gather_streams[STREAM_IA_METADATA].base
        for tile in prog.tiles:
            indices = [int(i) for i in tile.indices]
            meta, value = tile.gathers
            slots = [values.slot(i) for i in indices]
            assert meta.byte_addrs.dtype == value.byte_addrs.dtype == np.int64
            assert meta.byte_addrs.tolist() == [meta_base + 4 * s for s in slots]
            assert value.byte_addrs.tolist() == [values.address(i) for i in indices]
            assert value.seg_bytes_per_elem.tolist() == [
                values.segment_bytes(i) for i in indices
            ]

    def test_two_gather_chains_per_tile(self, program):
        for tile in program.tiles:
            streams = [g.stream_id for g in tile.gathers]
            assert streams == [STREAM_IA_METADATA, STREAM_IA_GATHER]

    def test_gathers_are_non_affine(self, program):
        for tile in program.tiles[:5]:
            assert all(not g.affine for g in tile.gathers)

    def test_segment_addresses_match_ia_rowptr(self, operands, program):
        _, ia = operands
        cfg = program.config
        stream = program.gather_streams[STREAM_IA_GATHER]
        for tile in program.tiles[:20]:
            g = tile.gathers[1]
            for pos, idx in enumerate(tile.indices):
                expected = cfg.ia_base + int(ia.rowptr[idx]) * cfg.elem_bytes
                assert g.byte_addrs[pos] == expected
                assert stream.address(int(idx)) == expected

    def test_segment_lengths_match_ia_row_nnz(self, operands, program):
        _, ia = operands
        cfg = program.config
        for tile in program.tiles[:20]:
            g = tile.gathers[1]
            for pos, idx in enumerate(tile.indices):
                nnz = int(ia.rowptr[idx + 1] - ia.rowptr[idx])
                expected = max(1, nnz * cfg.elem_bytes)
                assert g.segment_bytes(pos) == expected

    def test_per_elem_segment_validation(self):
        from repro.sim.npu.isa import VectorGather

        with pytest.raises(ProgramError):
            VectorGather(
                stream_id=3,
                index_values=np.array([1, 2], dtype=np.int64),
                byte_addrs=np.array([0, 64], dtype=np.int64),
                seg_bytes=64,
                affine=False,
                seg_bytes_per_elem=np.array([64], dtype=np.int64),
            )

    def test_element_lines_respect_dynamic_lengths(self):
        from repro.sim.npu.isa import VectorGather

        g = VectorGather(
            stream_id=3,
            index_values=np.array([1, 2], dtype=np.int64),
            byte_addrs=np.array([0, 128], dtype=np.int64),
            seg_bytes=256,
            affine=False,
            seg_bytes_per_elem=np.array([32, 256], dtype=np.int64),
        )
        lines = g.element_lines(64)
        assert list(lines[0]) == [0]
        assert list(lines[1]) == [128, 192, 256, 320]


class TestExecutionAndPrefetch:
    def test_runs_deterministically(self, program):
        a = System(program=program, prefetcher_factory=NullPrefetcher).run()
        b = System(program=program, prefetcher_factory=NullPrefetcher).run()
        assert a.total_cycles == b.total_cycles

    def test_affine_prefetchers_cover_little(self, program):
        nvr = System(program=program, prefetcher_factory=NVRPrefetcher).run()
        for factory in (IndirectMemoryPrefetcher, DecoupledVectorRunahead):
            result = System(program=program, prefetcher_factory=factory).run()
            # They cover the streaming side only; the IA value chain
            # (addressed through rowptr data) stays dark.
            assert result.stats.coverage() < 0.5
            assert result.stats.coverage() < nvr.stats.coverage() - 0.3

    def test_nvr_covers_the_chain(self, program):
        result = System(program=program, prefetcher_factory=NVRPrefetcher).run()
        assert result.stats.coverage() > 0.75
        assert result.stats.prefetch.accuracy > 0.85

    def test_nvr_beats_baselines(self, program):
        nvr = System(program=program, prefetcher_factory=NVRPrefetcher).run()
        baselines = (
            NullPrefetcher,
            IndirectMemoryPrefetcher,
            DecoupledVectorRunahead,
        )
        for factory in baselines:
            other = System(program=program, prefetcher_factory=factory).run()
            assert nvr.total_cycles < other.total_cycles

    def test_functional_equivalence_with_reference_kernel(self, operands):
        """The program touches exactly the IA values the two-side SpMM
        reference reads: every gathered byte range maps to stored nnz."""
        w, ia = operands
        prog = build_two_side_program("2s", w, ia, ProgramConfig(elem_bytes=2))
        cfg = prog.config
        for tile in prog.tiles[:30]:
            g = tile.gathers[1]
            for pos, idx in enumerate(tile.indices):
                start = (g.byte_addrs[pos] - cfg.ia_base) // cfg.elem_bytes
                assert start == ia.rowptr[idx]
