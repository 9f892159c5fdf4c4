"""Tests for program lowering (build_one_side_program)."""

import numpy as np
import pytest

from repro.errors import ProgramError
from repro.sim.npu.isa import STREAM_IA_GATHER, STREAM_IA_GATHER_2
from repro.sim.npu.program import (
    GatherStream,
    ProgramConfig,
    build_one_side_program,
)
from repro.sparse.csr import CSRMatrix
from repro.sparse.generate import uniform_csr


def small_program(**cfg_kw):
    w = uniform_csr(32, 512, 0.05, seed=3)
    return w, build_one_side_program("t", w, ProgramConfig(**cfg_kw))


class TestGatherStream:
    def test_affine_address(self):
        gs = GatherStream(stream_id=3, base=0x1000, row_bytes=128, n_slots=100)
        assert gs.address(5) == 0x1000 + 5 * 128
        assert gs.affine

    def test_mapped_address(self):
        perm = np.array([7, 3, 1], dtype=np.int64)
        gs = GatherStream(3, 0x1000, 64, n_slots=8, index_map=perm)
        assert gs.address(1) == 0x1000 + 3 * 64
        assert not gs.affine

    def test_footprint(self):
        gs = GatherStream(3, 0, 128, n_slots=100)
        assert gs.footprint_bytes() == 12800

    @pytest.mark.parametrize("kind", ["affine", "mapped", "compressed"])
    def test_window_matches_per_index(self, kind):
        # int32 tables and addresses past 2**31: the window form must not
        # wrap where the per-index Python arithmetic grows.
        rng = np.random.default_rng(5)
        n_slots = 200_000
        kwargs = {}
        if kind == "mapped":
            kwargs["index_map"] = rng.permutation(n_slots).astype(np.int32)
        elif kind == "compressed":
            lengths = rng.integers(0, 3, size=n_slots)
            rowptr = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int32)
            kwargs.update(table_rowptr=rowptr, elem_bytes=4096)
        gs = GatherStream(3, 0x7000_0000, 4096, n_slots=n_slots, **kwargs)
        indices = rng.integers(0, n_slots, size=64).tolist()
        assert gs.addresses(indices) == [gs.address(i) for i in indices]
        assert max(gs.addresses(indices)) > 2**31
        sizes = gs.segment_sizes(indices)
        if kind == "compressed":
            assert sizes == [gs.segment_bytes(i) for i in indices]
        else:
            assert sizes == gs.row_bytes
        assert gs.addresses([]) == []


class TestLowering:
    def test_tiles_never_cross_rows(self):
        w, prog = small_program(vector_width=4)
        for tile in prog.tiles:
            lo, hi = int(w.rowptr[tile.row]), int(w.rowptr[tile.row + 1])
            assert lo <= tile.j_start < tile.j_end <= hi

    def test_every_nnz_covered_exactly_once(self):
        w, prog = small_program(vector_width=8)
        covered = []
        for tile in prog.tiles:
            covered.extend(range(tile.j_start, tile.j_end))
        assert covered == list(range(w.nnz))

    def test_indices_match_csr(self):
        w, prog = small_program()
        for tile in prog.tiles:
            expected = w.col_indices[tile.j_start : tile.j_end]
            assert np.array_equal(tile.indices, expected)

    def test_gather_addresses_affine(self):
        w, prog = small_program(elem_bytes=2, ia_seg_elems=64)
        stream = prog.gather_streams[STREAM_IA_GATHER]
        for tile in prog.tiles[:10]:
            g = tile.gathers[0]
            expected = stream.base + tile.indices * stream.row_bytes
            assert np.array_equal(g.byte_addrs, expected)

    def test_last_in_row_flags(self):
        w, prog = small_program(vector_width=4)
        for tile in prog.tiles:
            hi = int(w.rowptr[tile.row + 1])
            assert tile.last_in_row == (tile.j_end == hi)

    def test_store_only_on_last_tile(self):
        _, prog = small_program(vector_width=4, with_stores=True)
        for tile in prog.tiles:
            assert (tile.store is not None) == tile.last_in_row

    def test_dual_gather_adds_stream(self):
        _, prog = small_program(dual_gather=True)
        assert STREAM_IA_GATHER_2 in prog.gather_streams
        assert all(len(t.gathers) == 2 for t in prog.tiles)

    def test_index_map_applied(self):
        w = uniform_csr(16, 64, 0.1, seed=4)
        perm = np.random.default_rng(0).permutation(64).astype(np.int64)
        prog = build_one_side_program(
            "h", w, ProgramConfig(index_map=perm, ia_seg_elems=32, elem_bytes=2)
        )
        stream = prog.gather_streams[STREAM_IA_GATHER]
        assert not stream.affine
        tile = prog.tiles[0]
        expected = stream.base + perm[tile.indices] * stream.row_bytes
        assert np.array_equal(tile.gathers[0].byte_addrs, expected)

    def test_short_index_map_rejected(self):
        w = uniform_csr(8, 64, 0.2, seed=5)
        with pytest.raises(ProgramError):
            build_one_side_program(
                "h", w, ProgramConfig(index_map=np.arange(10, dtype=np.int64))
            )

    def test_empty_matrix_rejected(self):
        empty = CSRMatrix(
            2,
            2,
            rowptr=np.zeros(3, dtype=np.int64),
            col_indices=np.zeros(0, dtype=np.int64),
            values=np.zeros(0, dtype=np.float32),
        )
        with pytest.raises(ProgramError):
            build_one_side_program("e", empty, ProgramConfig())

    def test_compute_cycles_positive(self):
        _, prog = small_program()
        assert all(t.compute.cycles > 0 for t in prog.tiles)

    def test_describe_mentions_name(self):
        _, prog = small_program()
        assert "t:" in prog.describe()

    def test_col_stream_matches(self):
        w, prog = small_program()
        assert np.array_equal(prog.col_stream, w.col_indices)


class TestProgramConfig:
    def test_bad_elem_bytes(self):
        with pytest.raises(ProgramError):
            ProgramConfig(elem_bytes=3)

    def test_bad_vector_width(self):
        with pytest.raises(ProgramError):
            ProgramConfig(vector_width=0)

    def test_bad_seg(self):
        with pytest.raises(ProgramError):
            ProgramConfig(ia_seg_elems=0)
