"""Tests for the NPU ISA: line decomposition of vector instructions."""

import numpy as np
import pytest

from repro.errors import ProgramError
from repro.sim.npu.isa import TileCompute, VectorGather, VectorLoad, VectorStore


class TestVectorLoad:
    def test_contiguous_elements_share_lines(self):
        load = VectorLoad(
            stream_id=1,
            byte_addrs=np.arange(0, 64, 4, dtype=np.int64),
            elem_bytes=4,
        )
        assert load.line_addr_list(64) == [0]

    def test_elements_spanning_two_lines(self):
        load = VectorLoad(
            stream_id=1,
            byte_addrs=np.array([60], dtype=np.int64),
            elem_bytes=8,
        )
        assert load.line_addr_list(64) == [0, 64]

    def test_empty_load(self):
        load = VectorLoad(1, np.zeros(0, dtype=np.int64), 4)
        assert load.line_addr_list(64) == []

    def test_first_touch_order_preserved(self):
        load = VectorLoad(
            stream_id=1,
            byte_addrs=np.array([128, 0, 64], dtype=np.int64),
            elem_bytes=4,
        )
        assert load.line_addr_list(64) == [128, 0, 64]


class TestVectorGather:
    def test_segment_spanning_lines(self):
        g = VectorGather(
            stream_id=3,
            index_values=np.array([5], dtype=np.int64),
            byte_addrs=np.array([100], dtype=np.int64),
            seg_bytes=128,
            affine=True,
        )
        per_elem = g.element_lines(64)
        assert list(per_elem[0]) == [64, 128, 192]

    def test_line_addrs_dedup(self):
        g = VectorGather(
            stream_id=3,
            index_values=np.array([1, 2], dtype=np.int64),
            byte_addrs=np.array([0, 32], dtype=np.int64),
            seg_bytes=32,
            affine=True,
        )
        assert list(g.line_addrs(64)) == [0]

    def test_length_mismatch_raises(self):
        with pytest.raises(ProgramError):
            VectorGather(
                stream_id=3,
                index_values=np.array([1], dtype=np.int64),
                byte_addrs=np.array([0, 64], dtype=np.int64),
                seg_bytes=64,
                affine=True,
            )


class TestVectorStore:
    def test_n_bytes(self):
        store = VectorStore(5, np.arange(10, dtype=np.int64), 4)
        assert store.n_bytes() == 40


class TestTileCompute:
    def test_negative_cycles_rejected(self):
        with pytest.raises(ProgramError):
            TileCompute(cycles=-1)

    def test_valid(self):
        tc = TileCompute(cycles=10, sparse_unit_cycles=3)
        assert tc.cycles == 10

