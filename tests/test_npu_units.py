"""Tests for the systolic model and the sparse unit."""

import pytest

from repro.errors import ConfigError, SimulationError
from repro.sim.npu.program import ProgramConfig, build_one_side_program
from repro.sim.npu.sparse_unit import SparseUnit
from repro.sim.npu.systolic import SystolicConfig, SystolicModel
from repro.sim.npu.isa import STREAM_IA_GATHER
from repro.sparse.generate import uniform_csr


def make_program():
    w = uniform_csr(16, 256, 0.1, seed=7)
    return build_one_side_program("u", w, ProgramConfig(vector_width=8))


class TestSystolic:
    def test_zero_work_zero_cycles(self):
        model = SystolicModel()
        assert model.tile_cycles(0, 64) == 0
        assert model.tile_cycles(16, 0) == 0

    def test_cycles_scale_with_work(self):
        model = SystolicModel()
        small = model.tile_cycles(16, 16)
        big = model.tile_cycles(64, 64)
        assert big > small

    def test_fill_drain_included(self):
        model = SystolicModel(SystolicConfig(fill_drain=100))
        assert model.tile_cycles(1, 1) > 100

    def test_sparse_unit_cycles(self):
        model = SystolicModel(SystolicConfig(sparse_align_cycles_per_elem=0.5))
        assert model.sparse_unit_cycles(16) == 8

    def test_peak_macs(self):
        assert SystolicModel(SystolicConfig(rows=8, cols=8)).peak_macs_per_cycle() == 64

    def test_bad_config(self):
        with pytest.raises(ConfigError):
            SystolicConfig(rows=0)
        with pytest.raises(ConfigError):
            SystolicConfig(fill_drain=-1)


class TestSparseUnit:
    def test_resolve_matches_stream(self):
        prog = make_program()
        unit = SparseUnit(prog)
        stream = prog.gather_streams[STREAM_IA_GATHER]
        assert unit.resolve(STREAM_IA_GATHER, 5) == stream.address(5)

    def test_resolve_unknown_stream_raises(self):
        unit = SparseUnit(make_program())
        with pytest.raises(SimulationError):
            unit.resolve(99, 0)
        with pytest.raises(SimulationError):
            unit.resolve_window(99, [0])

    def test_resolve_window_matches_resolve(self):
        prog = make_program()
        unit = SparseUnit(prog)
        indices = prog.col_stream[:40].tolist()
        assert unit.resolve_window(STREAM_IA_GATHER, indices) == [
            unit.resolve(STREAM_IA_GATHER, i) for i in indices
        ]

    def test_rowptr_window(self):
        prog = make_program()
        unit = SparseUnit(prog)
        start, end = unit.rowptr_window(0)
        assert (start, end) == (int(prog.rowptr[0]), int(prog.rowptr[1]))

    def test_rowptr_window_out_of_range(self):
        unit = SparseUnit(make_program())
        with pytest.raises(SimulationError):
            unit.rowptr_window(10_000)

    def test_occupy_then_idle(self):
        unit = SparseUnit(make_program())
        unit.occupy(100, 50)
        assert unit.next_idle(0) == 150
        assert unit.next_idle(200) == 200

    def test_runahead_queues_behind_real_work(self):
        unit = SparseUnit(make_program())
        unit.occupy(0, 100)
        start = unit.grant_runahead(10, 20)
        assert start == 100
        # A second grant queues behind the first.
        assert unit.grant_runahead(10, 5) == 120
