"""Tests for the MSHR file."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.sim.memory.mshr import MSHRFile


class TestMSHRBasics:
    def test_rejects_zero_capacity(self):
        with pytest.raises(ConfigError):
            MSHRFile(0)

    def test_empty_lookup_returns_none(self):
        mshr = MSHRFile(4)
        assert mshr.lookup(0, 0x1000) is None

    def test_allocate_then_lookup_coalesces(self):
        mshr = MSHRFile(4)
        mshr.allocate(0, 0x1000, ready_at=100)
        assert mshr.lookup(10, 0x1000) == 100
        assert mshr.coalesced == 1

    def test_entry_retires_after_ready(self):
        mshr = MSHRFile(4)
        mshr.allocate(0, 0x1000, ready_at=100)
        assert mshr.lookup(101, 0x1000) is None

    def test_occupancy_counts_outstanding(self):
        mshr = MSHRFile(4)
        mshr.allocate(0, 0x1000, ready_at=100)
        mshr.allocate(0, 0x2000, ready_at=150)
        assert mshr.occupancy(50) == 2
        assert mshr.occupancy(120) == 1
        assert mshr.occupancy(200) == 0

    def test_double_allocate_raises(self):
        mshr = MSHRFile(4)
        mshr.allocate(0, 0x1000, ready_at=100)
        with pytest.raises(ConfigError):
            mshr.allocate(0, 0x1000, ready_at=120)


class TestMSHRFifo:
    """Fills complete in allocation order: the file is a FIFO."""

    @pytest.mark.parametrize("ready_at", [100, 90])
    def test_fill_not_after_newest_raises(self, ready_at):
        mshr = MSHRFile(4)
        mshr.allocate(0, 0x1000, ready_at=100)
        with pytest.raises(ConfigError, match="not after the newest"):
            mshr.allocate(0, 0x2000, ready_at=ready_at)

    def test_retires_oldest_first(self):
        mshr = MSHRFile(4)
        for i, ready in enumerate((100, 110, 120)):
            mshr.allocate(0, 0x1000 * (i + 1), ready_at=ready)
        fills, inflight, capacity = mshr.hot_state()
        assert capacity == 4
        assert list(fills) == [0x1000, 0x2000, 0x3000]
        assert mshr.occupancy(110) == 1
        assert list(fills) == [0x3000]
        assert inflight == {0x3000: 120}

    def test_full_file_waits_for_leftmost(self):
        mshr = MSHRFile(2)
        mshr.allocate(0, 0x1000, ready_at=100)
        mshr.allocate(0, 0x2000, ready_at=150)
        start = mshr.earliest_free_slot(10)
        assert start == 100
        mshr.allocate(start, 0x3000, ready_at=200)
        assert list(mshr.hot_state()[0]) == [0x2000, 0x3000]


class TestMSHRStructural:
    def test_free_slot_when_not_full(self):
        mshr = MSHRFile(2)
        assert mshr.earliest_free_slot(5) == 5

    def test_full_file_defers_to_oldest_retire(self):
        mshr = MSHRFile(2)
        mshr.allocate(0, 0x1000, ready_at=100)
        mshr.allocate(0, 0x2000, ready_at=150)
        assert mshr.earliest_free_slot(10) == 100
        assert mshr.structural_stalls == 1

    def test_allocate_when_full_raises(self):
        mshr = MSHRFile(1)
        mshr.allocate(0, 0x1000, ready_at=100)
        with pytest.raises(ConfigError):
            mshr.allocate(0, 0x2000, ready_at=150)

    def test_peak_occupancy_tracked(self):
        mshr = MSHRFile(8)
        for i in range(5):
            mshr.allocate(0, 0x1000 * (i + 1), ready_at=100 + i)
        assert mshr.peak_occupancy == 5


class TestMSHRProperties:
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=10_000),
                st.integers(min_value=1, max_value=64),
            ),
            min_size=1,
            max_size=64,
        )
    )
    def test_occupancy_never_exceeds_capacity(self, events):
        """Allocating through earliest_free_slot keeps occupancy bounded."""
        capacity = 4
        mshr = MSHRFile(capacity)
        now = 0
        bus_free = 0
        for delay, line_idx in sorted(events):
            now = max(now, delay)
            line = line_idx * 64
            if mshr.lookup(now, line) is not None:
                continue
            start = max(now, mshr.earliest_free_slot(now))
            # A serialising one-cycle bus slot, as DRAM gives every fill.
            slot = max(start, bus_free)
            bus_free = slot + 1
            mshr.allocate(start, line, ready_at=slot + 100)
            assert mshr.occupancy(start) <= capacity
