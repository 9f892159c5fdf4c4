"""Tests for the MSHR file."""

from collections import deque

import pytest
from hypothesis import given, settings
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
        assert mshr.capacity == 4
        assert [line for line, _ in mshr.outstanding()] == [0x1000, 0x2000, 0x3000]
        assert mshr.occupancy(110) == 1
        assert [line for line, _ in mshr.outstanding()] == [0x3000]
        assert dict(mshr.outstanding()) == {0x3000: 120}

    def test_full_file_waits_for_leftmost(self):
        mshr = MSHRFile(2)
        mshr.allocate(0, 0x1000, ready_at=100)
        mshr.allocate(0, 0x2000, ready_at=150)
        start = mshr.earliest_free_slot(10)
        assert start == 100
        mshr.allocate(start, 0x3000, ready_at=200)
        assert [line for line, _ in mshr.outstanding()] == [0x2000, 0x3000]


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


class DequeMSHR:
    """The deque-plus-dict model of :class:`MSHRFile`: the oracle for its ring.

    ``fills`` holds the outstanding lines in allocation order beside the
    line -> ready-cycle dict ``inflight``; retiring pops from the left.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.fills: deque[int] = deque()
        self.inflight: dict[int, int] = {}
        self.peak_occupancy = 0
        self.coalesced = 0
        self.structural_stalls = 0

    def _retire(self, now):
        while self.fills and self.inflight[self.fills[0]] <= now:
            del self.inflight[self.fills.popleft()]

    def occupancy(self, now):
        self._retire(now)
        return len(self.inflight)

    def lookup(self, now, line_addr):
        self._retire(now)
        ready = self.inflight.get(line_addr)
        if ready is not None:
            self.coalesced += 1
        return ready

    def earliest_free_slot(self, now):
        self._retire(now)
        if len(self.inflight) < self.capacity:
            return now
        self.structural_stalls += 1
        return self.inflight[self.fills[0]]

    def allocate(self, now, line_addr, ready_at):
        self._retire(now)
        if len(self.inflight) >= self.capacity:
            raise ConfigError("full")
        if line_addr in self.inflight:
            raise ConfigError("double-allocate")
        if self.fills and ready_at <= self.inflight[self.fills[-1]]:
            raise ConfigError("not after the newest")
        self.inflight[line_addr] = ready_at
        self.fills.append(line_addr)
        self.peak_occupancy = max(self.peak_occupancy, len(self.inflight))


#: One MSHR operation: (kind, time step, line index, ready delay). Time
#: only moves forward, as in the simulator; an allocate may break any of
#: its preconditions, and both files must then refuse it alike.
mshr_ops_strategy = st.lists(
    st.tuples(
        st.sampled_from(("lookup", "free", "allocate", "allocate", "occupancy")),
        st.integers(min_value=0, max_value=20),
        st.integers(min_value=0, max_value=11),
        st.integers(min_value=-5, max_value=60),
    ),
    min_size=1,
    max_size=150,
)


class TestMSHRMatchesTheDequeModel:
    """The int64 ring against the deque-plus-dict model, step by step.

    Every return value (or the refusal of an allocate), the outstanding
    fills oldest first, and the coalesced, structural-stall and peak
    counters must match after each step; the ring wraps many times.
    """

    @settings(max_examples=150, deadline=None)
    @given(mshr_ops_strategy, st.integers(min_value=1, max_value=5))
    def test_same_results_fills_and_counters(self, ops, capacity):
        mshr = MSHRFile(capacity)
        model = DequeMSHR(capacity)
        now = newest = 0
        for kind, step, idx, delay in ops:
            now += step
            line = 0x40 * idx
            if kind == "lookup":
                assert mshr.lookup(now, line) == model.lookup(now, line)
            elif kind == "free":
                assert mshr.earliest_free_slot(now) == model.earliest_free_slot(now)
            elif kind == "occupancy":
                assert mshr.occupancy(now) == model.occupancy(now)
            else:
                # Mostly after the newest fill, sometimes not.
                ready = max(now, newest) + delay
                refused = []
                for file in (mshr, model):
                    try:
                        file.allocate(now, line, ready)
                    except ConfigError:
                        refused.append(file)
                assert refused in ([], [mshr, model])
                if not refused:
                    newest = ready
            assert mshr.outstanding() == [
                (line, model.inflight[line]) for line in model.fills
            ]
            assert (mshr.coalesced, mshr.structural_stalls, mshr.peak_occupancy) == (
                model.coalesced,
                model.structural_stalls,
                model.peak_occupancy,
            )
