"""Tests for the DRAM channel model."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.sim.memory.dram import DRAM, DRAMConfig


class TestDRAMConfig:
    def test_defaults_valid(self):
        DRAMConfig()

    def test_zero_latency_rejected(self):
        with pytest.raises(ConfigError):
            DRAMConfig(latency=0)

    def test_zero_bandwidth_rejected(self):
        with pytest.raises(ConfigError):
            DRAMConfig(bytes_per_cycle=0)

    def test_negative_prefetch_penalty_rejected(self):
        with pytest.raises(ConfigError):
            DRAMConfig(prefetch_penalty=-1)


class TestDRAMTiming:
    def test_single_access_latency(self):
        dram = DRAM(DRAMConfig(latency=100, bytes_per_cycle=16))
        done = dram.access(0, 64)
        assert done == 100 + 4  # latency + 64/16 service

    def test_latency_overlaps_service_queues(self):
        """Two simultaneous requests overlap latency, serialise on the bus."""
        dram = DRAM(DRAMConfig(latency=100, bytes_per_cycle=16))
        first = dram.access(0, 64)
        second = dram.access(0, 64)
        assert first == 104
        assert second == 108  # waited 4 cycles for bus, same latency

    def test_idle_bus_no_queueing(self):
        dram = DRAM(DRAMConfig(latency=100, bytes_per_cycle=16))
        dram.access(0, 64)
        done = dram.access(1000, 64)
        assert done == 1104

    def test_prefetch_penalty_applied(self):
        dram = DRAM(DRAMConfig(latency=100, bytes_per_cycle=16, prefetch_penalty=8))
        done = dram.access(0, 64, is_prefetch=True)
        assert done == 8 + 100 + 4

    def test_busy_accounting(self):
        dram = DRAM(DRAMConfig(latency=100, bytes_per_cycle=16))
        dram.access(0, 64)
        dram.access(0, 64)
        assert dram.busy_cycles == 8
        assert dram.transfers == 2
        assert dram.bytes_transferred == 128


class TestDRAMProperties:
    @given(st.lists(st.integers(min_value=0, max_value=5000), min_size=1, max_size=100))
    def test_completion_monotone_for_sorted_issue(self, times):
        """Completions of in-order issues never go backwards."""
        dram = DRAM(DRAMConfig(latency=50, bytes_per_cycle=8))
        last = -1
        for t in sorted(times):
            done = dram.access(t, 64)
            assert done > t
            assert done >= last
            last = done

    @given(st.integers(min_value=1, max_value=4096))
    def test_service_cycles_positive_and_proportional(self, n_bytes):
        dram = DRAM(DRAMConfig(latency=50, bytes_per_cycle=16))
        s = dram.service_cycles(n_bytes)
        assert s >= 1
        assert s >= n_bytes // 16
