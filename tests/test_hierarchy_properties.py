"""Hypothesis property tests over random memory-hierarchy interleavings."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.memory.cache import CacheConfig
from repro.sim.memory.dram import DRAMConfig
from repro.sim.memory.hierarchy import (
    CPUTrafficConfig,
    MemoryConfig,
    MemorySystem,
    default_nsb_config,
)
from repro.sim.request import Access, AccessType
from repro.sim.stats import RunStats


def make_system(nsb: bool) -> MemorySystem:
    cfg = MemoryConfig(
        l2=CacheConfig(size_bytes=4 * 1024, assoc=4, mshr_entries=8, name="l2"),
        dram=DRAMConfig(latency=80, bytes_per_cycle=16),
        nsb=default_nsb_config() if nsb else None,
    )
    return MemorySystem(cfg, RunStats())


# One event: (time delta, line index, is_prefetch, irregular)
events_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=200),
        st.integers(min_value=0, max_value=63),
        st.booleans(),
        st.booleans(),
    ),
    min_size=1,
    max_size=150,
)


class TestHierarchyInvariants:
    @settings(max_examples=60, deadline=None)
    @given(events_strategy, st.booleans())
    def test_random_interleavings_keep_accounting_consistent(self, events, nsb):
        mem = make_system(nsb)
        stats = mem.stats
        now = 0
        for delta, line_idx, is_prefetch, irregular in events:
            now += delta
            line = line_idx * 64
            if is_prefetch:
                ready = mem.prefetch_line(now, line, irregular)
                assert ready is None or ready >= now
            else:
                res = mem.demand_access(now, Access(line, AccessType.DEMAND), irregular)
                # Completion is causal and at least a hit latency away
                # from issue at the serving level.
                assert res.complete_at > now

            # Accounting identities hold after every step.
            l2 = stats.l2
            assert (
                l2.demand_hits + l2.demand_inflight_hits + l2.demand_misses
                == l2.demand_accesses
            )
            pf = stats.prefetch
            assert pf.useful + pf.late <= pf.issued
            assert pf.issued_lines_off_chip <= pf.issued
            assert (
                stats.traffic.off_chip_prefetch_bytes
                == 64 * pf.issued_lines_off_chip
            )
            assert stats.traffic.off_chip_demand_bytes == 64 * l2.demand_misses
            # MSHR occupancy respects capacity.
            assert mem.l2.mshr.occupancy(now) <= mem.l2.mshr.capacity

    @settings(max_examples=30, deadline=None)
    @given(events_strategy)
    def test_prefetched_then_demanded_is_credited_at_most_once(self, events):
        mem = make_system(nsb=False)
        now = 0
        for delta, line_idx, is_prefetch, irregular in events:
            now += delta
            line = line_idx * 64
            if is_prefetch:
                mem.prefetch_line(now, line, irregular)
            else:
                mem.demand_access(now, Access(line, AccessType.DEMAND), irregular)
        pf = mem.stats.prefetch
        # Each issued prefetch can earn at most one credit (useful or late).
        assert pf.useful + pf.late <= pf.issued

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=15), min_size=2, max_size=60))
    def test_second_touch_never_off_chip_within_small_set(self, lines):
        """A working set that fits in the cache never re-misses."""
        mem = make_system(nsb=False)
        seen: set[int] = set()
        now = 0
        for line_idx in lines:
            line = line_idx * 64  # 16 distinct lines; L2 holds 64
            res = mem.demand_access(
                now, Access(line, AccessType.DEMAND), irregular=True
            )
            if line in seen:
                assert not res.off_chip
            seen.add(line)
            now = res.complete_at + 1


def make_small_system(nsb: bool, cpu: bool) -> MemorySystem:
    """64-line L2 and 16-line NSB, optionally with CPU traffic on the L2."""
    nsb_config = CacheConfig(size_bytes=1024, assoc=4, hit_latency=2, name="nsb")
    cfg = MemoryConfig(
        l2=CacheConfig(size_bytes=4 * 1024, assoc=4, mshr_entries=8, name="l2"),
        dram=DRAMConfig(latency=80, bytes_per_cycle=16),
        nsb=nsb_config if nsb else None,
        cpu_traffic=CPUTrafficConfig(footprint_bytes=8 * 1024) if cpu else None,
    )
    return MemorySystem(cfg, RunStats())


# One kernel call: (time delta, is_prefetch, irregular, issue width or
# prefetch budget, line indices). Lines come from a range twice the L2's
# capacity and eight times the NSB's, so sets collide and both levels evict.
kernel_calls_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=120),
        st.booleans(),
        st.booleans(),
        st.integers(min_value=1, max_value=6),
        st.lists(st.integers(min_value=0, max_value=127), min_size=1, max_size=24),
    ),
    min_size=4,
    max_size=40,
)


def _per_line_demand(mem, now, issue_width, lines, irregular):
    done = now
    flags = bytearray(len(lines))
    for k, line in enumerate(lines):
        res = mem.demand_line(now + k // issue_width, line, irregular)
        done = max(done, res.complete_at)
        flags[k] = res.off_chip
    return done, flags


def _per_line_prefetch(mem, now, lines, irregular, max_issue):
    readys = []
    for k, line in enumerate(lines):
        if len(readys) >= max_issue:
            return readys, k
        ready = mem.prefetch_line(now, line, irregular)
        if ready is not None:
            readys.append(ready)
    return readys, len(lines)


def _cache_state(cache):
    return (
        [list(cache_set.items()) for cache_set in cache.hot_state()[0]],
        cache.evictions,
        cache.prefetch_evicted_unused,
    )


class TestBatchKernelsMatchPerLineWalk:
    """``demand_lines``/``prefetch_lines`` against the per-line walk."""

    @settings(max_examples=80, deadline=None)
    @given(kernel_calls_strategy, st.booleans(), st.booleans())
    def test_same_stats_and_cache_contents(self, calls, nsb, cpu):
        walk = make_small_system(nsb, cpu)
        kernel = make_small_system(nsb, cpu)
        now = 0
        for delta, is_prefetch, irregular, width, idxs in calls:
            now += delta
            lines = [idx * 64 for idx in idxs]
            if is_prefetch:
                want = _per_line_prefetch(walk, now, lines, irregular, width)
                got = kernel.prefetch_lines(now, lines, irregular, width)
            else:
                want = _per_line_demand(walk, now, width, lines, irregular)
                got = kernel.demand_lines(now, width, lines, irregular)
            assert got == want
        walk.finalize(now)
        kernel.finalize(now)
        assert kernel.stats == walk.stats
        assert _cache_state(kernel.l2) == _cache_state(walk.l2)
        if nsb:
            assert _cache_state(kernel.nsb) == _cache_state(walk.nsb)
