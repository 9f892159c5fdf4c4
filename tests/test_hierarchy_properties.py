"""Hypothesis property tests over random memory-hierarchy interleavings."""

import copy
import gc
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings
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
# Some index draws are a ``range`` of consecutive lines, which a prefetch
# burst passes on to the kernel as a ``range``: the form VMIG issues a
# single-segment window in.
kernel_calls_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=120),
        st.booleans(),
        st.booleans(),
        st.integers(min_value=1, max_value=6),
        st.one_of(
            st.lists(st.integers(min_value=0, max_value=127), min_size=1, max_size=24),
            st.builds(
                lambda first, n: range(first, first + n),
                st.integers(min_value=0, max_value=127),
                st.integers(min_value=1, max_value=24),
            ),
        ),
    ),
    min_size=4,
    max_size=40,
)


def _as_burst(idxs, lines):
    """The kernel's form of a prefetch burst: a ``range`` stays one."""
    if isinstance(idxs, range):
        return range(idxs.start * 64, idxs.stop * 64, 64)
    return lines


def _per_line_demand(mem, now, issue_width, lines, irregular):
    """``demand_lines`` as ``demand_access`` calls, the reference walk."""
    done = now
    flags = bytearray(len(lines))
    for k, line in enumerate(lines):
        access = Access(line, AccessType.DEMAND)
        res = mem.demand_access(now + k // issue_width, access, irregular)
        done = max(done, res.complete_at)
        flags[k] = res.off_chip
    return done, flags


def _lean_per_line_demand(mem, now, issue_width, lines, irregular):
    """``demand_lines`` as ``demand_line`` calls, decoding each int."""
    done = now
    flags = bytearray(len(lines))
    for k, line in enumerate(lines):
        complete = mem.demand_line(now + k // issue_width, line, irregular)
        if complete < 0:
            complete = ~complete
            flags[k] = 1
        done = max(done, complete)
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
    mshr = cache.mshr
    fills, inflight, _ = mshr.hot_state()
    return (
        [list(cache_set.items()) for cache_set in cache.hot_state()[0]],
        cache.evictions,
        cache.prefetch_evicted_unused,
        list(fills),
        dict(inflight),
        mshr.structural_stalls,
        mshr.peak_occupancy,
        mshr.coalesced,
    )


#: Line indices of five lines of one L2 set (4-way), then the first again:
#: at cycle 0 the fifth evicts line 0 while its fill is still in flight.
EVICTED_IN_FLIGHT = (0, 16, 32, 48, 64, 0)


class TestBatchKernelsMatchPerLineWalk:
    """Both fast walks against the method-based reference.

    The reference issues demands through ``demand_access`` and
    prefetches through ``prefetch_line``; the lean per-line walk issues
    demands through ``demand_line``, and the request-vector kernel
    through ``demand_lines``/``prefetch_lines``.
    """

    @settings(max_examples=80, deadline=None)
    @given(kernel_calls_strategy, st.booleans(), st.booleans())
    @example(calls=[(0, False, True, 8, list(EVICTED_IN_FLIGHT))], nsb=False, cpu=False)
    @example(calls=[(0, False, True, 8, list(EVICTED_IN_FLIGHT))], nsb=True, cpu=False)
    @example(calls=[(0, True, True, 8, list(EVICTED_IN_FLIGHT))], nsb=True, cpu=False)
    def test_same_stats_and_cache_contents(self, calls, nsb, cpu):
        ref = make_small_system(nsb, cpu)
        lean = make_small_system(nsb, cpu)
        kernel = make_small_system(nsb, cpu)
        now = 0
        for delta, is_prefetch, irregular, width, idxs in calls:
            now += delta
            lines = [idx * 64 for idx in idxs]
            if is_prefetch:
                want = _per_line_prefetch(ref, now, lines, irregular, width)
                lean_got = _per_line_prefetch(lean, now, lines, irregular, width)
                got = kernel.prefetch_lines(
                    now, _as_burst(idxs, lines), irregular, width
                )
            else:
                want = _per_line_demand(ref, now, width, lines, irregular)
                lean_got = _lean_per_line_demand(lean, now, width, lines, irregular)
                got = kernel.demand_lines(now, width, lines, irregular)
            assert lean_got == want
            assert got == want
        for mem in (ref, lean, kernel):
            mem.finalize(now)
        for mem in (lean, kernel):
            assert mem.stats == ref.stats
            assert _cache_state(mem.l2) == _cache_state(ref.l2)
            if nsb:
                assert _cache_state(mem.nsb) == _cache_state(ref.nsb)


# One call for the span property: (time delta, is_prefetch, irregular,
# issue width or prefetch budget, spans). A span is (first line index,
# line count); a prefetch issues the spans' flattened lines.
span_calls_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=120),
        st.booleans(),
        st.booleans(),
        st.integers(min_value=1, max_value=6),
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=127),
                st.integers(min_value=0, max_value=4),
            ),
            min_size=1,
            max_size=12,
        ),
    ),
    min_size=2,
    max_size=30,
)


def _dram_counters(mem):
    dram = mem.dram
    return dram._bus_free_at, dram.busy_cycles, dram.transfers, dram.bytes_transferred


class TestSpansMatchFlattenedLines:
    """``demand_lines`` given spans walks exactly the flattened lines.

    One system gets each request vector as spans (element ``e`` covers
    ``counts[e]`` lines from ``firsts[e]``), the other as the flattened
    line list. They agree on the completion cycle, on one flag per
    element (set when any of the element's lines went off-chip), on the
    cache and MSHR contents and, after ``finalize()``, on every counter.
    """

    @settings(max_examples=80, deadline=None)
    @given(span_calls_strategy, st.booleans(), st.booleans())
    def test_same_result_state_and_counters(self, calls, nsb, cpu):
        spans_mem = make_small_system(nsb, cpu)
        flat_mem = make_small_system(nsb, cpu)
        now = 0
        for delta, is_prefetch, irregular, width, spans in calls:
            now += delta
            firsts = [idx * 64 for idx, _ in spans]
            counts = [count for _, count in spans]
            flat = [
                f + k * 64 for f, count in zip(firsts, counts) for k in range(count)
            ]
            if is_prefetch:
                for mem in (spans_mem, flat_mem):
                    mem.prefetch_lines(now, flat, irregular, width)
                continue
            done, flags = spans_mem.demand_lines(now, width, firsts, irregular, counts)
            want_done, line_flags = flat_mem.demand_lines(now, width, flat, irregular)
            want_flags = []
            pos = 0
            for count in counts:
                want_flags.append(int(1 in line_flags[pos : pos + count]))
                pos += count
            assert done == want_done
            assert list(flags) == want_flags
            assert _mshr_fills(spans_mem) == _mshr_fills(flat_mem)
        for mem in (spans_mem, flat_mem):
            mem.finalize(now)
        assert spans_mem.stats == flat_mem.stats
        assert _cache_state(spans_mem.l2) == _cache_state(flat_mem.l2)
        if nsb:
            assert _cache_state(spans_mem.nsb) == _cache_state(flat_mem.nsb)
        assert _dram_counters(spans_mem) == _dram_counters(flat_mem)
        assert spans_mem._pf_pending == flat_mem._pf_pending


class TestFinalizeFoldsTheKernelCounters:
    def _run(self, mem):
        mem.prefetch_lines(0, [i * 64 for i in range(40)], True, 64)
        mem.demand_lines(10, 2, [i * 64 for i in range(0, 120, 3)], True)
        mem.demand_lines(400, 2, [0, 64 * 90], True, [5, 3])
        mem.prefetch_lines(500, range(0, 64 * 60, 64), False, 16)

    def test_counters_land_at_finalize_and_a_second_finalize_adds_nothing(self):
        mem = make_small_system(nsb=True, cpu=False)
        self._run(mem)
        # The kernels count in their own block until the run ends.
        assert mem.stats.l2.demand_accesses == 0
        assert mem.stats.prefetch.issued == 0
        assert mem.dram.transfers == 0
        assert mem.l2.mshr.peak_occupancy == 0
        mem.finalize(1000)
        stats = copy.deepcopy(mem.stats)
        state = (
            _cache_state(mem.l2),
            _cache_state(mem.nsb),
            _dram_counters(mem),
        )
        assert stats.l2.demand_accesses > 0 and stats.prefetch.issued > 0
        assert mem.l2.mshr.peak_occupancy == mem.l2.mshr.capacity
        mem.finalize(1000)
        assert mem.stats == stats
        assert (
            _cache_state(mem.l2),
            _cache_state(mem.nsb),
            _dram_counters(mem),
        ) == state


def _mshr_fills(mem):
    """The L2 MSHR's outstanding ``(line, ready)`` pairs, oldest first."""
    fills, inflight, _ = mem.l2.mshr.hot_state()
    return [(line, inflight[line]) for line in fills]


DEMAND_WALKS = {
    "demand_access": _per_line_demand,
    "demand_line": _lean_per_line_demand,
    "demand_lines": MemorySystem.demand_lines,
}
PREFETCH_WALKS = {
    "prefetch_line": _per_line_prefetch,
    "prefetch_lines": MemorySystem.prefetch_lines,
}


class TestEvictedInFlightLineCoalesces:
    """A line the L2 evicts while its fill is in flight, requested again.

    Five lines of one 4-way L2 set at cycle 0, then the first line again:
    the fifth fill evicts line 0 before its fill (ready at cycle 102)
    lands. The request coalesces onto that fill in every walk: no second
    DRAM transfer, no second MSHR entry, and line 0 ready at 102.
    """

    @pytest.mark.parametrize("nsb", [False, True])
    @pytest.mark.parametrize("walk", DEMAND_WALKS)
    def test_demand(self, walk, nsb):
        mem = make_small_system(nsb, cpu=False)
        lines = [i * 64 for i in EVICTED_IN_FLIGHT]
        done, flags = DEMAND_WALKS[walk](mem, 0, 8, lines, True)
        mem.finalize(0)  # the kernels' counters land here
        assert mem.dram.transfers == 5
        assert mem.stats.l2.demand_misses == 5
        assert mem.stats.l2.demand_inflight_hits == 1
        assert mem.l2.mshr.peak_occupancy == 5
        assert list(flags) == [1, 1, 1, 1, 1, 0]
        # Line 64 is the last fill (cycle 118); a second fill of line 0
        # would have been ready at 122.
        assert done == 118
        assert mem.l2.probe(0) == 102
        if walk == "demand_line":
            assert mem.demand_line(1, 0, True) == 102
        else:
            access = Access(0, AccessType.DEMAND)
            assert mem.demand_access(1, access, True).complete_at == 102
        assert mem.dram.transfers == 5

    @pytest.mark.parametrize("nsb", [False, True])
    @pytest.mark.parametrize("walk", PREFETCH_WALKS)
    def test_prefetch(self, walk, nsb):
        mem = make_small_system(nsb, cpu=False)
        lines = [i * 64 for i in EVICTED_IN_FLIGHT]
        readys, consumed = PREFETCH_WALKS[walk](mem, 0, lines, True, 8)
        mem.finalize(0)
        assert consumed == 6
        assert mem.dram.transfers == 5
        assert mem.l2.mshr.peak_occupancy == 5
        # Prefetches issue after the 4-cycle arbitration penalty: the
        # first fill is ready at 106. With the NSB the re-request pulls
        # the in-flight line into it; without, it is squashed.
        assert readys[:5] == [106, 110, 114, 118, 122]
        assert readys[5:] == ([106] if nsb else [])
        assert mem.stats.prefetch.issued_lines_off_chip == 5
        # A demand now coalesces onto the prefetch's fill: a late prefetch.
        access = Access(0, AccessType.DEMAND)
        assert mem.demand_access(1, access, False).complete_at == 106
        assert mem.stats.prefetch.late == 1
        assert mem.dram.transfers == 5

    @pytest.mark.parametrize("walk", DEMAND_WALKS)
    def test_cpu_traffic(self, walk):
        """The CPU re-touches its own line after the NPU evicted it in flight."""
        mem = make_small_system(nsb=False, cpu=True)
        lcg = mem._cpu_lcg
        demand = DEMAND_WALKS[walk]
        # Cycle 50 is due one CPU line; it injects before the NPU line.
        demand(mem, 50, 8, [0x100000], False)
        cpu_line, ready = next(iter(mem.l2.mshr.hot_state()[1].items()))
        assert mem.cpu_misses == 1
        # Four NPU lines of the CPU line's set evict it while in flight.
        same_set = [cpu_line % (16 * 64) + k * 16 * 64 for k in range(4)]
        demand(mem, 50, 8, same_set, False)
        assert mem.l2.probe(cpu_line) is None
        # Rewind the CPU's address stream: cycle 100 draws the line again.
        mem._cpu_lcg = lcg
        demand(mem, 100, 8, [0x200000], False)
        mem.finalize(100)
        assert mem.cpu_accesses == 2
        assert mem.cpu_misses == 1
        assert mem.dram.transfers == 1 + 1 + 4 + 1
        assert mem.l2.probe(cpu_line) == ready


# One hierarchy operation: (time delta, kind, irregular, issue width or
# prefetch budget, line indices, bulk bytes).
hierarchy_ops_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=120),
        st.sampled_from(("demand", "prefetch", "bulk")),
        st.booleans(),
        st.integers(min_value=1, max_value=6),
        st.lists(st.integers(min_value=0, max_value=127), min_size=1, max_size=24),
        st.integers(min_value=1, max_value=4096),
    ),
    min_size=1,
    max_size=40,
)


class TestMSHRFillsCompleteInOrder:
    """The FIFO MSHR's premise, on every walk.

    Each fill's ready cycle is its DRAM bus slot plus fixed latencies, and
    the bus serialises every transfer (``bulk_transfer`` moves it without
    an MSHR entry), so ready cycles strictly increase in allocation order.
    """

    @settings(max_examples=60, deadline=None)
    @given(hierarchy_ops_strategy, st.booleans(), st.booleans())
    @example(
        ops=[(0, "demand", True, 8, list(EVICTED_IN_FLIGHT), 64)], nsb=True, cpu=False
    )
    def test_ready_cycles_increase_in_allocation_order(self, ops, nsb, cpu):
        walks = [
            (DEMAND_WALKS[demand], PREFETCH_WALKS[prefetch])
            for demand, prefetch in (
                ("demand_access", "prefetch_line"),
                ("demand_line", "prefetch_line"),
                ("demand_lines", "prefetch_lines"),
            )
        ]
        mems = [make_small_system(nsb, cpu) for _ in walks]
        now = 0
        newest = [0] * len(walks)
        for delta, kind, irregular, width, idxs, n_bytes in ops:
            now += delta
            lines = [idx * 64 for idx in idxs]
            for w, (mem, (demand, prefetch)) in enumerate(zip(mems, walks)):
                if kind == "demand":
                    demand(mem, now, width, lines, irregular)
                elif kind == "prefetch":
                    prefetch(mem, now, lines, irregular, width)
                else:
                    mem.bulk_transfer(now, n_bytes)
                readys = [ready for _, ready in _mshr_fills(mem)]
                assert all(a < b for a, b in zip(readys, readys[1:]))
                if readys:
                    assert readys[-1] >= newest[w]
                    newest[w] = readys[-1]
            # Every walk holds the same outstanding fills.
            assert all(_mshr_fills(mem) == _mshr_fills(mems[0]) for mem in mems)


#: Line addresses of the leak batches: high enough that every line, tag
#: and ready cycle is a fresh int object (not one of CPython's cached
#: small ints), so a reference the kernels fail to release keeps memory.
LEAK_BASE = 0x4000_0000


def _kernel_batch(seed: int, calls: int) -> None:
    """A fixed random sequence of kernel calls on a fresh small system.

    Line vectors, spans and prefetch bursts (lists and ranges), with the
    counters folded at the end, as an engine run does.
    """
    rng = random.Random(seed)
    mem = make_small_system(nsb=True, cpu=True)
    now = 0
    for _ in range(calls):
        now += rng.randrange(120)
        irregular = rng.random() < 0.5
        width = rng.randint(1, 6)
        n = rng.randint(1, 24)
        lines = [LEAK_BASE + rng.randrange(128) * 64 for _ in range(n)]
        kind = rng.randrange(4)
        if kind == 0:
            mem.demand_lines(now, width, lines, irregular)
        elif kind == 1:
            mem.prefetch_lines(now, lines, irregular, width)
        elif kind == 2:
            burst = range(lines[0], lines[0] + 64 * n, 64)
            mem.prefetch_lines(now, burst, irregular, width)
        else:
            counts = [rng.randint(1, 3) for _ in lines]
            mem.demand_lines(now, width, lines, irregular, counts)
    mem.finalize(now)


class TestKernelsReleaseWhatTheyTouch:
    """Reference counts in the compiled kernels balance.

    The same batch of calls, on a fresh system each time, runs twice
    under ``tracemalloc``: memory the first batch left behind (one-time
    caches) may stay, but the second may add no more than a small slack.
    A kernel that kept one reference per line (a line, tag or ready
    cycle) would keep tens of kilobytes per batch.
    """

    def test_second_batch_keeps_no_memory(self):
        tracemalloc.start()
        try:
            _kernel_batch(seed=11, calls=600)
            gc.collect()
            after_first = tracemalloc.get_traced_memory()[0]
            _kernel_batch(seed=11, calls=600)
            gc.collect()
            after_second = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert after_second - after_first <= 4096
