"""Tests for the set-associative non-blocking cache."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.sim.memory.cache import Cache, CacheConfig, LookupKind


def small_cache(assoc=2, sets=4, line=64, **kw) -> Cache:
    return Cache(
        CacheConfig(
            size_bytes=assoc * sets * line,
            assoc=assoc,
            line_bytes=line,
            **kw,
        )
    )


class TestCacheConfig:
    def test_valid_geometry(self):
        cfg = CacheConfig(size_bytes=256 * 1024, assoc=8)
        assert cfg.n_sets == 512

    def test_non_pow2_line_rejected(self):
        with pytest.raises(ConfigError):
            CacheConfig(size_bytes=1024, assoc=2, line_bytes=48)

    def test_size_not_multiple_of_line_rejected(self):
        with pytest.raises(ConfigError):
            CacheConfig(size_bytes=1000, assoc=2)

    def test_assoc_must_divide_lines(self):
        with pytest.raises(ConfigError):
            CacheConfig(size_bytes=64 * 16, assoc=3)

    def test_zero_hit_latency_rejected(self):
        with pytest.raises(ConfigError):
            CacheConfig(size_bytes=1024, assoc=2, hit_latency=0)


class TestAddressMath:
    def test_distinct_sets(self):
        cache = small_cache(assoc=1, sets=4)
        for i in range(4):
            cache.allocate(0, i * 64, ready_at=0, by_prefetch=False)
        assert [len(ways) for ways in cache.ways()] == [1, 1, 1, 1]
        assert cache.evictions == 0


class TestLookupAllocate:
    def test_miss_on_empty(self):
        cache = small_cache()
        kind, ready = cache.lookup(0, 0x1000)
        assert kind == LookupKind.MISS
        assert ready is None

    def test_hit_after_ready(self):
        cache = small_cache()
        assert cache.allocate(0, 0x1000, ready_at=50, by_prefetch=False) == 50
        kind, ready = cache.lookup(60, 0x1000)
        assert kind == LookupKind.HIT
        assert ready == 50

    def test_inflight_before_ready(self):
        cache = small_cache()
        cache.allocate(0, 0x1000, ready_at=50, by_prefetch=True)
        kind, ready = cache.lookup(10, 0x1000)
        assert kind == LookupKind.INFLIGHT
        assert ready == 50
        assert cache.probe(0x1000) == cache.touch(0x1000) == 50

    def test_ready_cycle_zero_is_resident(self):
        cache = small_cache()
        cache.allocate(0, 0x000, ready_at=0, by_prefetch=False)
        cache.allocate(0, 0x040, ready_at=0, by_prefetch=True)
        assert cache.probe(0x000) == 0
        assert cache.probe(0x040) == 0

    def test_refill_keeps_earlier_ready(self):
        cache = small_cache()
        cache.allocate(0, 0x1000, ready_at=50, by_prefetch=False)
        assert cache.allocate(60, 0x1000, ready_at=200, by_prefetch=True) == 50
        kind, ready = cache.lookup(70, 0x1000)
        assert kind == LookupKind.HIT
        assert ready == 50

    def test_refill_takes_an_earlier_ready(self):
        cache = small_cache()
        cache.allocate(0, 0x1000, ready_at=200, by_prefetch=True)
        assert cache.allocate(10, 0x1000, ready_at=50, by_prefetch=False) == 50
        assert cache.probe(0x1000) == 50

    def test_probe_does_not_touch_lru(self):
        cache = small_cache(assoc=2, sets=1)
        cache.allocate(0, 0x000, ready_at=0, by_prefetch=False)
        cache.allocate(0, 0x040, ready_at=0, by_prefetch=False)
        cache.probe(0x000)  # must NOT refresh recency of 0x000
        cache.allocate(0, 0x080, ready_at=0, by_prefetch=False)
        assert cache.probe(0x000) is None  # LRU victim was 0x000
        assert cache.probe(0x040) is not None


class TestLRUEviction:
    def test_lru_victim_selected(self):
        cache = small_cache(assoc=2, sets=1)
        cache.allocate(0, 0x000, ready_at=0, by_prefetch=False)
        cache.allocate(0, 0x040, ready_at=0, by_prefetch=False)
        cache.lookup(1, 0x000)  # refresh 0x000 -> LRU is 0x040
        cache.allocate(2, 0x080, ready_at=2, by_prefetch=False)
        assert cache.probe(0x040) is None
        assert cache.probe(0x000) is not None
        assert cache.evictions == 1

    def test_unused_prefetch_eviction_counted(self):
        cache = small_cache(assoc=1, sets=1)
        cache.allocate(0, 0x000, ready_at=0, by_prefetch=True)
        cache.allocate(1, 0x040, ready_at=1, by_prefetch=False)
        assert cache.prefetch_evicted_unused == 1

    def test_touched_prefetch_eviction_not_counted(self):
        cache = small_cache(assoc=1, sets=1)
        cache.allocate(0, 0x000, ready_at=0, by_prefetch=True)
        assert cache.touch(0x000) == 0
        cache.allocate(1, 0x040, ready_at=1, by_prefetch=False)
        assert cache.prefetch_evicted_unused == 0


class TestUntouchedMark:
    """The per-line "prefetch fill no demand has touched" mark."""

    def test_demand_touch_clears_it(self):
        cache = small_cache(assoc=1, sets=1)
        cache.allocate(0, 0x000, ready_at=30, by_prefetch=True)
        assert cache.touch(0x000) == 30
        assert cache.touch(0x000) == 30
        cache.allocate(1, 0x040, ready_at=1, by_prefetch=False)
        assert cache.evictions == 1
        assert cache.prefetch_evicted_unused == 0

    def test_lookup_keeps_it(self):
        cache = small_cache(assoc=1, sets=1)
        cache.allocate(0, 0x000, ready_at=30, by_prefetch=True)
        assert cache.lookup(40, 0x000) == (LookupKind.HIT, 30)
        cache.allocate(41, 0x040, ready_at=41, by_prefetch=False)
        assert cache.prefetch_evicted_unused == 1

    def test_lookup_refreshes_recency(self):
        cache = small_cache(assoc=2, sets=1)
        cache.allocate(0, 0x000, ready_at=0, by_prefetch=True)
        cache.allocate(0, 0x040, ready_at=0, by_prefetch=True)
        cache.lookup(1, 0x000)  # LRU is now 0x040, and both stay untouched
        cache.allocate(2, 0x080, ready_at=2, by_prefetch=False)
        assert cache.probe(0x040) is None
        cache.allocate(3, 0x0C0, ready_at=3, by_prefetch=False)
        assert cache.probe(0x000) is None
        assert cache.prefetch_evicted_unused == 2

    def test_refill_keeps_mark_and_earlier_ready(self):
        cache = small_cache(assoc=1, sets=1)
        cache.allocate(0, 0x000, ready_at=30, by_prefetch=True)
        assert cache.allocate(5, 0x000, ready_at=90, by_prefetch=False) == 30
        assert cache.probe(0x000) == 30
        cache.allocate(6, 0x040, ready_at=6, by_prefetch=False)
        assert cache.prefetch_evicted_unused == 1

    def test_demand_fill_is_never_counted(self):
        cache = small_cache(assoc=1, sets=1)
        cache.allocate(0, 0x000, ready_at=30, by_prefetch=False)
        assert cache.allocate(5, 0x000, ready_at=10, by_prefetch=True) == 10
        cache.allocate(6, 0x040, ready_at=6, by_prefetch=False)
        assert cache.evictions == 1
        assert cache.prefetch_evicted_unused == 0


class TestOccupancy:
    def test_resident_lines_counts(self):
        cache = small_cache(assoc=2, sets=4)
        for i in range(3):
            cache.allocate(0, i * 64, ready_at=0, by_prefetch=False)
        assert sum(len(ways) for ways in cache.ways()) == 3


class TestCacheProperties:
    @settings(max_examples=50)
    @given(st.lists(st.integers(min_value=0, max_value=255), min_size=1, max_size=300))
    def test_repeated_access_always_hits_within_capacity(self, line_idxs):
        """Any working set <= capacity never evicts: second pass all hits."""
        working_set = sorted(set(line_idxs))[:8]  # 8 lines fit in 8-line cache
        cache = small_cache(assoc=2, sets=4)
        for idx in working_set:
            cache.allocate(0, idx * 64 * 4, ready_at=0, by_prefetch=False)
        # Use widely spaced addresses may map to same set; instead assert
        # only that lines we know resident still hit.
        resident = [idx for idx in working_set if cache.probe(idx * 64 * 4) is not None]
        for idx in resident:
            kind, _ = cache.lookup(10, idx * 64 * 4)
            assert kind == LookupKind.HIT

    @settings(max_examples=50)
    @given(st.lists(st.integers(min_value=0, max_value=63), min_size=1, max_size=200))
    def test_set_occupancy_never_exceeds_assoc(self, line_idxs):
        cache = small_cache(assoc=2, sets=4)
        for t, idx in enumerate(line_idxs):
            cache.allocate(t, idx * 64, ready_at=t, by_prefetch=False)
            for ways in cache.ways():
                assert len(ways) <= 2


class DictCache:
    """The dict-per-set model of :class:`Cache`: the oracle for its ways.

    Each set is a dict from tag to stored value (``~ready`` while an
    untouched prefetch fill) whose insertion order is the LRU order: a
    recency touch re-inserts the tag at the back, and a fill into a full
    set evicts the front entry.
    """

    def __init__(self, config: CacheConfig) -> None:
        self.sets: list[dict[int, int]] = [{} for _ in range(config.n_sets)]
        self.assoc = config.assoc
        self.line_shift = config.line_bytes.bit_length() - 1
        self.set_mask = config.n_sets - 1
        self.tag_shift = self.line_shift + config.n_sets.bit_length() - 1
        self.evictions = 0
        self.prefetch_evicted_unused = 0

    def _where(self, line_addr: int) -> tuple[dict[int, int], int]:
        index = (line_addr >> self.line_shift) & self.set_mask
        return self.sets[index], line_addr >> self.tag_shift

    def probe(self, line_addr):
        cache_set, tag = self._where(line_addr)
        value = cache_set.get(tag)
        return value if value is None or value >= 0 else ~value

    def touch(self, line_addr):
        cache_set, tag = self._where(line_addr)
        ready = cache_set.pop(tag, None)
        if ready is None:
            return None
        cache_set[tag] = ready = ready if ready >= 0 else ~ready
        return ready

    def lookup(self, now, line_addr):
        cache_set, tag = self._where(line_addr)
        value = cache_set.pop(tag, None)
        if value is None:
            return LookupKind.MISS, None
        cache_set[tag] = value
        ready = value if value >= 0 else ~value
        return (LookupKind.INFLIGHT if ready > now else LookupKind.HIT), ready

    def allocate(self, now, line_addr, ready_at, by_prefetch):
        cache_set, tag = self._where(line_addr)
        existing = cache_set.get(tag)
        if existing is not None:
            ready = existing if existing >= 0 else ~existing
            if ready_at < ready:
                cache_set[tag] = ready_at if existing >= 0 else ~ready_at
                return ready_at
            return ready
        if len(cache_set) >= self.assoc:
            self.evictions += 1
            if cache_set.pop(next(iter(cache_set))) < 0:
                self.prefetch_evicted_unused += 1
        cache_set[tag] = ~ready_at if by_prefetch else ready_at
        return ready_at


#: One cache operation: (kind, line index, cycle, by_prefetch). Line
#: indices span twice the test cache's capacity, so half the lookups
#: hit and every set fills, refills and evicts.
cache_ops_strategy = st.lists(
    st.tuples(
        st.sampled_from(("probe", "touch", "lookup", "allocate")),
        st.integers(min_value=0, max_value=15),
        st.integers(min_value=0, max_value=300),
        st.booleans(),
    ),
    min_size=8,
    max_size=200,
)


class TestCacheMatchesTheDictModel:
    """The way buffers against the dict-per-set model, operation by operation.

    Every return value, every set's resident lines in LRU order (with
    their stored values and untouched marks) and both eviction counters
    must match after each step.
    """

    @settings(max_examples=150, deadline=None)
    @given(cache_ops_strategy, st.sampled_from([(1, 4), (2, 4), (4, 2), (8, 1)]))
    # A direct-mapped set: the victim is also the last way.
    @example(ops=[("allocate", 3, 0, False), ("allocate", 7, 0, False)], geometry=(1, 4))
    def test_same_results_ways_and_counters(self, ops, geometry):
        assoc, sets = geometry
        cache = small_cache(assoc=assoc, sets=sets)
        model = DictCache(cache.config)
        for kind, idx, cycle, by_prefetch in ops:
            line = idx * 64
            if kind == "allocate":
                args = (cycle, line, cycle + 10, by_prefetch)
            elif kind == "lookup":
                args = (cycle, line)
            else:
                args = (line,)
            assert getattr(cache, kind)(*args) == getattr(model, kind)(*args)
            assert cache.ways() == [list(s.items()) for s in model.sets]
            assert (cache.evictions, cache.prefetch_evicted_unused) == (
                model.evictions,
                model.prefetch_evicted_unused,
            )
        assert sum(map(len, cache.ways())) == sum(len(s) for s in model.sets)
