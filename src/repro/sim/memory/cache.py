"""Set-associative, non-blocking cache with fill timing.

This single model backs both the shared L2 and the paper's NSB (the NSB is
"a compact non-blocking cache architecture ... we implement a high-way
set-associative mapping strategy", Sec. IV-G) — they differ only in
geometry and hit latency, configured via :class:`CacheConfig`.

Timing model: the simulator's clock is monotonic, so a line inserted with a
future ready cycle models an in-progress fill. A later access to that line
before its ready cycle is an *in-flight hit* (MSHR coalesce); after it, a
normal hit. Victims are chosen LRU at allocate time (fill-on-allocate).

Each resident line also carries one bit of prefetch bookkeeping, whether
it is a prefetch fill that no demand has touched yet: evicting such a line
counts one wasted prefetch (see :class:`Cache` for the encoding).
"""

from __future__ import annotations

from dataclasses import dataclass

from ...errors import ConfigError
from ...utils import require_pow2
from .mshr import MSHRFile


@dataclass
class CacheConfig:
    """Geometry and timing of one cache level."""

    size_bytes: int
    assoc: int
    line_bytes: int = 64
    hit_latency: int = 18
    mshr_entries: int = 16
    name: str = "cache"

    def __post_init__(self) -> None:
        require_pow2(self.line_bytes, f"{self.name}.line_bytes")
        if self.size_bytes <= 0 or self.size_bytes % self.line_bytes:
            raise ConfigError(
                f"{self.name}.size_bytes must be a positive multiple of the "
                f"line size, got {self.size_bytes}"
            )
        n_lines = self.size_bytes // self.line_bytes
        if self.assoc < 1 or n_lines % self.assoc:
            raise ConfigError(
                f"{self.name}.assoc must divide the line count "
                f"({n_lines}), got {self.assoc}"
            )
        require_pow2(n_lines // self.assoc, f"{self.name}.n_sets")
        if self.hit_latency < 1:
            raise ConfigError(f"{self.name}.hit_latency must be >= 1")

    @property
    def n_sets(self) -> int:
        return self.size_bytes // self.line_bytes // self.assoc


class LookupKind:
    """String constants for :meth:`Cache.lookup` outcomes."""

    HIT = "hit"
    INFLIGHT = "inflight"
    MISS = "miss"


class Cache:
    """One non-blocking cache level.

    The cache does not know about the next level; the hierarchy composes
    levels and decides what a miss costs. ``lookup``/``allocate`` are the
    whole interface, plus ``touch`` for demand accesses and ``probe`` for
    read-only inspection (used by prefetchers that drop requests already
    resident). All four answer with the line's ready cycle.

    Each set is a dict from tag to one int per resident line: the line's
    ready cycle, stored as ``~ready`` (negative) while the line is a
    prefetch fill that no demand has touched. LRU is the dict's insertion
    order: a recency touch re-inserts the line at the back of its set
    dict, so the front entry is always the least-recently-used victim.
    A demand :meth:`touch` re-inserts the decoded ready cycle, which both
    refreshes recency and clears the untouched mark; :meth:`lookup` (CPU
    traffic) refreshes recency but keeps the mark; a refill over a
    resident line (:meth:`allocate`) touches neither. Evicting a negative
    entry counts one ``prefetch_evicted_unused``.
    """

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        n_sets = config.n_sets
        self._sets: list[dict[int, int]] = [{} for _ in range(n_sets)]
        self.mshr = MSHRFile(config.mshr_entries)
        self.evictions = 0
        self.prefetch_evicted_unused = 0
        # Address math precomputed: line_bytes and n_sets are powers of
        # two (validated by CacheConfig), so set/tag extraction is two
        # shifts and a mask instead of div/mod through two properties.
        self._assoc = config.assoc
        self._line_mask = ~(config.line_bytes - 1)
        self._line_shift = config.line_bytes.bit_length() - 1
        self._set_mask = n_sets - 1
        self._tag_shift = self._line_shift + n_sets.bit_length() - 1

    # -- address helpers ---------------------------------------------------
    def line_addr(self, byte_addr: int) -> int:
        """Align a byte address down to its line address."""
        return byte_addr & self._line_mask

    def _set_index(self, line_addr: int) -> int:
        return (line_addr >> self._line_shift) & self._set_mask

    # -- core operations ---------------------------------------------------
    def probe(self, line_addr: int) -> int | None:
        """Read-only residency check (no LRU update, no stats).

        Returns the line's ready cycle, or None when it is not resident.
        """
        value = self._sets[(line_addr >> self._line_shift) & self._set_mask].get(
            line_addr >> self._tag_shift
        )
        if value is None or value >= 0:
            return value
        return ~value

    def touch(self, line_addr: int) -> int | None:
        """Demand-touch a line: refresh recency and clear its untouched mark.

        Returns the line's ready cycle, or None on a miss. The hierarchy's
        demand path uses this directly (one call per demand line): the
        hit/in-flight distinction is just ``ready <= now``, so the bare
        cycle avoids a tuple and a kind-string comparison per access.
        """
        cache_set = self._sets[(line_addr >> self._line_shift) & self._set_mask]
        tag = line_addr >> self._tag_shift
        ready = cache_set.pop(tag, None)
        if ready is None:
            return None
        if ready < 0:
            ready = ~ready
        cache_set[tag] = ready
        return ready

    def lookup(self, now: int, line_addr: int) -> tuple[str, int | None]:
        """Look up a line, refreshing recency but not its untouched mark.

        Returns ``(LookupKind.HIT, ready)`` for a ready line,
        ``(LookupKind.INFLIGHT, ready)`` for a line still being filled, or
        ``(LookupKind.MISS, None)``.
        """
        cache_set = self._sets[(line_addr >> self._line_shift) & self._set_mask]
        tag = line_addr >> self._tag_shift
        value = cache_set.pop(tag, None)
        if value is None:
            return LookupKind.MISS, None
        cache_set[tag] = value
        ready = value if value >= 0 else ~value
        if ready > now:
            return LookupKind.INFLIGHT, ready
        return LookupKind.HIT, ready

    def allocate(
        self,
        now: int,
        line_addr: int,
        ready_at: int,
        by_prefetch: bool,
    ) -> int:
        """Insert a line (fill-on-allocate), evicting the LRU victim.

        Returns the line's ready cycle. The MSHR entry for the fill must
        be allocated by the caller — the cache only tracks residency and
        recency.
        """
        cache_set = self._sets[(line_addr >> self._line_shift) & self._set_mask]
        tag = line_addr >> self._tag_shift
        existing = cache_set.get(tag)
        if existing is not None:
            # Refill over a resident line (e.g. prefetch into a stale copy):
            # keep the earlier ready time and the untouched mark. No
            # recency touch — a refill is not a use.
            ready = existing if existing >= 0 else ~existing
            if ready_at < ready:
                cache_set[tag] = ready_at if existing >= 0 else ~ready_at
                return ready_at
            return ready
        if len(cache_set) >= self._assoc:
            # Front of the dict = least recently used (see class docstring).
            self.evictions += 1
            if cache_set.pop(next(iter(cache_set))) < 0:
                self.prefetch_evicted_unused += 1
        cache_set[tag] = ~ready_at if by_prefetch else ready_at
        return ready_at

    # -- batch-kernel access -----------------------------------------------
    def hot_state(
        self,
    ) -> tuple[list[dict[int, int]], int, int, int, int]:
        """The lookup state the batched hierarchy kernels inline against.

        Returns ``(sets, line_shift, set_mask, tag_shift, assoc)``: the
        per-set tag dicts plus the precomputed address math, so a batch
        loop can run ``sets[(line >> line_shift) & set_mask].get(line >>
        tag_shift)`` without a method call per line. Values are the
        ready-cycle ints described in the class docstring. The contract
        for writers is the one :meth:`touch` and :meth:`allocate`
        implement: a demand touch re-inserts the decoded ready cycle at
        the back of its set dict, a fill stores ``~ready`` for a prefetch
        and ``ready`` for a demand, and a fill into a full set evicts the
        dict's front entry, counting ``evictions`` and, for a negative
        entry, ``prefetch_evicted_unused``. The sets list itself is never
        reassigned, so the tuple stays valid for the cache's lifetime.
        """
        return (
            self._sets,
            self._line_shift,
            self._set_mask,
            self._tag_shift,
            self._assoc,
        )

    # -- introspection -----------------------------------------------------
    def resident_lines(self) -> int:
        """Number of lines currently allocated (ready or in flight)."""
        return sum(len(s) for s in self._sets)

    def occupancy_fraction(self) -> float:
        """Fraction of capacity holding lines."""
        total = self.config.n_sets * self.config.assoc
        return self.resident_lines() / total if total else 0.0
