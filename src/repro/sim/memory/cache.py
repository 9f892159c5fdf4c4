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

from array import array
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

    The ways live in flat int64 buffers (see :meth:`hot_state`): set
    ``s`` holds its resident lines in ways ``s * assoc`` up to
    ``s * assoc + fill[s]``, least recently used first and most recently
    used last, each as a tag and one stored value: the line's ready
    cycle, stored as ``~ready`` (negative) while the line is a prefetch
    fill that no demand has touched. A recency touch moves the line to
    the last way of its set, so the first way is always the victim.
    A demand :meth:`touch` stores the decoded ready cycle there, which
    both refreshes recency and clears the untouched mark; :meth:`lookup`
    (CPU traffic) refreshes recency but keeps the mark; a refill over a
    resident line (:meth:`allocate`) touches neither. Evicting a negative
    entry counts one ``prefetch_evicted_unused``.
    """

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        n_sets = config.n_sets
        n_ways = n_sets * config.assoc
        # Repetition allocates a buffer of exactly its length (a sized
        # constructor over-allocates), so ASan sees any access past one.
        self._tags = array("q", (0,)) * n_ways
        self._values = array("q", (0,)) * n_ways
        self._fill = array("q", (0,)) * n_sets
        self.mshr = MSHRFile(config.mshr_entries)
        self.evictions = 0
        self.prefetch_evicted_unused = 0
        # Address math precomputed: line_bytes and n_sets are powers of
        # two (validated by CacheConfig), so set/tag extraction is two
        # shifts and a mask instead of div/mod through two properties.
        self._assoc = config.assoc
        self._line_shift = config.line_bytes.bit_length() - 1
        self._set_mask = n_sets - 1
        self._tag_shift = self._line_shift + n_sets.bit_length() - 1

    # -- address helpers ---------------------------------------------------
    def _locate(self, line_addr: int) -> tuple[int, int, int, int, int]:
        """``(set, first way, fill count, tag, way)`` of a line.

        ``way`` is the way holding the line, or -1 when it is absent.
        """
        s = (line_addr >> self._line_shift) & self._set_mask
        base = s * self._assoc
        n = self._fill[s]
        tag = line_addr >> self._tag_shift
        ways = self._tags[base : base + n]
        return s, base, n, tag, base + ways.index(tag) if tag in ways else -1

    def _to_mru(self, base: int, n: int, way: int, tag: int, value: int) -> None:
        """Move ``way`` to the last (most recent) way of its set, storing
        ``value`` there; the ways after it shift down by one."""
        last = base + n - 1
        tags, values = self._tags, self._values
        if way < last:
            tags[way:last] = tags[way + 1 : last + 1]
            values[way:last] = values[way + 1 : last + 1]
        tags[last] = tag
        values[last] = value

    # -- core operations ---------------------------------------------------
    def probe(self, line_addr: int) -> int | None:
        """Read-only residency check (no LRU update, no stats).

        Returns the line's ready cycle, or None when it is not resident.
        """
        way = self._locate(line_addr)[4]
        if way < 0:
            return None
        value = self._values[way]
        return value if value >= 0 else ~value

    def touch(self, line_addr: int) -> int | None:
        """Demand-touch a line: refresh recency and clear its untouched mark.

        Returns the line's ready cycle, or None on a miss. The hierarchy's
        demand path uses this directly (one call per demand line): the
        hit/in-flight distinction is just ``ready <= now``, so the bare
        cycle avoids a tuple and a kind-string comparison per access.
        """
        _, base, n, tag, way = self._locate(line_addr)
        if way < 0:
            return None
        ready = self._values[way]
        if ready < 0:
            ready = ~ready
        self._to_mru(base, n, way, tag, ready)
        return ready

    def lookup(self, now: int, line_addr: int) -> tuple[str, int | None]:
        """Look up a line, refreshing recency but not its untouched mark.

        Returns ``(LookupKind.HIT, ready)`` for a ready line,
        ``(LookupKind.INFLIGHT, ready)`` for a line still being filled, or
        ``(LookupKind.MISS, None)``.
        """
        _, base, n, tag, way = self._locate(line_addr)
        if way < 0:
            return LookupKind.MISS, None
        value = self._values[way]
        self._to_mru(base, n, way, tag, value)
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
        s, base, n, tag, way = self._locate(line_addr)
        values = self._values
        if way >= 0:
            # Refill over a resident line (e.g. prefetch into a stale copy):
            # keep the earlier ready time and the untouched mark. No
            # recency touch — a refill is not a use.
            existing = values[way]
            ready = existing if existing >= 0 else ~existing
            if ready_at < ready:
                values[way] = ready_at if existing >= 0 else ~ready_at
                return ready_at
            return ready
        value = ~ready_at if by_prefetch else ready_at
        if n >= self._assoc:
            # The first way is the least recently used (see the class
            # docstring): the victim moves out as the fill moves in last.
            self.evictions += 1
            if values[base] < 0:
                self.prefetch_evicted_unused += 1
            self._to_mru(base, n, base, tag, value)
        else:
            self._tags[base + n] = tag
            values[base + n] = value
            self._fill[s] = n + 1
        return ready_at

    # -- batch-kernel access -----------------------------------------------
    def hot_state(self) -> tuple[array, array, array, int, int, int, int]:
        """The storage the compiled kernels (``_kernels.c``) work on.

        Returns ``(tags, values, fill, line_shift, set_mask, tag_shift,
        assoc)``: three ``array('q')`` buffers and the precomputed address
        math. ``tags`` and ``values`` hold ``n_sets * assoc`` ways and
        ``fill`` one resident-line count per set, laid out as the class
        docstring says: set ``(line >> line_shift) & set_mask`` holds tag
        ``line >> tag_shift`` in its first ``fill[set]`` ways, LRU first.
        The contract for writers is the one :meth:`touch` and
        :meth:`allocate` implement: a demand touch moves the way last
        and stores its decoded ready cycle, a fill stores ``~ready`` for
        a prefetch and ``ready`` for a demand in the way after the last
        resident one, and a fill into a full set evicts the first way,
        shifting the others down, and counts ``evictions`` and, for a
        negative value, ``prefetch_evicted_unused`` (the compiled kernels
        count these in their own block until ``MemorySystem.finalize``).

        The buffers are never reassigned or resized: the kernels' context
        exports them once (``MemorySystem.__init__``), and while it lives
        an ``array`` refuses to change size.
        """
        return (
            self._tags,
            self._values,
            self._fill,
            self._line_shift,
            self._set_mask,
            self._tag_shift,
            self._assoc,
        )

    def ways(self) -> list[list[tuple[int, int]]]:
        """Each set's resident ``(tag, stored value)`` pairs, LRU first.

        A read-only copy, for tests and inspection; stored values are
        encoded as in :meth:`hot_state`.
        """
        tags, values, assoc = self._tags, self._values, self._assoc
        return [
            list(zip(tags[base : base + n], values[base : base + n]))
            for base, n in zip(range(0, len(tags), assoc), self._fill)
        ]
