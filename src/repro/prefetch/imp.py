"""IMP — the Indirect Memory Prefetcher (Yu et al., MICRO 2015).

IMP couples a stride engine on the *index* stream with a learned affine
map ``target_addr = base + (idx << shift)`` for the *indirect* stream:

1. it streams the index array ahead of the core (here: the W index lines
   of upcoming tiles),
2. when prefetched index data arrives it computes the indirect addresses
   through the learned (base, shift) pair and prefetches them.

The (base, shift) pair is *learned* from observed (index value, demand
address) pairs — IMP has no access to the NPU's sparse unit, so:

* on non-affine (hashed) gathers no consistent pair exists and IMP stays
  silent (near-zero coverage on MK/SCN — the paper's point);
* learning needs warm-up misses per stream;
* lookahead is shallow (a couple of tiles), so on long-latency misses a
  good fraction of its prefetches arrive late.

Capabilities used: demand addresses + returned index data. No ROB, no
branch events, no sparse-unit registers.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..sim.npu.isa import STREAM_IA_GATHER, STREAM_IA_GATHER_2
from .base import Prefetcher

_SHIFT_CANDIDATES = tuple(range(1, 13))  # 2-byte .. 4-KiB rows


@dataclass
class _PatternEntry:
    """Indirect Pattern Table row: one (base, shift) hypothesis per stream."""

    base: int = 0
    shift: int = 0
    confidence: int = 0
    locked: bool = False
    last_pair: tuple[int, int] | None = None  # (idx, addr) awaiting a partner
    failures: int = 0


class IndirectMemoryPrefetcher(Prefetcher):
    """Affine indirect prefetcher with an index-stream runahead of depth
    ``lookahead_tiles``."""

    name = "imp"

    def __init__(
        self,
        vector_width: int = 16,
        lookahead_tiles: int = 2,
        lock_confidence: int = 3,
        max_failures: int = 64,
    ) -> None:
        super().__init__(vector_width)
        self.lookahead_tiles = lookahead_tiles
        self.lock_confidence = lock_confidence
        self.max_failures = max_failures
        self._ipt: dict[int, _PatternEntry] = {}
        # Tiles whose W-index lines we prefetched: tile_id -> data-ready time.
        self._pending_w: dict[int, int] = {}
        self._indirect_done: set[int] = set()

    def attach(self, program, port) -> None:
        super().attach(program, port)
        # Hot-path bindings: handlers fire once per demand line / tile.
        self._line_bytes = port.line_bytes
        self._prefetch_many = port.prefetch_many

    # -- pattern learning ------------------------------------------------------
    def _learn(self, stream_id: int, idx: int, addr: int) -> None:
        entry = self._ipt.get(stream_id)
        if entry is None:
            entry = self._ipt[stream_id] = _PatternEntry()
        if entry.locked or entry.failures > self.max_failures:
            return
        if entry.last_pair is None:
            entry.last_pair = (idx, addr)
            return
        idx0, addr0 = entry.last_pair
        entry.last_pair = (idx, addr)
        if idx == idx0:
            return
        for shift in _SHIFT_CANDIDATES:
            base0 = addr0 - (idx0 << shift)
            base1 = addr - (idx << shift)
            if base0 == base1 and base0 >= 0:
                if entry.base == base0 and entry.shift == shift:
                    entry.confidence += 1
                else:
                    entry.base, entry.shift = base0, shift
                    entry.confidence = 1
                if entry.confidence >= self.lock_confidence:
                    entry.locked = True
                return
        entry.confidence = 0
        entry.failures += 1

    def _predict(self, stream_id: int, idx: int) -> int | None:
        entry = self._ipt.get(stream_id)
        if entry is None or not entry.locked:
            return None
        return entry.base + (idx << entry.shift)

    # -- event handlers ---------------------------------------------------------
    def on_demand_access(self, now, stream_id, line_addr, idx_value, result):
        if stream_id in (STREAM_IA_GATHER, STREAM_IA_GATHER_2):
            if idx_value is not None:
                self._learn(stream_id, idx_value, line_addr)
        self._drain_ready(now)

    def on_data_return(self, now: int, tile_id: int) -> None:
        # Index-stream runahead: fetch the W lines of the next tiles.
        program = self.program
        for ahead in range(1, self.lookahead_tiles + 1):
            target = tile_id + ahead
            if target >= program.n_tiles or target in self._pending_w:
                continue
            tile = program.tiles[target]
            ready = now
            lines = tile.w_idx_load.line_addr_list(
                self._line_bytes
            ) + tile.w_val_load.line_addr_list(self._line_bytes)
            issued = self._prefetch_many(now, lines, irregular=False)
            if issued:
                ready = max(ready, max(issued))
            self._pending_w[target] = ready
        self._drain_ready(now)

    # -- indirect issue ----------------------------------------------------------
    def _drain_ready(self, now: int) -> None:
        """Issue indirect prefetches for tiles whose index data arrived."""
        if not self._pending_w:
            return  # hot path: fires per demand line, usually nothing queued
        for tile_id, ready in list(self._pending_w.items()):
            if ready > now:
                continue
            del self._pending_w[tile_id]
            if tile_id in self._indirect_done:
                continue
            self._indirect_done.add(tile_id)
            tile = self.program.tiles[tile_id]
            line_bytes = self._line_bytes
            for gather in tile.gathers:
                entry = self._ipt.get(gather.stream_id)
                if entry is None or not entry.locked:
                    continue
                ats = []
                lines = []
                burst = 0
                width = self.vector_width
                for idx in tile.indices:
                    addr = self._predict(gather.stream_id, int(idx))
                    if addr is None:
                        continue
                    first = (addr // line_bytes) * line_bytes
                    last = ((addr + gather.seg_bytes - 1) // line_bytes) * line_bytes
                    for la in range(first, last + line_bytes, line_bytes):
                        ats.append(now + burst // width)
                        lines.append(la)
                        burst += 1
                if lines:
                    self._prefetch_many(ats, lines, irregular=True)
