"""DVR — Decoupled Vector Runahead (Naithani et al., MICRO 2023).

DVR is the strongest general-purpose baseline: a CPU-side runahead thread
that, once the core stalls on a long-latency miss, speculatively executes
the loop ahead, vectorising the indirect dependency chain across inner-loop
invocations. Modelled faithfully to its capability set:

* **Trigger**: a demand miss (the stall) — not instruction dispatch; DVR
  cannot see the NPU's ROB, so it starts *after* latency is already being
  paid (NVR's Q&A1 contrast).
* **Chain chasing**: it executes the real load slice, so it fetches the
  upcoming W (index) lines, waits for their data, then computes gather
  addresses *with the loop's own address arithmetic*. That arithmetic is
  exact for affine gathers; for hashed gathers the mapping lives in the
  NPU's sparse operators unit, which a CPU thread cannot execute — DVR
  covers only the index side of those chains.
* **Depth**: a fixed runahead window of tiles per invocation, after which
  it idles until the next stall.

Capabilities used: demand addresses + returned index data. No sparse-unit
registers, no ``sparse_func``, no ROB dispatch events.
"""

from __future__ import annotations

import math

from ..sim.npu.isa import (
    STREAM_IA_GATHER,
    STREAM_IA_GATHER_2,
    STREAM_IA_METADATA,
)
from .base import Prefetcher

IRREGULAR_STREAMS = frozenset(
    {STREAM_IA_GATHER, STREAM_IA_GATHER_2, STREAM_IA_METADATA}
)


class DecoupledVectorRunahead(Prefetcher):
    """Stall-triggered vectorised runahead over the loop's dependency chain."""

    name = "dvr"

    def __init__(self, vector_width: int = 16, depth_tiles: int = 8) -> None:
        super().__init__(vector_width)
        self.depth_tiles = depth_tiles
        self._position = 0  # latest tile whose data the core has seen
        # Every tile below the frontier has been chased, or lies behind
        # the position: windows start past a position that only grows.
        self._chased_to = 0
        # tile_id -> W-data ready time for chains awaiting index data,
        # and the earliest of those times (inf when none awaits).
        self._awaiting: dict[int, int] = {}
        self._next_ready = math.inf
        self.invocations = 0

    def attach(self, program, port) -> None:
        super().attach(program, port)
        # Hot-path bindings: on_demand_access fires once per demand line.
        self._line_bytes = port.line_bytes
        self._prefetch_bursts = port.prefetch_bursts

    # -- position tracking (CPU-visible data returns) ---------------------------
    def on_data_return(self, now: int, tile_id: int) -> None:
        self._position = max(self._position, tile_id)
        if now >= self._next_ready:
            self._resolve_ready(now)

    # -- trigger: the core stalls on a miss --------------------------------------
    def on_demand_access(self, now, stream_id, line_addr, idx_value, off_chip):
        # Any long-latency demand miss fills the instruction window and
        # triggers runahead - streaming or gather alike.
        if off_chip:
            self._enter_runahead(now)
        if now >= self._next_ready:
            self._resolve_ready(now)

    def _enter_runahead(self, now: int) -> None:
        """Chase the dependency chain for the next ``depth_tiles`` tiles."""
        program = self.program
        first = max(self._position + 1, self._chased_to)
        end = min(self._position + 1 + self.depth_tiles, program.n_tiles)
        if first >= end:
            return
        self.invocations += 1
        self._chased_to = end
        for burst, t in enumerate(range(first, end)):
            tile = program.tiles[t]
            ready = now
            lines = tile.w_idx_load.line_addr_list(
                self._line_bytes
            ) + tile.w_val_load.line_addr_list(self._line_bytes)
            issued = self._prefetch_bursts(now + burst, (lines,), irregular=False)
            if issued:
                ready = max(ready, max(issued))
            self._awaiting[t] = ready
            if ready < self._next_ready:
                self._next_ready = ready

    # -- second chain hop: index data arrived, compute gather addresses ----------
    def _resolve_ready(self, now: int) -> None:
        """Chase the gathers of every tile whose index data arrived.

        Callers check ``now >= self._next_ready`` first: the demand hook
        fires once per line, and usually nothing is due.
        """
        line_bytes = self._line_bytes
        width = self.vector_width
        for tile_id, ready in list(self._awaiting.items()):
            if ready > now:
                continue
            del self._awaiting[tile_id]
            tile = self.program.tiles[tile_id]
            lines: list[int] = []
            for gather in tile.gathers:
                if not gather.affine:
                    # The hash/rulebook sparse_func is NPU hardware; a
                    # CPU runahead thread cannot evaluate it.
                    continue
                # Affine address arithmetic is part of the loop body the
                # runahead thread executes - exact reconstruction, read
                # from the program's line lists.
                firsts, counts, _, _ = gather.line_span_lists(line_bytes)
                for first, count in zip(firsts, counts):
                    lines += range(first, first + count * line_bytes, line_bytes)
            if lines:
                # Vector-width bursts, one per cycle.
                self._prefetch_bursts(
                    now,
                    [lines[i : i + width] for i in range(0, len(lines), width)],
                    irregular=True,
                )
        self._next_ready = min(self._awaiting.values(), default=math.inf)
