"""Stream (stride) prefetcher — Hur & Lin style adaptive stream detection.

The simplest baseline in the paper's comparison: it watches demand line
addresses per architectural stream, confirms a constant line stride, and
runs ``degree`` lines ahead. It is excellent on the sequential W
values/indices streams and helpless on indirect gathers — random deltas
rarely confirm, and when they spuriously do, the issued lines are wrong
(the paper notes stream prefetchers "occasionally introduce performance
penalties due to their lower accuracy").

Capabilities used: demand access addresses only.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..sim.npu.isa import (
    STREAM_IA_GATHER,
    STREAM_IA_GATHER_2,
    STREAM_IA_METADATA,
)
from .base import Prefetcher

IRREGULAR_STREAMS = frozenset(
    {STREAM_IA_GATHER, STREAM_IA_GATHER_2, STREAM_IA_METADATA}
)


@dataclass(slots=True)
class _StreamEntry:
    """Reference-prediction-table row for one stream."""

    last_line: int | None = None
    stride: int = 0
    confidence: int = 0
    frontier: int = 0  # furthest line already requested


class StreamPrefetcher(Prefetcher):
    """Per-stream stride detection with confidence-gated degree prefetch.

    Two components, as in adaptive stream detectors:

    * an aggressive *next-line* ramp that fires on every off-chip miss
      (``ramp_degree`` sequential lines) — cheap coverage on streaming
      code, pure waste on random gathers (the realistic accuracy cost);
    * confirmed *strided streams* that run ``degree`` lines ahead once a
      stride repeats ``confirm`` times.
    """

    name = "stream"

    def __init__(
        self,
        vector_width: int = 16,
        degree: int = 16,
        confirm: int = 2,
        ramp_degree: int = 2,
    ) -> None:
        super().__init__(vector_width)
        self.degree = degree
        self.confirm = confirm
        self.ramp_degree = ramp_degree
        self._table: dict[int, _StreamEntry] = {}

    def attach(self, program, port) -> None:
        super().attach(program, port)
        # Hot-path bindings: on_demand_access fires once per demand line.
        self._line_bytes = port.line_bytes
        self._prefetch_bursts = port.prefetch_bursts

    def on_demand_access(self, now, stream_id, line_addr, idx_value, off_chip):
        entry = self._table.get(stream_id)
        if entry is None:
            entry = self._table[stream_id] = _StreamEntry()
        line_bytes = self._line_bytes
        last_line = entry.last_line
        confidence = entry.confidence
        if last_line is not None:
            delta = (line_addr - last_line) // line_bytes
            if delta == 0:
                return  # same line; no training signal
            if delta == entry.stride:
                confidence = confidence + 1 if confidence < 7 else 7
            else:
                entry.stride = delta
                confidence = 0
            entry.confidence = confidence
        entry.last_line = line_addr
        if confidence < self.confirm:
            if off_chip:
                # Next-line ramp: assume a new ascending stream at every miss.
                ramp = range(
                    line_addr + line_bytes,
                    line_addr + (self.ramp_degree + 1) * line_bytes,
                    line_bytes,
                )
                self._prefetch_bursts(now, (ramp,), stream_id in IRREGULAR_STREAMS)
            return
        if entry.stride == 0:
            return
        degree = self.degree
        step = entry.stride * line_bytes
        if step > 0:
            # Skip the multiples already requested on this stream.
            k0 = max(1, (entry.frontier - line_addr) // step + 1)
            k_end = degree + 1
        else:
            # Stop before the first negative address.
            k0 = 1
            k_end = min(degree, line_addr // -step) + 1
        if k0 < k_end:
            # Multiple k issues at cycle now + k // 4: bursts of four, the
            # first cut short where the window starts mid-group.
            cut = k0 + 4 - k0 % 4
            bursts = [
                range(line_addr + k0 * step, line_addr + min(cut, k_end) * step, step)
            ]
            bursts += [
                range(line_addr + k * step, line_addr + min(k + 4, k_end) * step, step)
                for k in range(cut, k_end, 4)
            ]
            self._prefetch_bursts(now + k0 // 4, bursts, stream_id in IRREGULAR_STREAMS)
        frontier = line_addr + degree * step
        if frontier > entry.frontier:
            entry.frontier = frontier
