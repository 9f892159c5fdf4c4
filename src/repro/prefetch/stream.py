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


@dataclass
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
        self._prefetch_many = port.prefetch_many

    def on_demand_access(self, now, stream_id, line_addr, idx_value, result):
        entry = self._table.get(stream_id)
        if entry is None:
            entry = self._table[stream_id] = _StreamEntry()
        line_bytes = self._line_bytes
        irregular = stream_id in IRREGULAR_STREAMS
        if entry.last_line is not None:
            delta = (line_addr - entry.last_line) // line_bytes
            if delta == 0:
                return  # same line; no training signal
            if delta == entry.stride:
                entry.confidence = min(entry.confidence + 1, 7)
            else:
                entry.stride = delta
                entry.confidence = 0
        entry.last_line = line_addr
        if result.off_chip and entry.confidence < self.confirm:
            # Next-line ramp: assume a new ascending stream at every miss.
            self._prefetch_many(
                now,
                [line_addr + k * line_bytes for k in range(1, self.ramp_degree + 1)],
                irregular,
            )
        if entry.confidence >= self.confirm and entry.stride != 0:
            step = entry.stride * line_bytes
            ats = []
            targets = []
            for k in range(1, self.degree + 1):
                target = line_addr + k * step
                if target <= entry.frontier and entry.stride > 0:
                    continue  # already requested on this stream
                if target < 0:
                    break
                ats.append(now + k // 4)
                targets.append(target)
            if targets:
                self._prefetch_many(ats, targets, irregular)
            entry.frontier = max(entry.frontier, line_addr + self.degree * step)
