"""SD — the Stride Detector (Fig. 3 b).

A reference-prediction-table unit that tracks the streaming W accesses:
per stream it keeps the previous address, the stride, a 2-bit confidence
counter and the last-prefetched address (the frontier), exactly the fields
Table I budgets. Its job inside NVR is to predict *future W addresses* so
the runahead thread can fetch index data ahead of the NPU — predictions are
extrapolations from observed addresses, never reads of future program
state.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigError


@dataclass
class SDEntry:
    """One reference-prediction-table row (fields mirror Table I)."""

    prev_addr: int
    prev_len_bytes: int = 0
    stride: int = 0  # per-element stride (bytes)
    confidence: int = 0
    last_prefetch_addr: int | None = None
    last_use: int = 0


class StrideDetector:
    """Per-stream stride learning with a bounded entry table.

    Coarse-grained NPU loads encode base *and* vector length in their
    operands, so the detector normalises address deltas by the previous
    load's extent: for a contiguous stream the per-element stride is the
    element size regardless of how row boundaries chop the tiles — which
    is what keeps confidence up across the short last-tile of every
    sparse row (the failure mode of plain base-delta stride tables).
    """

    CONFIDENCE_MAX = 3  # 2-bit saturating counter

    def __init__(self, n_entries: int = 16, confirm: int = 2) -> None:
        if n_entries < 1:
            raise ConfigError("StrideDetector needs >= 1 entry")
        if not 1 <= confirm <= self.CONFIDENCE_MAX:
            raise ConfigError("confirm must fit the 2-bit confidence counter")
        self.n_entries = n_entries
        self.confirm = confirm
        self._table: dict[int, SDEntry] = {}
        self._clock = 0

    def _entry(self, stream_id: int, addr: int) -> SDEntry:
        entry = self._table.get(stream_id)
        if entry is None:
            if len(self._table) >= self.n_entries:
                victim = min(self._table, key=lambda s: self._table[s].last_use)
                del self._table[victim]
            entry = SDEntry(prev_addr=addr)
            self._table[stream_id] = entry
        return entry

    def observe(
        self, stream_id: int, addr: int, n_elems: int = 1, elem_bytes: int = 1
    ) -> None:
        """Train on one dispatched load: base address plus vector extent."""
        self._clock += 1
        entry = self._entry(stream_id, addr)
        entry.last_use = self._clock
        delta = addr - entry.prev_addr
        if delta != 0:
            if entry.prev_len_bytes > 0 and delta == entry.prev_len_bytes:
                # Contiguous continuation: per-element stride confirmed.
                stride = elem_bytes
            else:
                stride = delta
            if stride == entry.stride:
                entry.confidence = min(entry.confidence + 1, self.CONFIDENCE_MAX)
            else:
                entry.stride = stride
                entry.confidence = 0
        entry.prev_addr = addr
        entry.prev_len_bytes = n_elems * elem_bytes

    def confident(self, stream_id: int) -> bool:
        entry = self._table.get(stream_id)
        return (
            entry is not None
            and entry.stride != 0
            and entry.confidence >= self.confirm
        )

    def predict_window(self, stream_id: int, n_bytes: int) -> tuple[int, int] | None:
        """Advance the prefetch frontier by ``n_bytes``.

        Returns the predicted ``[start, end)`` byte window for the next
        stream data, or None without a confident stride. The frontier
        (``last_prefetch_addr``) guarantees successive calls never
        re-request the same window.
        """
        entry = self._table.get(stream_id)
        if not self.confident(stream_id) or n_bytes <= 0:
            return None
        start = (
            entry.last_prefetch_addr
            if entry.last_prefetch_addr is not None
            else entry.prev_addr + abs(entry.stride)
        )
        end = start + n_bytes
        entry.last_prefetch_addr = end
        return start, end

    @property
    def occupancy(self) -> int:
        return len(self._table)
