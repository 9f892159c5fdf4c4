"""SD — the Stride Detector (Fig. 3 b).

A reference-prediction-table unit that tracks the streaming W accesses:
per stream it keeps the previous address and extent, the stride and a
2-bit confidence counter. Its job inside NVR is to gate runahead: the
controller trains it on the W-values stream at every tile dispatch and
opens a window only once that stride is confirmed, so W prefetches are
extrapolations from observed addresses, never reads of future program
state. The W-index stream moves in lock-step with the W values, so it is
not trained separately, and the window's extent comes from the LBD, so
the table keeps no prefetch frontier. Table I
(:mod:`repro.core.overhead`) still budgets the paper's full SD entry,
``last_prefetch_addr`` included.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigError


@dataclass(slots=True)
class SDEntry:
    """One reference-prediction-table row."""

    prev_addr: int
    prev_len_bytes: int = 0
    stride: int = 0  # per-element stride (bytes)
    confidence: int = 0
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

    @property
    def occupancy(self) -> int:
        return len(self._table)
