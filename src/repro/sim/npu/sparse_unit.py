"""The NPU's sparse operators unit.

This unit owns the three sparse processing steps of Sec. II-A — align,
skip, tile — and, crucially for NVR, the ``sparse_func`` index-to-address
mapping (identity/affine for CSR matrices, hash/rulebook lookups for point
clouds). Its architectural registers (current row, ``IdxPtr`` window,
sparse mode) are what the snoopers read, and its idle cycles are the
compute resource runahead borrows (Q&A3 in Sec. III).

The unit is deliberately the *only* object able to evaluate ``sparse_func``:
baseline prefetchers (stream/IMP/DVR) have no access to it, reproducing the
capability gap the paper identifies.
"""

from __future__ import annotations

from dataclasses import dataclass

from ...errors import SimulationError
from .program import GatherStream, SparseProgram


@dataclass
class SparseUnitRegisters:
    """Snooper-visible architectural state (read-only probes)."""

    current_row: int = 0
    idxptr_start: int = 0
    idxptr_end: int = 0
    sparse_mode: str = "csr"


class SparseUnit:
    """Sparse processing unit with occupancy tracking.

    The executor calls :meth:`occupy` while a tile's align/skip work runs;
    NVR's controller calls :meth:`next_idle` to schedule speculative
    address computations only in the gaps ("during NPU sparse unit idle
    periods").
    """

    def __init__(self, program: SparseProgram) -> None:
        self._program = program
        self.registers = SparseUnitRegisters(
            sparse_mode="hash"
            if any(not g.affine for g in program.gather_streams.values())
            else "csr"
        )
        self._busy_until = 0
        self.busy_cycles = 0
        self.runahead_grants = 0

    # -- architectural state updated by the executor -----------------------
    def set_position(self, row: int, j_start: int, j_end: int) -> None:
        """Update the snooper-visible row window (IdxPtr start/end)."""
        self.registers.current_row = row
        self.registers.idxptr_start = j_start
        self.registers.idxptr_end = j_end

    def occupy(self, start: int, cycles: int) -> None:
        """Mark the unit busy for its own (non-speculative) work."""
        if cycles <= 0:
            return
        self._busy_until = max(self._busy_until, start) + cycles
        self.busy_cycles += cycles

    # -- services used by NVR ----------------------------------------------
    def next_idle(self, now: int) -> int:
        """Earliest cycle at or after ``now`` when the unit is free."""
        return max(now, self._busy_until)

    def grant_runahead(self, now: int, cycles: int) -> int:
        """Reserve the unit for a speculative burst; returns its start time.

        Runahead work queues behind real work — it never preempts, which
        is the non-invasive guarantee of the design philosophy.
        """
        start = self.next_idle(now)
        self._busy_until = start + cycles
        self.runahead_grants += 1
        return start

    def resolve(self, stream_id: int, idx: int) -> int:
        """Evaluate ``sparse_func`` for one index: the gather's byte address.

        Only the sparse unit can do this — it is the hardware that owns
        the hash tables / rulebooks. NVR calls it during runahead; no
        baseline prefetcher may.
        """
        return self._stream(stream_id).address(idx)

    def resolve_window(self, stream_id: int, indices: list[int]) -> list[int]:
        """:meth:`resolve` for every index of a runahead window, in order."""
        return self._stream(stream_id).addresses(indices)

    def _stream(self, stream_id: int) -> GatherStream:
        stream = self._program.gather_streams.get(stream_id)
        if stream is None:
            raise SimulationError(f"unknown gather stream {stream_id}")
        return stream

    def rowptr_window(self, row: int) -> tuple[int, int]:
        """Snooped ``(rowptr[row], rowptr[row+1])`` — the LBD's sparse bound."""
        rowptr = self._program.rowptr
        if row < 0 or row >= len(rowptr) - 1:
            raise SimulationError(f"row {row} out of range")
        return int(rowptr[row]), int(rowptr[row + 1])

    def gather_stream_ids(self) -> list[int]:
        """Stream ids of the indirect gathers this program performs."""
        return sorted(self._program.gather_streams)

    def utilisation(self, elapsed: int) -> float:
        """Busy fraction, for reporting the idle slack runahead exploits."""
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_cycles / elapsed)
