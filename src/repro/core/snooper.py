"""Snoopers — read-only probes over NPU state (Fig. 3 a).

Runahead triggering and the SD/LBD training downstream consume two
event classes, the NPU side of Sec. IV-C:

1. NPU load-instruction dispatch (ROB) → runahead trigger timing, which
   reaches the controller as the prefetcher's tile-dispatch hook;
2. sparse-unit registers → the row window the LBD learns bounds from,
   which the controller reads through this snooper.

The paper's third class, CPU branch instructions, trains the LBD's
static loop bounds. In this model no runahead decision reads a static
bound, so no engine raises branch events and no mechanism consumes
them; Table I (:mod:`repro.core.overhead`) still budgets the full LBD.

Non-invasiveness is structural: the snooper holds a reference to the
sparse unit but only ever calls its read-only accessors.
"""

from __future__ import annotations

from ..errors import SimulationError
from ..sim.npu.sparse_unit import SparseUnit


class Snooper:
    """NVR's read-only port onto the sparse unit's registers."""

    def __init__(self) -> None:
        self._sparse_unit: SparseUnit | None = None

    def attach_sparse_unit(self, sparse_unit: SparseUnit) -> None:
        self._sparse_unit = sparse_unit

    def read_sparse_window(self, row: int) -> tuple[int, int]:
        """Read the sparse unit's ``(start, end)`` rowptr window for a row."""
        if self._sparse_unit is None:
            raise SimulationError("snooper not attached to a sparse unit")
        return self._sparse_unit.rowptr_window(row)
