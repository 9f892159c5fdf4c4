"""NVRPrefetcher — the composed NVR mechanism (Fig. 3 as a whole, Sec. IV).

Wires the purple blocks — snooper, SD, LBD, SCD, VMIG, controller, and
optionally the NSB — into the one prefetcher the paper evaluates.
Implements the same :class:`~repro.prefetch.base.Prefetcher` interface as
every baseline (Q&A2: NVR sits between CPU and NPU, decoupled from both),
but is the only mechanism granted the NPU-side capabilities: ROB dispatch
events, sparse-unit registers and ``sparse_func`` evaluation. The
:class:`~repro.sim.soc.System` hands those over through :meth:`attach_npu`.
The paper's LBD also snoops CPU branches for static loop bounds; runahead
here reads only the sparse-unit window, so NVR consumes no branch events
(Table I, :mod:`repro.core.overhead`, still budgets the full tables).
"""

from __future__ import annotations

from ..errors import SimulationError
from ..prefetch.base import Prefetcher, PrefetchPort
from ..sim.npu.program import SparseProgram
from ..sim.npu.sparse_unit import SparseUnit
from .controller import NVRConfig, RunaheadController


class NVRPrefetcher(Prefetcher):
    """NPU Vector Runahead (the paper's contribution)."""

    name = "nvr"

    def __init__(self, config: NVRConfig | None = None) -> None:
        cfg = config or NVRConfig()
        super().__init__(cfg.vector_width)
        self.config = cfg
        self._sparse_unit: SparseUnit | None = None
        self.controller: RunaheadController | None = None

    # -- wiring -----------------------------------------------------------------
    def attach(self, program: SparseProgram, port: PrefetchPort) -> None:
        super().attach(program, port)
        self._maybe_build()

    def attach_npu(self, sparse_unit: SparseUnit) -> None:
        """Receive the NPU-side snooping capabilities (System calls this)."""
        self._sparse_unit = sparse_unit
        self._maybe_build()

    def _maybe_build(self) -> None:
        ready = (
            self.program is not None
            and self.port is not None
            and self._sparse_unit is not None
        )
        if ready:
            self.controller = RunaheadController(
                self.config, self.program, self.port, self._sparse_unit
            )

    def _require_controller(self) -> RunaheadController:
        if self.controller is None:
            raise SimulationError(
                "NVRPrefetcher used before attach()/attach_npu() completed"
            )
        return self.controller

    # -- event handlers ------------------------------------------------------------
    def on_tile_dispatch(self, now: int, tile_id: int) -> None:
        controller = self._require_controller()
        controller.on_dispatch(now, self.program.tiles[tile_id])

    def on_data_return(self, now: int, tile_id: int) -> None:
        self._require_controller().on_data_return(now)
