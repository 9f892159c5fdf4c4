"""The NVR runahead controller (Sec. IV-C, red circles of Fig. 3).

Entry (Q&A1): runahead starts when a load instruction in the NPU's ROB
executes — our per-tile dispatch event. The controller then:

1. trains SD on the dispatched load's W-values address and the LBD on the
   snooped sparse window (the only bounds it learns: no mechanism
   consumes CPU branch events);
2. computes the runahead window in W-stream positions: the desired depth
   (``depth_tiles`` vectors ahead) clamped by the LBD's fuzzy boundary
   prediction;
3. prefetches the W (value + index) lines for that window — SD-gated, so
   nothing issues until the stride stream is confirmed;
4. once a window's index data is on-chip (its fill completed), resolves
   each index through the *sparse unit* (Q&A3 — PIE work scheduled into
   the unit's idle time via ``grant_runahead``), feeds the SCD, and lets
   VMIG bundle the gather prefetches into vector ops;
5. optionally issues *approximate* prefetches for windows whose data has
   not arrived, using the SCD's extrapolated indices and affine formula.

The controller never reads future program state directly: W addresses are
stride extrapolations, index values are read only from fetched windows,
and gather addresses come from the sparse unit or the SCD formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import ConfigError
from ..prefetch.base import PrefetchPort
from ..sim.npu.isa import STREAM_W_VALUES
from ..sim.npu.program import SparseProgram, Tile
from ..sim.npu.sparse_unit import SparseUnit
from .loop_bound_detector import LoopBoundDetector
from .snooper import Snooper
from .sparse_chain_detector import SparseChainDetector
from .stride_detector import StrideDetector
from .vmig import VMIG


@dataclass
class NVRConfig:
    """NVR tuning knobs (defaults follow the paper's description).

    Attributes:
        vector_width: parallel entries N (Table I default 16).
        depth_tiles: runahead distance in vector tiles.
        fuzz_vectors: extra vectors of boundary overshoot (fuzzy prefetch).
        approximate: enable SCD-extrapolated prefetch before data arrival.
        resolve_cycles_per_elem: sparse-unit occupancy per PIE resolution.
        confirm_stride: SD confirmations before W prefetch starts.
    """

    vector_width: int = 16
    depth_tiles: int = 8
    fuzz_vectors: int = 1
    approximate: bool = True
    approximate_confidence: int = 8
    resolve_cycles_per_elem: float = 0.25
    confirm_stride: int = 2

    def __post_init__(self) -> None:
        if self.vector_width < 1 or self.depth_tiles < 1:
            raise ConfigError("vector_width and depth_tiles must be >= 1")
        if self.fuzz_vectors < 0:
            raise ConfigError("fuzz_vectors must be >= 0")
        if self.resolve_cycles_per_elem < 0:
            raise ConfigError("resolve_cycles_per_elem must be >= 0")
        if not 1 <= self.confirm_stride <= StrideDetector.CONFIDENCE_MAX:
            raise ConfigError(
                "confirm_stride must be in 1.."
                f"{StrideDetector.CONFIDENCE_MAX} (the SD's 2-bit "
                f"confidence counter), got {self.confirm_stride}"
            )

    def to_dict(self) -> dict:
        """Canonical plain-scalar dict (see :mod:`repro.spec.serde`)."""
        from ..spec import serde

        return serde.nvr_config_to_dict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "NVRConfig":
        from ..spec import serde

        return serde.nvr_config_from_dict(d)


@dataclass(slots=True)
class _PendingWindow:
    """A W-stream span whose index data is being fetched by runahead."""

    p0: int
    p1: int
    ready: int
    approx_issued: bool = False


class RunaheadController:
    """Stateful runahead engine behind :class:`~repro.core.nvr.NVRPrefetcher`."""

    def __init__(
        self,
        config: NVRConfig,
        program: SparseProgram,
        port: PrefetchPort,
        sparse_unit: SparseUnit,
    ) -> None:
        self.config = config
        self.program = program
        self.port = port
        self.sparse_unit = sparse_unit
        self.snooper = Snooper()
        self.snooper.attach_sparse_unit(sparse_unit)
        self.sd = StrideDetector(
            n_entries=config.vector_width, confirm=config.confirm_stride
        )
        self.lbd = LoopBoundDetector(
            vector_width=config.vector_width,
            fuzz_vectors=config.fuzz_vectors,
        )
        self.scd = SparseChainDetector(
            n_entries=2 * config.vector_width,
            delta_confidence=config.approximate_confidence,
        )
        self.vmig = VMIG(vector_width=config.vector_width, line_bytes=port.line_bytes)
        # The program's indirect gathers, in the sparse unit's order.
        self._gathers = [
            (stream_id, program.gather_streams[stream_id])
            for stream_id in sparse_unit.gather_stream_ids()
        ]
        # Per-event constants, bound once: every tile dispatch reads them.
        pcfg = program.config
        self._nnz = program.nnz
        self._col_stream = program.col_stream
        self._depth_tiles = config.depth_tiles
        self._depth_elems = config.depth_tiles * pcfg.vector_width
        self._approximate = config.approximate
        self._resolve_cost = config.resolve_cycles_per_elem
        self._w_val_base = pcfg.w_val_base
        self._elem_bytes = pcfg.elem_bytes
        self._w_streams = (
            (pcfg.w_val_base, pcfg.elem_bytes),
            (pcfg.w_idx_base, pcfg.idx_bytes),
        )
        self._w_frontier = 0  # W-stream position prefetched so far
        self._pending: list[_PendingWindow] = []
        self.windows_opened = 0
        self.approx_prefetches = 0
        self.exact_prefetches = 0
        self.runahead_delayed = 0  # grants queued behind real sparse work

    # -- event entry points -------------------------------------------------
    def on_dispatch(self, now: int, tile: Tile) -> None:
        """Q&A1: a load executes in the ROB — enter runahead."""
        j_start, j_end = tile.j_start, tile.j_end
        elem_bytes = self._elem_bytes
        self.sd.observe(
            STREAM_W_VALUES,
            self._w_val_base + j_start * elem_bytes,
            n_elems=j_end - j_start,
            elem_bytes=elem_bytes,
        )
        row = tile.row
        row_start, row_end = self.snooper.read_sparse_window(row)
        lbd = self.lbd
        lbd.observe_sparse_window(row, row_start, row_end)

        if j_end > self._w_frontier:
            self._w_frontier = j_end
        target_end = min(
            j_end + self._depth_elems,
            lbd.predict_stream_limit(j_end, rows_ahead=self._depth_tiles),
        )
        if target_end > self._w_frontier and self.sd.confident(STREAM_W_VALUES):
            self._open_window(now, self._w_frontier, target_end)
        self._resolve_ready(now)

    def on_data_return(self, now: int) -> None:
        """More index data landed on-chip — continue the chain."""
        self._resolve_ready(now)

    # -- stage 1: W stream prefetch ---------------------------------------------
    def _open_window(self, now: int, p0: int, p1: int) -> None:
        self.windows_opened += 1
        ready = now
        window = self.vmig.window
        prefetch_bursts = self.port.prefetch_bursts
        for base, esize in self._w_streams:
            issued = prefetch_bursts(
                now, window(base + p0 * esize, (p1 - p0) * esize), irregular=False
            )
            if issued:
                ready = max(ready, max(issued))
        self._pending.append(_PendingWindow(p0, p1, ready))
        self._w_frontier = p1

    # -- stage 2: resolution through the sparse unit ------------------------------
    def _resolve_ready(self, now: int) -> None:
        if not self._pending:
            return
        nnz = self._nnz
        sparse_unit = self.sparse_unit
        still_pending: list[_PendingWindow] = []
        for win in self._pending:
            if win.ready > now:
                # Approximate extrapolation is only sound within the row
                # in flight: across a boundary the index sequence restarts
                # (the LBD knows exactly where that is).
                if (
                    self._approximate
                    and not win.approx_issued
                    and win.p1 <= self.lbd.current_row_end
                ):
                    self._issue_approximate(now, win)
                still_pending.append(win)
                continue
            p0, p1 = win.p0, min(win.p1, nnz)
            if p0 >= p1:
                continue
            indices = self._col_stream[p0:p1].tolist()
            grant = sparse_unit.grant_runahead(
                now, max(1, math.ceil(len(indices) * self._resolve_cost))
            )
            if grant > now:
                self.runahead_delayed += 1
            for stream_id, stream in self._gathers:
                addrs = sparse_unit.resolve_window(stream_id, indices)
                self.scd.record_window(stream_id, indices, addrs)
                batches = self.vmig.bundle(addrs, stream.segment_sizes(indices))
                self.exact_prefetches += len(
                    self.port.prefetch_bursts(grant, batches, irregular=True)
                )
        self._pending = still_pending

    # -- stage 3: approximate (pre-data) prediction --------------------------------
    def _issue_approximate(self, now: int, win: _PendingWindow) -> None:
        """SCD extrapolation: ``IA = ss_start + (predicted_idx << stride)``."""
        win.approx_issued = True
        count = min(win.p1 - win.p0, self.config.vector_width)
        for stream_id, stream in self._gathers:
            predicted = self.scd.predict_indices(stream_id, count)
            if predicted is None:
                continue
            addrs = []
            for idx in predicted:
                addr = self.scd.formula_address(stream_id, idx)
                if addr is not None:
                    addrs.append(addr)
            batches = self.vmig.bundle(addrs, stream.row_bytes)
            self.approx_prefetches += len(
                self.port.prefetch_bursts(now, batches, irregular=True)
            )
