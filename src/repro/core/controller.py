"""The NVR runahead controller (Sec. IV-C, red circles of Fig. 3).

Entry (Q&A1): runahead starts when a load instruction in the NPU's ROB
executes — our per-tile dispatch event. The controller then:

1. trains SD on the dispatched load's stream addresses and the LBD on the
   snooped sparse window;
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
from ..sim.npu.isa import STREAM_W_INDICES, STREAM_W_VALUES
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

    def to_dict(self) -> dict:
        """Canonical plain-scalar dict (see :mod:`repro.spec.serde`)."""
        from ..spec import serde

        return serde.nvr_config_to_dict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "NVRConfig":
        from ..spec import serde

        return serde.nvr_config_from_dict(d)


@dataclass
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
            n_entries=2 * config.vector_width,
            vector_width=config.vector_width,
            fuzz_vectors=config.fuzz_vectors,
        )
        self.scd = SparseChainDetector(
            n_entries=2 * config.vector_width,
            delta_confidence=config.approximate_confidence,
        )
        self.vmig = VMIG(vector_width=config.vector_width, line_bytes=port.line_bytes)
        self._w_frontier = 0  # W-stream position prefetched so far
        self._pending: list[_PendingWindow] = []
        self.windows_opened = 0
        self.approx_prefetches = 0
        self.exact_prefetches = 0
        self.runahead_delayed = 0  # grants queued behind real sparse work

    # -- event entry points -------------------------------------------------
    def on_branch(
        self, now: int, pc: int, counter: int, bound: int, level: int
    ) -> None:
        sample = self.snooper.observe_branch(pc, counter, bound, level)
        self.lbd.observe_branch(sample.pc, sample.counter, sample.bound, sample.level)

    def on_dispatch(self, now: int, tile: Tile) -> None:
        """Q&A1: a load executes in the ROB — enter runahead."""
        self.snooper.observe_dispatch()
        cfg = self.program.config
        self.sd.observe(
            STREAM_W_VALUES,
            int(tile.w_val_load.byte_addrs[0]),
            n_elems=tile.n_elems,
            elem_bytes=cfg.elem_bytes,
        )
        self.sd.observe(
            STREAM_W_INDICES,
            int(tile.w_idx_load.byte_addrs[0]),
            n_elems=tile.n_elems,
            elem_bytes=cfg.idx_bytes,
        )
        window = self.snooper.read_sparse_window(tile.row)
        self.lbd.observe_sparse_window(window.row, window.row_start, window.row_end)

        self._w_frontier = max(self._w_frontier, tile.j_end)
        desired_end = tile.j_end + self.config.depth_tiles * cfg.vector_width
        allowed_end = self.lbd.predict_stream_limit(
            tile.j_end, rows_ahead=self.config.depth_tiles
        )
        target_end = min(desired_end, allowed_end)
        if target_end > self._w_frontier and self.sd.confident(STREAM_W_VALUES):
            self._open_window(now, self._w_frontier, target_end)
        self._resolve_ready(now)

    def on_data_return(self, now: int) -> None:
        """More index data landed on-chip — continue the chain."""
        self._resolve_ready(now)

    # -- stage 1: W stream prefetch ---------------------------------------------
    def _open_window(self, now: int, p0: int, p1: int) -> None:
        cfg = self.program.config
        self.windows_opened += 1
        ready = now
        for base, esize in (
            (cfg.w_val_base, cfg.elem_bytes),
            (cfg.w_idx_base, cfg.idx_bytes),
        ):
            start = base + p0 * esize
            end = base + p1 * esize
            batches = self.vmig.bundle([start], max(1, end - start))
            issued = self._prefetch_batches(now, batches, irregular=False)
            if issued:
                ready = max(ready, max(issued))
        self._pending.append(_PendingWindow(p0=p0, p1=p1, ready=ready))
        self._w_frontier = p1

    # -- stage 2: resolution through the sparse unit ------------------------------
    def _resolve_ready(self, now: int) -> None:
        nnz = self.program.nnz
        still_pending: list[_PendingWindow] = []
        for win in self._pending:
            if win.ready > now:
                # Approximate extrapolation is only sound within the row
                # in flight: across a boundary the index sequence restarts
                # (the LBD knows exactly where that is).
                if (
                    self.config.approximate
                    and not win.approx_issued
                    and win.p1 <= self.lbd.current_row_end
                ):
                    self._issue_approximate(now, win)
                still_pending.append(win)
                continue
            p0, p1 = win.p0, min(win.p1, nnz)
            if p0 >= p1:
                continue
            indices = self.program.col_stream[p0:p1].tolist()
            grant = self.sparse_unit.grant_runahead(
                now,
                max(1, math.ceil(len(indices) * self.config.resolve_cycles_per_elem)),
            )
            if grant > now:
                self.runahead_delayed += 1
            for stream_id in self.sparse_unit.gather_stream_ids():
                stream = self.program.gather_streams[stream_id]
                addrs = self.sparse_unit.resolve_window(stream_id, indices)
                self.scd.record_window(stream_id, indices, addrs)
                batches = self.vmig.bundle(addrs, stream.segment_sizes(indices))
                self.exact_prefetches += len(
                    self._prefetch_batches(grant, batches, irregular=True)
                )
        self._pending = still_pending

    # -- stage 3: approximate (pre-data) prediction --------------------------------
    def _issue_approximate(self, now: int, win: _PendingWindow) -> None:
        """SCD extrapolation: ``IA = ss_start + (predicted_idx << stride)``."""
        win.approx_issued = True
        count = min(win.p1 - win.p0, self.config.vector_width)
        for stream_id in self.sparse_unit.gather_stream_ids():
            predicted = self.scd.predict_indices(stream_id, count)
            if predicted is None:
                continue
            stream = self.program.gather_streams[stream_id]
            addrs = []
            for idx in predicted:
                addr = self.scd.formula_address(stream_id, idx)
                if addr is not None:
                    addrs.append(addr)
            batches = self.vmig.bundle(addrs, stream.row_bytes)
            self.approx_prefetches += len(
                self._prefetch_batches(now, batches, irregular=True)
            )

    # -- issue ------------------------------------------------------------------
    def _prefetch_batches(
        self, at: int, batches: list[list[int]], irregular: bool
    ) -> list[int]:
        """Issue VMIG batch ``i`` at cycle ``at + i`` (fully pipelined,
        Fig. 4); returns the issued fill times."""
        ats: list[int] = []
        lines: list[int] = []
        for batch_i, batch in enumerate(batches):
            ats.extend([at + batch_i] * len(batch))
            lines.extend(batch)
        return self.port.prefetch_many(ats, lines, irregular=irregular)
