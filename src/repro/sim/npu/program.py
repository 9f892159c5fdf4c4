"""Lowered NPU programs: the tile stream a workload executes.

A :class:`SparseProgram` is the simulator's unit of work — the result of
"compiling" one sparse linear layer (Fig. 2's listing) onto the NPU:

* per row of the sparse weight operand, the non-zeros are chunked into
  vector-width *tiles*;
* each tile carries a streaming W load (values + indices), one or more
  indirect IA gathers whose addresses the sparse unit computes from the
  loaded indices, a compute op sized by the systolic model, and an
  optional output store;
* row/loop structure is kept (``rowptr``, per-tile row ids and element
  ranges) because the LBD's whole job is predicting those boundaries.

The gather address map (``sparse_func``) is program state: affine
(``base + idx * row_bytes``) for matrix workloads, or an arbitrary
``index_map`` permutation for hash/rulebook workloads (MinkowskiNet,
SparseConvNet). Prefetchers cannot read it — only the sparse unit can
evaluate it, which is precisely the asymmetry NVR exploits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ...errors import ProgramError
from ...sparse.csr import CSRMatrix
from .isa import (
    STREAM_IA_GATHER,
    STREAM_IA_GATHER_2,
    STREAM_OA_STORE,
    STREAM_W_INDICES,
    STREAM_W_VALUES,
    TileCompute,
    VectorGather,
    VectorLoad,
    VectorStore,
    fill_line_lists,
)
from .systolic import SystolicConfig, SystolicModel


@dataclass(frozen=True)
class GatherStream:
    """Static description of one indirect-gather address space.

    ``resolve`` (on the sparse unit) computes the segment start address:

    * affine streams — ``base + slot(idx) * row_bytes``, where ``slot``
      is identity or a hash ``index_map``;
    * compressed (two-side) streams — ``base + table_rowptr[slot] *
      elem_bytes``: the target operand is itself CSR-compressed, so both
      the segment base and its *length* are data (a depth-2 chain only
      the sparse unit can walk).
    """

    stream_id: int
    base: int
    row_bytes: int
    n_slots: int
    index_map: np.ndarray | None = None
    table_rowptr: np.ndarray | None = None
    elem_bytes: int = 0

    @property
    def affine(self) -> bool:
        return self.index_map is None and self.table_rowptr is None

    @property
    def compressed(self) -> bool:
        """True for two-side (CSR target) streams."""
        return self.table_rowptr is not None

    def slot(self, idx: int) -> int:
        if self.index_map is None:
            return int(idx)
        return int(self.index_map[int(idx)])

    def address(self, idx: int) -> int:
        slot = self.slot(idx)
        if self.table_rowptr is not None:
            return self.base + int(self.table_rowptr[slot]) * self.elem_bytes
        return self.base + slot * self.row_bytes

    def addresses(self, indices: list[int]) -> list[int]:
        """:meth:`address` of every index in a window, in order."""
        if self.affine:
            base, row_bytes = self.base, self.row_bytes
            return [base + idx * row_bytes for idx in indices]
        return self.address_array(indices).tolist()

    def address_array(self, indices) -> np.ndarray:
        """:meth:`address` of every index as one int64 array.

        Tables are widened to int64 before the address math, so int32
        maps and row pointers cannot wrap.
        """
        slots = np.asarray(indices, dtype=np.int64)
        if self.index_map is not None:
            slots = self.index_map[slots].astype(np.int64)
        if self.table_rowptr is not None:
            starts = self.table_rowptr[slots].astype(np.int64)
            return self.base + starts * self.elem_bytes
        return self.base + slots * self.row_bytes

    def segment_bytes(self, idx: int) -> int:
        """Bytes gathered for one index (dynamic for compressed targets)."""
        if self.table_rowptr is not None:
            slot = self.slot(idx)
            length = int(self.table_rowptr[slot + 1] - self.table_rowptr[slot])
            return max(1, length * self.elem_bytes)
        return self.row_bytes

    def segment_sizes(self, indices: list[int]) -> int | list[int]:
        """:meth:`segment_bytes` over a window: one int for fixed sizes."""
        if self.table_rowptr is None:
            return self.row_bytes
        return [self.segment_bytes(idx) for idx in indices]

    def footprint_bytes(self) -> int:
        if self.table_rowptr is not None:
            return int(self.table_rowptr[-1]) * self.elem_bytes
        return self.n_slots * self.row_bytes


@dataclass
class Tile:
    """One vector-width chunk of a sparse row: the NPU's unit of issue."""

    tile_id: int
    row: int
    j_start: int
    j_end: int
    w_val_load: VectorLoad
    w_idx_load: VectorLoad
    indices: np.ndarray
    gathers: list[VectorGather]
    compute: TileCompute
    store: VectorStore | None


@dataclass
class ProgramConfig:
    """Lowering parameters for :func:`build_one_side_program`.

    Attributes:
        vector_width: elements per tile (the paper's N=16).
        elem_bytes: data width — 1 (INT8), 2 (FP16) or 4 (INT32).
        idx_bytes: index element width (int32).
        ia_seg_elems: activation elements gathered per index.
        dual_gather: add a second gather stream per index (GAT's
            attention-coefficient fetch alongside the feature fetch).
        index_map: optional hash permutation (``sparse_func``) applied to
            indices before addressing — non-affine workloads.
        with_stores: emit output stores (traffic only).
        systolic: compute-time model parameters.
    """

    vector_width: int = 16
    elem_bytes: int = 2
    idx_bytes: int = 4
    ia_seg_elems: int = 64
    dual_gather: bool = False
    index_map: np.ndarray | None = None
    with_stores: bool = True
    systolic: SystolicConfig = field(default_factory=SystolicConfig)

    w_val_base: int = 0x1000_0000
    w_idx_base: int = 0x2000_0000
    ia_base: int = 0x4000_0000
    ia2_base: int = 0x5800_0000
    oa_base: int = 0x7000_0000

    def __post_init__(self) -> None:
        if self.vector_width < 1:
            raise ProgramError("vector_width must be >= 1")
        if self.elem_bytes not in (1, 2, 4, 8):
            raise ProgramError(f"unsupported elem_bytes {self.elem_bytes}")
        if self.ia_seg_elems < 1:
            raise ProgramError("ia_seg_elems must be >= 1")


@dataclass
class SparseProgram:
    """A fully lowered workload: tiles plus the loop/address metadata.

    ``col_stream`` is the full W index stream (the data that lives at the
    W-index addresses); runahead mechanisms may only read a slice of it
    after the corresponding lines have been fetched on-chip.
    """

    name: str
    tiles: list[Tile]
    rowptr: np.ndarray
    col_stream: np.ndarray
    gather_streams: dict[int, GatherStream]
    config: ProgramConfig
    _line_sizes: set[int] = field(
        default_factory=set, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not self.tiles:
            raise ProgramError(f"program '{self.name}' has no tiles")
        if len(self.col_stream) != int(self.rowptr[-1]):
            raise ProgramError("col_stream length must equal nnz")

    def prepare_line_lists(self, line_bytes: int) -> None:
        """Fill every instruction's line lists for ``line_bytes`` at once.

        Engines call this before they issue. The lists depend only on the
        program, so a memoised program pays for each line size once, in
        one whole-program pass (:func:`~.isa.fill_line_lists`).
        """
        if line_bytes in self._line_sizes:
            return
        tiles = self.tiles
        fill_line_lists(
            [t.w_val_load for t in tiles] + [t.w_idx_load for t in tiles],
            [g for t in tiles for g in t.gathers],
            line_bytes,
        )
        self._line_sizes.add(line_bytes)

    @cached_property
    def row_bounds(self) -> list[int]:
        """``rowptr`` as Python ints, derived on first use.

        Runahead reads one row window per tile dispatch; only runs that
        snoop the sparse unit pay for the conversion, once per program.
        """
        return self.rowptr.tolist()

    @property
    def n_tiles(self) -> int:
        return len(self.tiles)

    @property
    def n_rows(self) -> int:
        return len(self.rowptr) - 1

    @property
    def nnz(self) -> int:
        return int(self.rowptr[-1])

    def gather_footprint_bytes(self) -> int:
        """Total bytes of all indirect-gather address spaces."""
        return sum(g.footprint_bytes() for g in self.gather_streams.values())

    def total_demand_elements(self) -> int:
        """Gather elements across the program (sizing for tests/benches)."""
        return sum(len(t.indices) * len(t.gathers) for t in self.tiles)

    def describe(self) -> str:
        return (
            f"{self.name}: {self.n_tiles} tiles, {self.nnz} nnz, "
            f"{self.n_rows} rows, gather footprint "
            f"{self.gather_footprint_bytes() / 1024:.0f} KiB"
        )


def build_one_side_program(
    name: str,
    weights: CSRMatrix,
    config: ProgramConfig,
) -> SparseProgram:
    """Lower a one-side-sparse SpMM (sparse W x dense-stored IA) to tiles.

    Follows the paper's Fig. 2 one-side listing: the j-loop streams W's
    values/indices, and each index gathers one IA row segment. Tiles never
    cross row boundaries (rows are the dynamic loop bounds the LBD
    predicts); short rows simply under-fill their tile.
    """
    if weights.nnz == 0:
        raise ProgramError("cannot lower an all-zero weight matrix")
    cfg = config
    row_bytes = cfg.ia_seg_elems * cfg.elem_bytes
    n_slots = weights.n_cols
    if cfg.index_map is not None:
        if len(cfg.index_map) < weights.n_cols:
            raise ProgramError(
                "index_map must cover all column indices: "
                f"{len(cfg.index_map)} < {weights.n_cols}"
            )
        n_slots = int(cfg.index_map.max()) + 1

    ia_stream = GatherStream(
        stream_id=STREAM_IA_GATHER,
        base=cfg.ia_base,
        row_bytes=row_bytes,
        n_slots=n_slots,
        index_map=cfg.index_map,
    )
    streams = {STREAM_IA_GATHER: ia_stream}
    if cfg.dual_gather:
        # Second, narrower gather (e.g. GAT attention coefficients): one
        # element per index in a separate table.
        streams[STREAM_IA_GATHER_2] = GatherStream(
            stream_id=STREAM_IA_GATHER_2,
            base=cfg.ia2_base,
            row_bytes=cfg.elem_bytes * 4,
            n_slots=n_slots,
            index_map=cfg.index_map,
        )

    # Every address depends only on the program, so each stream's
    # addresses are computed once over the whole W stream, and each tile
    # holds views of them.
    col_stream = weights.col_indices.astype(np.int64)
    positions = np.arange(len(col_stream), dtype=np.int64)
    w_val_addrs = cfg.w_val_base + positions * cfg.elem_bytes
    w_idx_addrs = cfg.w_idx_base + positions * cfg.idx_bytes
    gather_addrs = [
        (stream, stream.address_array(col_stream)) for stream in streams.values()
    ]
    store_offsets = np.arange(cfg.ia_seg_elems, dtype=np.int64) * cfg.elem_bytes
    systolic = SystolicModel(cfg.systolic)
    computes: dict[int, TileCompute] = {}  # immutable, shared per tile size
    rowptr = weights.rowptr.tolist()
    tiles: list[Tile] = []
    tile_id = 0
    for row in range(weights.n_rows):
        lo, hi = rowptr[row], rowptr[row + 1]
        for j0 in range(lo, hi, cfg.vector_width):
            j1 = min(j0 + cfg.vector_width, hi)
            idx = col_stream[j0:j1]
            gathers = [
                VectorGather(
                    stream_id=stream.stream_id,
                    index_values=idx,
                    byte_addrs=addrs[j0:j1],
                    seg_bytes=stream.row_bytes,
                    affine=stream.affine,
                )
                for stream, addrs in gather_addrs
            ]
            store = None
            if cfg.with_stores and j1 == hi:
                store = VectorStore(
                    stream_id=STREAM_OA_STORE,
                    byte_addrs=cfg.oa_base + row * row_bytes + store_offsets,
                    elem_bytes=cfg.elem_bytes,
                )
            compute = computes.get(j1 - j0)
            if compute is None:
                compute = computes[j1 - j0] = TileCompute(
                    cycles=systolic.tile_cycles(j1 - j0, cfg.ia_seg_elems),
                    sparse_unit_cycles=systolic.sparse_unit_cycles(j1 - j0),
                )
            tiles.append(
                Tile(
                    tile_id=tile_id,
                    row=row,
                    j_start=j0,
                    j_end=j1,
                    w_val_load=VectorLoad(
                        stream_id=STREAM_W_VALUES,
                        byte_addrs=w_val_addrs[j0:j1],
                        elem_bytes=cfg.elem_bytes,
                    ),
                    w_idx_load=VectorLoad(
                        stream_id=STREAM_W_INDICES,
                        byte_addrs=w_idx_addrs[j0:j1],
                        elem_bytes=cfg.idx_bytes,
                    ),
                    indices=idx,
                    gathers=gathers,
                    compute=compute,
                    store=store,
                )
            )
            tile_id += 1
    return SparseProgram(
        name=name,
        tiles=tiles,
        rowptr=weights.rowptr.copy(),
        col_stream=col_stream,
        gather_streams=streams,
        config=cfg,
    )
