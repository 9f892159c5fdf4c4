"""Two-sides-sparsity lowering — the second listing of the paper's Fig. 2.

Both operands are compressed: W's indices select *rows of a CSR-encoded
IA*, so each gather's base address **and length** are data
(``IA.rowptr[idx]``, ``IA.rowptr[idx+1]``) rather than affine functions of
the index. The access chain per non-zero becomes:

    W.col_indices[j]  →  IA.rowptr[idx] (metadata lookup)
                      →  IA.values[rowptr[idx] .. rowptr[idx+1])  (segment)

This is the deepest dependency pattern in the paper's taxonomy: stream
prefetchers see noise, IMP's affine fit cannot represent it, and a
CPU-side runahead must make an extra memory hop per element. NVR walks it
on the sparse unit, which owns the compressed-format metadata.
"""

from __future__ import annotations

import numpy as np

from ...errors import ProgramError
from ...sparse.csr import CSRMatrix
from .isa import (
    STREAM_IA_GATHER,
    STREAM_IA_METADATA,
    STREAM_OA_STORE,
    STREAM_W_INDICES,
    STREAM_W_VALUES,
    TileCompute,
    VectorGather,
    VectorLoad,
    VectorStore,
)
from .program import GatherStream, ProgramConfig, SparseProgram, Tile
from .systolic import SystolicModel

# Metadata layout: IA.rowptr entries are int32 pairs; one lookup touches
# rowptr[idx] and rowptr[idx+1], which share a line except at boundaries.
_META_ENTRY_BYTES = 4


def build_two_side_program(
    name: str,
    weights: CSRMatrix,
    activations: CSRMatrix,
    config: ProgramConfig,
) -> SparseProgram:
    """Lower a two-sides-sparse SpMM (sparse W x sparse IA) to tiles.

    Args:
        name: program name.
        weights: sparse W, shape (M, K) — its col_indices select IA rows.
        activations: sparse IA, shape (K, N), CSR-compressed.
        config: lowering parameters (``ia_seg_elems`` is ignored — segment
            lengths come from IA's rowptr).
    """
    if weights.nnz == 0:
        raise ProgramError("cannot lower an all-zero weight matrix")
    if weights.n_cols != activations.n_rows:
        raise ProgramError(
            f"shape mismatch: W is {weights.n_rows}x{weights.n_cols}, "
            f"IA is {activations.n_rows}x{activations.n_cols}"
        )
    cfg = config
    ia_rowptr = activations.rowptr.astype(np.int64)

    values_stream = GatherStream(
        stream_id=STREAM_IA_GATHER,
        base=cfg.ia_base,
        row_bytes=cfg.elem_bytes,  # per-element granularity
        n_slots=activations.n_rows,
        index_map=cfg.index_map,
        table_rowptr=ia_rowptr,
        elem_bytes=cfg.elem_bytes,
    )
    meta_base = cfg.ia2_base
    meta_stream = GatherStream(
        stream_id=STREAM_IA_METADATA,
        base=meta_base,
        row_bytes=2 * _META_ENTRY_BYTES,
        n_slots=activations.n_rows + 1,
        index_map=cfg.index_map,
    )
    streams = {
        STREAM_IA_GATHER: values_stream,
        STREAM_IA_METADATA: meta_stream,
    }

    systolic = SystolicModel(cfg.systolic)
    row_nnz = np.diff(ia_rowptr)
    tiles: list[Tile] = []
    tile_id = 0
    for row in range(weights.n_rows):
        lo, hi = int(weights.rowptr[row]), int(weights.rowptr[row + 1])
        if lo == hi:
            continue
        for j0 in range(lo, hi, cfg.vector_width):
            j1 = min(j0 + cfg.vector_width, hi)
            idx = weights.col_indices[j0:j1].astype(np.int64)
            positions = np.arange(j0, j1, dtype=np.int64)
            w_val = VectorLoad(
                stream_id=STREAM_W_VALUES,
                byte_addrs=cfg.w_val_base + positions * cfg.elem_bytes,
                elem_bytes=cfg.elem_bytes,
            )
            w_idx = VectorLoad(
                stream_id=STREAM_W_INDICES,
                byte_addrs=cfg.w_idx_base + positions * cfg.idx_bytes,
                elem_bytes=cfg.idx_bytes,
            )
            slots = idx if cfg.index_map is None else cfg.index_map[idx].astype(np.int64)
            meta_addrs = meta_base + slots * _META_ENTRY_BYTES
            meta_gather = VectorGather(
                stream_id=STREAM_IA_METADATA,
                index_values=idx,
                byte_addrs=meta_addrs,
                seg_bytes=2 * _META_ENTRY_BYTES,
                affine=False,
            )
            seg_starts = cfg.ia_base + ia_rowptr[slots] * cfg.elem_bytes
            seg_lengths = np.maximum(1, row_nnz[slots] * cfg.elem_bytes)
            value_gather = VectorGather(
                stream_id=STREAM_IA_GATHER,
                index_values=idx,
                byte_addrs=seg_starts.astype(np.int64),
                seg_bytes=int(seg_lengths.max()),
                affine=False,
                seg_bytes_per_elem=seg_lengths.astype(np.int64),
            )
            products = int(row_nnz[slots].sum())
            compute = TileCompute(
                cycles=systolic.tile_cycles(max(1, products), 16),
                sparse_unit_cycles=systolic.sparse_unit_cycles(len(idx)),
            )
            store = None
            if cfg.with_stores and j1 == hi:
                store = VectorStore(
                    stream_id=STREAM_OA_STORE,
                    byte_addrs=cfg.oa_base
                    + row * activations.n_cols * cfg.elem_bytes
                    + np.arange(min(activations.n_cols, 64), dtype=np.int64)
                    * cfg.elem_bytes,
                    elem_bytes=cfg.elem_bytes,
                )
            tiles.append(
                Tile(
                    tile_id=tile_id,
                    row=row,
                    j_start=j0,
                    j_end=j1,
                    w_val_load=w_val,
                    w_idx_load=w_idx,
                    indices=idx,
                    gathers=[meta_gather, value_gather],
                    compute=compute,
                    store=store,
                )
            )
            tile_id += 1
    return SparseProgram(
        name=name,
        tiles=tiles,
        rowptr=weights.rowptr.copy(),
        col_stream=weights.col_indices.astype(np.int64).copy(),
        gather_streams=streams,
        config=cfg,
    )
