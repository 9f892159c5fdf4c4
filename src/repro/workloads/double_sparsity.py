"""DS — Double Sparsity (Yang et al.): sparse-attention KV-cache gathers.

The paper's running example (Fig. 1b): each decode step selects the TopK
highest-scoring KV vectors out of a long context and gathers them. The
decisive traits reproduced here:

* **large index space** — the KV cache spans megabytes, far beyond L2;
* **TopK selection** — per step, ``kv_len / topk_ratio`` token ids,
  unordered in address space;
* **slow set drift** — attention scores evolve slowly, so consecutive
  steps re-select most of the previous step's tokens (label locality),
  plus a hot *recent window* (fresh tokens always attended).

The W operand's "rows" are decode steps; its col_indices are selected
token ids; the gather target is the KV table.
"""

from __future__ import annotations

import numpy as np

from ..errors import WorkloadError
from ..sim.npu.program import ProgramConfig, SparseProgram, build_one_side_program
from ..sparse.csr import CSRMatrix
from ..utils import make_rng
from .base import scaled


def build_selection_rows(
    rng: np.random.Generator,
    steps: int,
    kv_len: int,
    k: int,
    drift: float,
    recent_window: int,
) -> list[np.ndarray]:
    """Per-step selected token ids with persistent-set drift."""
    if k > kv_len:
        raise WorkloadError(f"cannot select {k} of {kv_len} tokens")
    if not 0.0 <= drift <= 1.0:
        raise WorkloadError(f"drift must be in [0, 1], got {drift}")
    if k == kv_len:
        # Every token is selected at every step: the refill loop below
        # would only redraw the full set, and nothing reads the
        # generator after this call.
        return [np.arange(kv_len, dtype=np.int64) for _ in range(steps)]
    active = set(rng.choice(kv_len, size=k, replace=False).tolist())
    rows: list[np.ndarray] = []
    for step in range(steps):
        # Drift: a fraction of the selection is re-scored and replaced.
        n_replace = int(round(drift * k))
        if n_replace:
            active_list = list(active)
            drop = rng.choice(len(active_list), size=n_replace, replace=False)
            for d in drop:
                active.discard(active_list[int(d)])
            while len(active) < k:
                active.add(int(rng.integers(0, kv_len)))
        selection = set(active)
        # Recent window: the newest tokens are always attended.
        hot_end = min(kv_len, recent_window)
        selection.update(range(kv_len - hot_end, kv_len))
        rows.append(np.sort(np.fromiter(selection, dtype=np.int64)))
    return rows


def rows_to_csr(rows: list[np.ndarray], n_cols: int) -> CSRMatrix:
    """Stack per-step selections into the W operand."""
    rowptr = np.zeros(len(rows) + 1, dtype=np.int64)
    for i, r in enumerate(rows):
        rowptr[i + 1] = rowptr[i] + len(r)
    cols = np.concatenate(rows) if rows else np.zeros(0, dtype=np.int64)
    return CSRMatrix(
        len(rows), n_cols, rowptr, cols, np.ones(len(cols), dtype=np.float32)
    )


def build(
    scale: float = 1.0,
    elem_bytes: int = 2,
    seed: int = 0,
    topk_ratio: int = 16,
    kv_len: int = 8192,
    head_dim: int = 64,
    drift: float = 0.15,
) -> SparseProgram:
    """Lower the DS access pattern.

    Args:
        scale: sizes the number of decode steps.
        elem_bytes: data width (INT8/FP16/INT32).
        topk_ratio: parameter-reduction factor (Fig. 1b sweeps this);
            ``k = kv_len / topk_ratio`` tokens are selected per step.
        kv_len: context length (index space).
        head_dim: KV vector elements gathered per selected token.
        drift: fraction of the selection replaced each step, in [0, 1].
    """
    if topk_ratio < 1:
        raise WorkloadError("topk_ratio must be >= 1")
    rng = make_rng(seed)
    k = max(1, kv_len // topk_ratio)
    steps = scaled(56, scale)
    # Budget guard: very dense selections (low ratios) use fewer steps so
    # runs stay comparable in work.
    max_elems = int(20_000 * max(scale, 0.05))
    steps = max(2, min(steps, max_elems // max(1, k)))
    rows = build_selection_rows(rng, steps, kv_len, k, drift, recent_window=32)
    weights = rows_to_csr(rows, kv_len)
    return build_one_side_program(
        "ds",
        weights,
        ProgramConfig(elem_bytes=elem_bytes, ia_seg_elems=head_dim),
    )
