"""Seeded sparsity-pattern generators.

Cache behaviour under sparse workloads is governed by a handful of
statistics of the index stream — column-popularity skew, per-row length
variance and block structure. Each generator here controls exactly one of
those knobs, and the Table II workloads compose them.

All generators are deterministic functions of their ``seed``.
"""

from __future__ import annotations

import numpy as np

from ..errors import WorkloadError
from ..utils import make_rng
from .csr import CSRMatrix


def _sample_row(
    rng: np.random.Generator,
    n_cols: int,
    k: int,
    probs: np.ndarray | None = None,
) -> np.ndarray:
    """Sample ``k`` distinct, sorted column indices."""
    k = int(min(k, n_cols))
    if k <= 0:
        return np.zeros(0, dtype=np.int64)
    cols = rng.choice(n_cols, size=k, replace=False, p=probs)
    return np.sort(cols.astype(np.int64))


def _build(n_rows: int, n_cols: int, rows_cols: list[np.ndarray]) -> CSRMatrix:
    rowptr = np.zeros(n_rows + 1, dtype=np.int64)
    for r, cols in enumerate(rows_cols):
        rowptr[r + 1] = rowptr[r] + len(cols)
    col_indices = (
        np.concatenate(rows_cols)
        if rows_cols
        else np.zeros(0, dtype=np.int64)
    )
    values = np.ones(len(col_indices), dtype=np.float32)
    return CSRMatrix(n_rows, n_cols, rowptr, col_indices.astype(np.int64), values)


def _check_shape(n_rows: int, n_cols: int, density: float) -> None:
    if n_rows <= 0 or n_cols <= 0:
        raise WorkloadError("matrix shape must be positive")
    if not 0.0 < density <= 1.0:
        raise WorkloadError(f"density must be in (0, 1], got {density}")


def uniform_csr(n_rows: int, n_cols: int, density: float, seed: int = 0) -> CSRMatrix:
    """I.i.d. Bernoulli sparsity — the unstructured-pruning pattern.

    Index streams are uniformly random: worst case for every
    history/pattern prefetcher, the paper's "fine-grained sparsity".
    """
    _check_shape(n_rows, n_cols, density)
    rng = make_rng(seed)
    per_row = rng.binomial(n_cols, density, size=n_rows)
    rows = [_sample_row(rng, n_cols, int(k)) for k in per_row]
    return _build(n_rows, n_cols, rows)


def zipf_csr(
    n_rows: int,
    n_cols: int,
    density: float,
    alpha: float = 1.1,
    seed: int = 0,
) -> CSRMatrix:
    """Zipf-skewed column popularity — heavy-hitter reuse (H2O-like).

    A few hot columns appear in most rows, giving high temporal locality
    on a small subset while the tail stays irregular.
    """
    _check_shape(n_rows, n_cols, density)
    if alpha <= 0:
        raise WorkloadError("zipf alpha must be positive")
    rng = make_rng(seed)
    ranks = np.arange(1, n_cols + 1, dtype=np.float64)
    probs = ranks**-alpha
    probs /= probs.sum()
    # Scatter hot columns through the index space (hotness is not spatial).
    perm = rng.permutation(n_cols)
    probs = probs[perm]
    per_row = rng.binomial(n_cols, density, size=n_rows)
    rows = [_sample_row(rng, n_cols, int(k), probs) for k in per_row]
    return _build(n_rows, n_cols, rows)


def block_csr(
    n_rows: int,
    n_cols: int,
    density: float,
    block: int = 16,
    intra_density: float = 0.9,
    seed: int = 0,
) -> CSRMatrix:
    """Block-structured sparsity — MoE expert tiles / block attention.

    Whole ``block``x``block`` tiles are active or empty; active tiles are
    nearly dense. Index streams are long sequential runs with large jumps
    between blocks — easy for stream prefetchers, hard for capacity.
    """
    _check_shape(n_rows, n_cols, density)
    if block <= 0 or block > max(n_rows, n_cols):
        raise WorkloadError(f"block size {block} out of range")
    rng = make_rng(seed)
    block_rows = -(-n_rows // block)
    block_cols = -(-n_cols // block)
    p_block = min(1.0, density / intra_density)
    active = rng.random((block_rows, block_cols)) < p_block
    rows: list[np.ndarray] = []
    for r in range(n_rows):
        br = r // block
        cols_parts: list[np.ndarray] = []
        for bc in np.nonzero(active[br])[0]:
            lo = bc * block
            width = min(block, n_cols - lo)
            mask = rng.random(width) < intra_density
            cols_parts.append(lo + np.nonzero(mask)[0])
        if cols_parts:
            rows.append(np.sort(np.concatenate(cols_parts)).astype(np.int64))
        else:
            rows.append(np.zeros(0, dtype=np.int64))
    return _build(n_rows, n_cols, rows)


def powerlaw_csr(
    n_rows: int,
    n_cols: int,
    avg_degree: float,
    gamma: float = 2.3,
    seed: int = 0,
) -> CSRMatrix:
    """Power-law bipartite adjacency — GNN graph structure (GCN/GAT).

    Out-degrees follow a truncated power law (hub rows are long — the
    paper's "dynamic loop boundaries") and target popularity is also
    skewed, giving hub-column reuse.
    """
    if n_rows <= 0 or n_cols <= 0:
        raise WorkloadError("matrix shape must be positive")
    if avg_degree <= 0:
        raise WorkloadError("avg_degree must be positive")
    rng = make_rng(seed)
    # Degree sequence: power law, rescaled to the requested mean.
    raw = rng.pareto(gamma - 1.0, size=n_rows) + 1.0
    degrees = np.maximum(1, np.round(raw * (avg_degree / raw.mean()))).astype(np.int64)
    degrees = np.minimum(degrees, n_cols)
    # Target popularity: mildly skewed (hubs attract edges).
    ranks = np.arange(1, n_cols + 1, dtype=np.float64)
    probs = ranks**-0.8
    probs /= probs.sum()
    probs = probs[rng.permutation(n_cols)]
    rows = [_sample_row(rng, n_cols, int(k), probs) for k in degrees]
    return _build(n_rows, n_cols, rows)
