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


def _weighted_rows(
    rng: np.random.Generator, probs: np.ndarray, degrees: np.ndarray
) -> list[np.ndarray]:
    """``np.sort(rng.choice(n, k, replace=False, p=probs))`` per degree ``k``.

    Each row runs ``choice``'s own rounds against one CDF built once (see
    :func:`powerlaw_csr`), and ``probs`` gets ``choice``'s checks once.
    """
    if not np.isfinite(probs).all() or (probs < 0).any():
        raise WorkloadError("probabilities must be finite and non-negative")
    if abs(probs.sum() - 1.0) > np.sqrt(np.finfo(np.float64).eps):
        raise WorkloadError("probabilities do not sum to 1")
    if np.count_nonzero(probs) < degrees.max(initial=0):
        raise WorkloadError("fewer non-zero probabilities than a row's degree")
    cdf0 = np.cumsum(probs)
    cdf0 /= cdf0[-1]
    rows = []
    for k in degrees.tolist():
        found, cdf = np.zeros(0, dtype=np.int64), cdf0
        while len(found) < k:
            drawn = cdf.searchsorted(rng.random(k - len(found)), side="right")
            found = np.sort(np.concatenate((found, drawn)))
            # Distinct columns; np.unique(found) would import numpy.ma (~1.5 MiB).
            found = found[np.diff(found, prepend=-1) != 0]
            if len(found) < k:  # duplicates: redraw the rest, found columns zeroed
                p = probs.copy()
                p[found] = 0.0
                cdf = np.cumsum(p)
                cdf /= cdf[-1]
        rows.append(found)
    return rows


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
    per_row = rng.binomial(n_cols, density, size=n_rows).tolist()
    rows = [np.sort(rng.choice(n_cols, size=k, replace=False)) for k in per_row]
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

    Rows replay ``rng.choice(n_cols, k, replace=False, p=probs)`` on one
    shared CDF, since ``choice`` re-checks and re-sums all of ``probs``
    per row; ``tests/test_sparse_generate.py::TestWeightedRows`` pins the
    replay's rows and generator state to ``choice``'s.
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
    return _build(n_rows, n_cols, _weighted_rows(rng, probs, degrees))
