"""Tests for the Table II workload generators."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.sim.npu.isa import STREAM_IA_GATHER
from repro.workloads import (
    WORKLOAD_INFO,
    WORKLOAD_ORDER,
    build_workload,
    trace_stats,
)
from repro.workloads.base import scaled
from repro.workloads.double_sparsity import build_selection_rows, rows_to_csr
from repro.utils import make_rng

SCALE = 0.3  # keep unit tests quick


class TestRegistry:
    def test_all_eight_present(self):
        assert set(WORKLOAD_ORDER) == set(WORKLOAD_INFO)
        assert len(WORKLOAD_ORDER) == 8

    def test_table2_domains(self):
        assert WORKLOAD_INFO["ds"].domain == "large language model"
        assert WORKLOAD_INFO["mk"].domain == "point cloud"
        assert WORKLOAD_INFO["st"].domain == "mixture of experts"
        assert WORKLOAD_INFO["gcn"].domain == "graph neural networks"

    def test_unknown_workload_rejected(self):
        with pytest.raises(WorkloadError):
            build_workload("resnet")

    def test_case_insensitive(self):
        prog = build_workload("DS", scale=SCALE)
        assert prog.name == "ds"

    @pytest.mark.parametrize("short", WORKLOAD_ORDER)
    def test_builds_and_is_deterministic(self, short):
        a = build_workload(short, scale=SCALE, seed=5)
        b = build_workload(short, scale=SCALE, seed=5)
        assert a.nnz == b.nnz
        assert np.array_equal(a.col_stream, b.col_stream)

    @pytest.mark.parametrize("short", WORKLOAD_ORDER)
    def test_seed_changes_trace(self, short):
        a = build_workload(short, scale=SCALE, seed=1)
        b = build_workload(short, scale=SCALE, seed=2)
        assert not (a.nnz == b.nnz and np.array_equal(a.col_stream, b.col_stream))

    @pytest.mark.parametrize("short", WORKLOAD_ORDER)
    def test_footprint_exceeds_l2(self, short):
        """Every workload's gather space must outsize the 256 KiB L2."""
        prog = build_workload(short, scale=SCALE)
        assert prog.gather_footprint_bytes() > 256 * 1024

    @pytest.mark.parametrize("short", WORKLOAD_ORDER)
    def test_scale_grows_trace(self, short):
        small = build_workload(short, scale=0.2)
        big = build_workload(short, scale=0.6)
        assert big.total_demand_elements() > small.total_demand_elements()

    @pytest.mark.parametrize("short", WORKLOAD_ORDER)
    def test_dtype_applied(self, short):
        prog = build_workload(short, scale=SCALE, elem_bytes=4)
        assert prog.config.elem_bytes == 4


class TestWorkloadCharacter:
    """Each workload must exhibit its domain's decisive traits."""

    def test_hashed_workloads_non_affine(self):
        for short in ("mk", "scn"):
            prog = build_workload(short, scale=SCALE)
            assert not prog.gather_streams[STREAM_IA_GATHER].affine

    def test_matrix_workloads_affine(self):
        for short in ("ds", "gcn", "gat", "gsabt", "h2o", "st"):
            prog = build_workload(short, scale=SCALE)
            assert prog.gather_streams[STREAM_IA_GATHER].affine

    def test_gat_has_dual_gather(self):
        prog = build_workload("gat", scale=SCALE)
        assert all(len(t.gathers) == 2 for t in prog.tiles)

    def test_st_most_local(self):
        st = trace_stats(build_workload("st", scale=SCALE))
        others = [
            trace_stats(build_workload(s, scale=SCALE)).locality_score
            for s in ("ds", "gcn", "mk")
        ]
        assert st.locality_score > max(others)

    def test_hash_workloads_zero_locality(self):
        for short in ("mk", "scn"):
            ts = trace_stats(build_workload(short, scale=SCALE))
            assert ts.locality_score < 0.05

    def test_graph_workloads_dynamic_bounds(self):
        """Power-law degrees: high row-length variation (MoE/GNN trait)."""
        gcn = trace_stats(build_workload("gcn", scale=SCALE))
        ds = trace_stats(build_workload("ds", scale=SCALE))
        assert gcn.row_length_cv > 1.0
        assert ds.row_length_cv < 0.2  # TopK rows are near-constant

    def test_h2o_reuses_more_than_uniform_selection(self):
        h2o = trace_stats(build_workload("h2o", scale=SCALE))
        assert h2o.reuse_factor > 2.0

    def test_st_highest_reuse(self):
        st = trace_stats(build_workload("st", scale=SCALE))
        for other in ("ds", "gcn", "mk", "scn"):
            ts = trace_stats(build_workload(other, scale=SCALE))
            assert st.reuse_factor > ts.reuse_factor


class TestDSBuildingBlocks:
    def test_selection_rows_sizes(self):
        rng = make_rng(0)
        rows = build_selection_rows(
            rng, steps=5, kv_len=1000, k=100, drift=0.1, recent_window=16
        )
        assert len(rows) == 5
        for r in rows:
            assert 100 <= len(r) <= 132  # k plus window overlap slack
            assert np.all(np.diff(r) > 0)

    def test_selection_drift_persistence(self):
        rng = make_rng(0)
        rows = build_selection_rows(
            rng, steps=3, kv_len=4096, k=200, drift=0.1, recent_window=0
        )
        overlap = len(set(rows[0].tolist()) & set(rows[1].tolist()))
        assert overlap > 150  # most of the selection persists

    def test_selection_k_too_large(self):
        with pytest.raises(WorkloadError):
            build_selection_rows(make_rng(0), 1, 10, 50, 0.1, 0)

    def test_rows_to_csr(self):
        rows = [np.array([1, 3], dtype=np.int64), np.array([0], dtype=np.int64)]
        csr = rows_to_csr(rows, 5)
        assert csr.nnz == 3
        assert list(csr.rowptr) == [0, 2, 3]

    def test_topk_ratio_controls_density(self):
        dense = build_workload("ds", scale=SCALE, topk_ratio=4)
        sparse = build_workload("ds", scale=SCALE, topk_ratio=32)
        dense_k = np.diff(dense.rowptr).max()
        sparse_k = np.diff(sparse.rowptr).max()
        assert dense_k > 4 * sparse_k

    def test_bad_ratio_rejected(self):
        with pytest.raises(WorkloadError):
            build_workload("ds", topk_ratio=0)

    @pytest.mark.parametrize("drift", [1.5, -0.5])
    @pytest.mark.parametrize("topk_ratio", [1, 16])
    def test_drift_outside_unit_interval_rejected(self, drift, topk_ratio):
        with pytest.raises(WorkloadError, match="drift"):
            build_workload("ds", scale=0.05, topk_ratio=topk_ratio, drift=drift)


def refill_selection_rows(rng, steps, kv_len, k, drift, recent_window):
    """The drift-and-refill loop, kept as the reference for ``k == kv_len``."""
    active = set(rng.choice(kv_len, size=k, replace=False).tolist())
    rows = []
    for _ in range(steps):
        n_replace = int(round(drift * k))
        if n_replace:
            active_list = list(active)
            drop = rng.choice(len(active_list), size=n_replace, replace=False)
            for d in drop:
                active.discard(active_list[int(d)])
            while len(active) < k:
                active.add(int(rng.integers(0, kv_len)))
        selection = set(active)
        hot_end = min(kv_len, recent_window)
        selection.update(range(kv_len - hot_end, kv_len))
        rows.append(np.sort(np.fromiter(selection, dtype=np.int64)))
    return rows


class TestDSFullSelection:
    """With every token selected, the shortcut equals the refill loop."""

    @pytest.mark.parametrize("kv_len", [1, 64, 300])
    @pytest.mark.parametrize("steps", [2, 5])
    @pytest.mark.parametrize("drift", [0.0, 0.15, 1.0])
    @pytest.mark.parametrize("seed", [0, 3])
    def test_matches_refill_loop(self, kv_len, steps, drift, seed):
        got = build_selection_rows(make_rng(seed), steps, kv_len, kv_len, drift, 32)
        want = refill_selection_rows(make_rng(seed), steps, kv_len, kv_len, drift, 32)
        assert len(got) == len(want) == steps
        for a, b in zip(got, want):
            assert a.dtype == b.dtype == np.int64
            assert np.array_equal(a, b)

    def test_topk_ratio_one_selects_every_token(self):
        program = build_workload("ds", scale=0.1, topk_ratio=1, drift=1.0)
        rows = np.diff(program.rowptr)
        assert rows.min() == rows.max() == 8192


class TestScaledHelper:
    def test_scaled_rounds(self):
        assert scaled(10, 0.25) == 2
        assert scaled(10, 1.0) == 10

    def test_scaled_minimum(self):
        assert scaled(2, 0.01) == 1

    def test_scaled_rejects_nonpositive(self):
        with pytest.raises(WorkloadError):
            scaled(10, 0.0)
