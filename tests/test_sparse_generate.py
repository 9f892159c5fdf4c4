"""Tests for sparsity-pattern generators."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.sparse.generate import block_csr, powerlaw_csr, uniform_csr, zipf_csr
from repro.workloads.minkowski import clustered_coordinate_csr


class TestCommonInvariants:
    GENERATORS = [
        lambda seed: uniform_csr(64, 256, 0.1, seed=seed),
        lambda seed: zipf_csr(64, 256, 0.1, seed=seed),
        lambda seed: block_csr(64, 256, 0.1, block=8, seed=seed),
        lambda seed: clustered_coordinate_csr(64, 256, 8, cluster_size=8, seed=seed),
        lambda seed: powerlaw_csr(64, 256, avg_degree=8, seed=seed),
    ]

    @pytest.mark.parametrize("gen", GENERATORS)
    def test_deterministic_by_seed(self, gen):
        a, b = gen(42), gen(42)
        assert np.array_equal(a.rowptr, b.rowptr)
        assert np.array_equal(a.col_indices, b.col_indices)

    @pytest.mark.parametrize("gen", GENERATORS)
    def test_different_seeds_differ(self, gen):
        a, b = gen(1), gen(2)
        assert not (
            np.array_equal(a.rowptr, b.rowptr)
            and np.array_equal(a.col_indices, b.col_indices)
        )

    @pytest.mark.parametrize("gen", GENERATORS)
    def test_valid_csr(self, gen):
        m = gen(0)
        assert m.n_rows == 64
        assert m.n_cols == 256
        if m.nnz:
            assert m.col_indices.max() < 256
            assert m.col_indices.min() >= 0


class TestUniform:
    def test_density_close_to_target(self):
        m = uniform_csr(200, 500, 0.1, seed=3)
        assert m.density == pytest.approx(0.1, rel=0.15)

    def test_rejects_bad_density(self):
        with pytest.raises(WorkloadError):
            uniform_csr(10, 10, 0.0)
        with pytest.raises(WorkloadError):
            uniform_csr(10, 10, 1.5)

    def test_rejects_bad_shape(self):
        with pytest.raises(WorkloadError):
            uniform_csr(0, 10, 0.5)


class TestZipf:
    def test_column_popularity_skewed(self):
        m = zipf_csr(400, 300, 0.08, alpha=1.4, seed=5)
        counts = np.bincount(m.col_indices, minlength=300)
        top = np.sort(counts)[::-1]
        # Top 10% of columns should absorb well over 10% of references.
        assert top[:30].sum() > 0.3 * counts.sum()

    def test_rejects_bad_alpha(self):
        with pytest.raises(WorkloadError):
            zipf_csr(10, 10, 0.5, alpha=0.0)


class TestBlock:
    def test_entries_confined_to_active_blocks(self):
        m = block_csr(64, 64, 0.2, block=16, intra_density=1.0, seed=7)
        dense = m.to_dense()
        for br in range(4):
            for bc in range(4):
                tile = dense[br * 16 : (br + 1) * 16, bc * 16 : (bc + 1) * 16]
                filled = np.count_nonzero(tile)
                assert filled in (0, 256)  # fully dense or fully empty

    def test_rejects_oversized_block(self):
        with pytest.raises(WorkloadError):
            block_csr(8, 8, 0.5, block=16)


class TestPowerlaw:
    def test_mean_degree_near_target(self):
        m = powerlaw_csr(500, 1000, avg_degree=10, seed=11)
        assert m.row_nnz().mean() == pytest.approx(10, rel=0.35)

    def test_degree_distribution_has_hubs(self):
        m = powerlaw_csr(500, 1000, avg_degree=8, seed=13)
        degrees = m.row_nnz()
        assert degrees.max() > 4 * degrees.mean()

    def test_rejects_bad_degree(self):
        with pytest.raises(WorkloadError):
            powerlaw_csr(10, 10, avg_degree=0)

