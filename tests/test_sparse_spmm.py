"""Tests for the reference SpMM kernels against dense numpy ground truth."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.errors import WorkloadError
from repro.sparse.csr import CSRMatrix
from repro.sparse.generate import uniform_csr
from repro.sparse.spmm import spmm_one_side, spmm_two_side


def sparse_dense(shape):
    return hnp.arrays(
        dtype=np.float32,
        shape=shape,
        elements=st.sampled_from([0.0, 0.0, 0.0, 1.0, -2.0, 0.5]),
    )


class TestOneSide:
    def test_matches_dense_product(self):
        w = uniform_csr(16, 24, 0.2, seed=1)
        ia = np.arange(24 * 8, dtype=np.float32).reshape(24, 8)
        out = spmm_one_side(w, ia)
        expected = w.to_dense() @ ia
        assert out.shape == (16, 8)
        assert np.allclose(out, expected, rtol=1e-5)

    def test_empty_rows_produce_zeros(self):
        w = CSRMatrix.from_dense(np.array([[0, 0], [1, 0]], dtype=np.float32))
        ia = np.ones((2, 3), dtype=np.float32)
        out = spmm_one_side(w, ia)
        assert np.array_equal(out[0], np.zeros(3, dtype=np.float32))

    def test_shape_mismatch_raises(self):
        w = uniform_csr(4, 8, 0.5, seed=0)
        with pytest.raises(WorkloadError):
            spmm_one_side(w, np.ones((9, 2), dtype=np.float32))

    def test_non_2d_activations_raise(self):
        w = uniform_csr(4, 8, 0.5, seed=0)
        with pytest.raises(WorkloadError):
            spmm_one_side(w, np.ones(8, dtype=np.float32))

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=1000),
    )
    def test_random_property(self, m, k, n, seed):
        rng = np.random.default_rng(seed)
        dense_w = rng.random((m, k)).astype(np.float32)
        dense_w[dense_w < 0.6] = 0.0
        ia = rng.random((k, n)).astype(np.float32)
        w = CSRMatrix.from_dense(dense_w)
        assert np.allclose(spmm_one_side(w, ia), dense_w @ ia, atol=1e-4)


class TestTwoSide:
    def test_matches_dense_product(self):
        w = uniform_csr(12, 16, 0.25, seed=2)
        ia = uniform_csr(16, 10, 0.3, seed=3)
        out = spmm_two_side(w, ia)
        expected = w.to_dense() @ ia.to_dense()
        assert np.allclose(out, expected, rtol=1e-5)

    def test_shape_mismatch_raises(self):
        w = uniform_csr(4, 8, 0.5, seed=0)
        ia = uniform_csr(9, 4, 0.5, seed=0)
        with pytest.raises(WorkloadError):
            spmm_two_side(w, ia)

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=1, max_value=7),
        st.integers(min_value=1, max_value=7),
        st.integers(min_value=1, max_value=7),
        st.integers(min_value=0, max_value=1000),
    )
    def test_random_property(self, m, k, n, seed):
        rng = np.random.default_rng(seed)
        dense_w = rng.random((m, k)).astype(np.float32)
        dense_w[dense_w < 0.5] = 0.0
        dense_ia = rng.random((k, n)).astype(np.float32)
        dense_ia[dense_ia < 0.5] = 0.0
        out = spmm_two_side(
            CSRMatrix.from_dense(dense_w), CSRMatrix.from_dense(dense_ia)
        )
        assert np.allclose(out, dense_w @ dense_ia, atol=1e-4)

    def test_agrees_with_one_side_on_dense_ia(self):
        w = uniform_csr(10, 12, 0.3, seed=4)
        dense_ia = np.random.default_rng(5).random((12, 6)).astype(np.float32)
        ia_sparse = CSRMatrix.from_dense(dense_ia)
        assert np.allclose(
            spmm_two_side(w, ia_sparse), spmm_one_side(w, dense_ia), atol=1e-4
        )
