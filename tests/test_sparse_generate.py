"""Tests for sparsity-pattern generators."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import WorkloadError
from repro.sparse.generate import _weighted_rows, block_csr, powerlaw_csr, uniform_csr
from repro.utils import make_rng
from repro.workloads.double_sparsity import build_selection_rows, rows_to_csr
from repro.workloads.minkowski import clustered_coordinate_csr


class TestCommonInvariants:
    GENERATORS = [
        lambda seed: uniform_csr(64, 256, 0.1, seed=seed),
        lambda seed: block_csr(64, 256, 0.1, block=8, seed=seed),
        lambda seed: clustered_coordinate_csr(64, 256, 8, cluster_size=8, seed=seed),
        lambda seed: powerlaw_csr(64, 256, avg_degree=8, seed=seed),
        lambda seed: rows_to_csr(
            build_selection_rows(make_rng(seed), 64, 256, 16, 0.15, 8), 256
        ),
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

    def test_rows_are_choice_rows(self):
        """Each row is the one ``Generator.choice`` draws, as before the
        shared CDF: degrees, popularity and draws in the same order."""
        m = powerlaw_csr(300, 500, avg_degree=12, seed=4)
        rng = make_rng(4)
        raw = rng.pareto(1.3, size=300) + 1.0
        degrees = np.maximum(1, np.round(raw * (12 / raw.mean()))).astype(np.int64)
        probs = np.arange(1, 501, dtype=np.float64) ** -0.8
        probs /= probs.sum()
        probs = probs[rng.permutation(500)]
        for r, k in enumerate(np.minimum(degrees, 500)):
            want = np.sort(rng.choice(500, size=int(k), replace=False, p=probs))
            assert np.array_equal(m.col_indices[m.rowptr[r] : m.rowptr[r + 1]], want)


class TestWeightedRows:
    """The shared-CDF draw replays ``Generator.choice(replace=False, p=)``."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 300),
        st.floats(0.0, 8.0),
        st.sampled_from((0.0, 0.3, 0.9)),
        st.lists(st.floats(0.0, 1.0), max_size=6),
        st.integers(0, 2**32 - 1),
    )
    # Sixteen columns, all drawn: the first round repeats columns, and
    # only a redraw from the zeroed CDF takes the rest in one round each.
    @example(n=16, skew=1.0, zero_share=0.0, shares=[], seed=1)
    def test_rows_and_state_equal_choice(self, n, skew, zero_share, shares, seed):
        # Weights raised to up to the 8th power put most of the mass on
        # a few columns, and zeroed entries can never be drawn. The last
        # row takes every column that can be drawn, so whenever two
        # draws collide it needs the duplicate-redraw round.
        shape = np.random.default_rng(seed)
        p = shape.random(n) ** skew
        p[shape.random(n) < zero_share] = 0.0
        p[shape.integers(n)] += 1.0
        p /= p.sum()
        positive = np.count_nonzero(p)
        degrees = [round(f * positive) for f in shares] + [positive]
        got_rng, want_rng = make_rng(seed), make_rng(seed)
        got = _weighted_rows(got_rng, p, np.array(degrees))
        for row, k in zip(got, degrees):
            want = np.sort(want_rng.choice(n, size=k, replace=False, p=p))
            assert row.dtype == np.int64
            assert np.array_equal(row, want)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state

    @pytest.mark.parametrize(
        "probs, k",
        [
            ([0.5, np.nan, 0.5], 1),
            ([0.5, -0.1, 0.6], 1),
            ([0.5, 0.4], 1),
            ([0.5, 0.0, 0.5], 3),
        ],
    )
    def test_rejects_what_choice_rejects(self, probs, k):
        p = np.array(probs)
        with pytest.raises(ValueError):
            make_rng(0).choice(len(p), size=k, replace=False, p=p)
        with pytest.raises(WorkloadError):
            _weighted_rows(make_rng(0), p, np.array([k]))
