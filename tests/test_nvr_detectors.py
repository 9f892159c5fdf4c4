"""Unit tests for NVR's detector components (SD, LBD, SCD, VMIG)."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.loop_bound_detector import LoopBoundDetector
from repro.core.sparse_chain_detector import IPTEntry, SparseChainDetector
from repro.core.stride_detector import StrideDetector
from repro.core.vmig import VMIG
from repro.errors import ConfigError


class TestStrideDetector:
    def test_learns_constant_stride(self):
        sd = StrideDetector()
        for i in range(4):
            sd.observe(1, 0x1000 + i * 64)
        assert sd.confident(1)

    def test_not_confident_on_random(self):
        sd = StrideDetector()
        rng = np.random.default_rng(0)
        for _ in range(20):
            sd.observe(1, int(rng.integers(0, 1 << 20)))
        assert not sd.confident(1)

    def test_length_aware_contiguous_stream(self):
        """Variable-length tiles of a contiguous stream keep confidence."""
        sd = StrideDetector()
        addr = 0x1000
        for n_elems in (16, 16, 2, 16, 16, 5, 16):
            sd.observe(1, addr, n_elems=n_elems, elem_bytes=4)
            addr += n_elems * 4
        assert sd.confident(1)

    def test_predict_window_advances_frontier(self):
        sd = StrideDetector()
        for i in range(4):
            sd.observe(1, 0x1000 + i * 64)
        w1 = sd.predict_window(1, 128)
        w2 = sd.predict_window(1, 128)
        assert w1 is not None and w2 is not None
        assert w2[0] == w1[1]  # no overlap, no gap

    def test_predict_without_confidence_is_none(self):
        sd = StrideDetector()
        sd.observe(1, 0x1000)
        assert sd.predict_window(1, 64) is None

    def test_capacity_eviction_lru(self):
        sd = StrideDetector(n_entries=2)
        sd.observe(1, 0)
        sd.observe(2, 0)
        sd.observe(3, 0)  # evicts stream 1
        assert sd.occupancy == 2

    def test_bad_config(self):
        with pytest.raises(ConfigError):
            StrideDetector(n_entries=0)
        with pytest.raises(ConfigError):
            StrideDetector(confirm=9)

    @settings(max_examples=30)
    @given(st.integers(min_value=1, max_value=4096))
    def test_any_constant_stride_learned(self, stride):
        sd = StrideDetector()
        for i in range(5):
            sd.observe(7, i * stride)
        assert sd.confident(7)


class TestLoopBoundDetector:
    def test_learns_static_bound(self):
        lbd = LoopBoundDetector()
        for i in range(5):
            lbd.observe_branch(pc=0x100, counter=i, bound=10, level=1)
        assert lbd.known_bound(0x100) == 10

    def test_unstable_bound_not_known(self):
        lbd = LoopBoundDetector()
        lbd.observe_branch(0x100, 0, 10, 1)
        lbd.observe_branch(0x100, 1, 99, 1)
        assert lbd.known_bound(0x100) is None

    def test_sparse_window_tracks_row_length_ewma(self):
        lbd = LoopBoundDetector(ewma_alpha=0.5)
        lbd.observe_sparse_window(0, 0, 10)
        lbd.observe_sparse_window(1, 10, 30)
        assert lbd.mean_row_length == pytest.approx(15.0)

    def test_predict_limit_exact_for_current_row(self):
        lbd = LoopBoundDetector(vector_width=16, fuzz_vectors=0)
        lbd.observe_sparse_window(0, 0, 40)
        limit = lbd.predict_stream_limit(j_now=10, rows_ahead=0)
        assert limit >= 40  # never clips the known row
        assert limit % 16 == 0  # vector-rounded

    def test_fuzz_adds_vectors(self):
        plain = LoopBoundDetector(vector_width=16, fuzz_vectors=0)
        fuzzy = LoopBoundDetector(vector_width=16, fuzz_vectors=2)
        for lbd in (plain, fuzzy):
            lbd.observe_sparse_window(0, 0, 40)
        assert fuzzy.predict_stream_limit(0, 0) == plain.predict_stream_limit(0, 0) + 32

    def test_rows_ahead_extends_by_mean(self):
        lbd = LoopBoundDetector(vector_width=16, fuzz_vectors=0)
        lbd.observe_sparse_window(0, 0, 32)
        near = lbd.predict_stream_limit(0, rows_ahead=0)
        far = lbd.predict_stream_limit(0, rows_ahead=4)
        assert far >= near + 4 * 32 - 16

    def test_sst_capacity(self):
        lbd = LoopBoundDetector(n_entries=2)
        for pc in (1, 2, 3):
            lbd.observe_branch(pc, 0, 10, 0)
        assert lbd.occupancy == 2

    def test_bad_config(self):
        with pytest.raises(ConfigError):
            LoopBoundDetector(n_entries=0)
        with pytest.raises(ConfigError):
            LoopBoundDetector(ewma_alpha=0.0)
        with pytest.raises(ConfigError):
            LoopBoundDetector(fuzz_vectors=-1)


def scan_reference(pairs, lock=2, alpha=0.3):
    """One stream's SCD learning, pair by pair, fitting the affine formula
    by scanning every candidate shift (0..13) explicitly."""
    e = IPTEntry()
    last = None
    for idx, addr in pairs:
        delta = idx - e.lpi
        if e.delta_conf > 0 or e.delta_ewma != 0.0:
            if delta == int(round(e.delta_ewma)) and delta != 0:
                e.delta_conf = min(e.delta_conf + 1, 15)
            else:
                e.delta_conf = max(0, e.delta_conf - 2)
            e.delta_ewma += alpha * (delta - e.delta_ewma)
        else:
            e.delta_ewma = float(delta)
        e.lpi = idx
        prev, last = last, (idx, addr)
        if prev is None or idx == prev[0]:
            continue
        idx0, addr0 = prev
        for shift in range(14):
            base0 = addr0 - (idx0 << shift)
            if base0 == addr - (idx << shift) and base0 >= 0:
                if (e.ss_start, e.shift) == (base0, shift):
                    e.fit_conf = min(e.fit_conf + 1, 15)
                else:
                    e.ss_start, e.shift, e.fit_conf = base0, shift, 1
                break
        else:
            e.fit_conf = max(0, e.fit_conf - 1)
        e.valid = e.fit_conf >= lock
    return e, last


#: (idx, on the affine formula?, off-formula address): mixes locking
#: runs, broken fits, repeated indices and colliding addresses.
scd_pair = st.tuples(st.integers(0, 64), st.booleans(), st.integers(0, 1 << 12))


class TestSparseChainDetector:
    def test_affine_fit_locks(self):
        scd = SparseChainDetector()
        base, shift = 0x4000_0000, 7  # 128-byte rows
        for idx in (3, 9, 14, 20):
            scd.record_resolution(3, idx, base + (idx << shift))
        assert scd.formula_address(3, 50) == base + (50 << shift)

    def test_hashed_pairs_never_validate(self):
        scd = SparseChainDetector()
        rng = np.random.default_rng(1)
        perm = rng.permutation(4096)
        for idx in rng.integers(0, 4096, size=50):
            scd.record_resolution(3, int(idx), 0x4000_0000 + int(perm[idx]) * 128)
        assert scd.formula_address(3, 7) is None

    def test_delta_extrapolation_on_regular_indices(self):
        scd = SparseChainDetector(delta_confidence=3)
        base = 0x1000
        for k in range(10):
            idx = 4 * k
            scd.record_resolution(3, idx, base + (idx << 6))
        predicted = scd.predict_indices(3, 4)
        assert predicted == [40, 44, 48, 52]

    def test_no_extrapolation_on_random_indices(self):
        scd = SparseChainDetector()
        rng = np.random.default_rng(2)
        for idx in rng.integers(0, 10_000, size=40):
            scd.record_resolution(3, int(idx), 0x1000 + (int(idx) << 6))
        assert scd.predict_indices(3, 4) is None

    def test_ipt_capacity(self):
        scd = SparseChainDetector(n_entries=2)
        for sid in (1, 2, 3):
            scd.record_resolution(sid, 1, 64)
        assert scd.occupancy == 2

    def test_entry_state_view(self):
        scd = SparseChainDetector()
        scd.record_resolution(3, 5, 5 << 6)
        entry = scd.entry_state(3)
        assert entry is not None
        assert entry.lpi == 5

    @settings(max_examples=200)
    @given(
        st.integers(0, 15),
        st.sampled_from((0, 0x1000)),
        st.lists(scd_pair, max_size=40),
        st.lists(st.integers(1, 8), min_size=1, max_size=40),
    )
    def test_windows_learn_like_pairwise_shift_scan(self, shift, ss_start, raw, chunks):
        pairs = [
            (idx, ss_start + (idx << shift) if affine else noise)
            for idx, affine, noise in raw
        ]
        scd = SparseChainDetector()
        pos = 0
        for size in chunks * len(pairs):
            if pos >= len(pairs):
                break
            window = pairs[pos : pos + size]
            scd.record_window(3, [i for i, _ in window], [a for _, a in window])
            pos += size
        want, want_last = scan_reference(pairs)
        got = scd.entry_state(3)
        if not pairs:
            assert got is None
            return
        assert dataclasses.replace(got, last_use=0) == want
        assert scd._last_pair[3] == want_last


class TestVMIG:
    def test_dedups_shared_lines(self):
        vmig = VMIG(vector_width=4, line_bytes=64)
        batches = vmig.bundle([0, 16, 32, 48], seg_bytes=16)
        assert len(batches) == 1
        assert list(batches[0]) == [0]

    def test_splits_into_vector_width_batches(self):
        vmig = VMIG(vector_width=4, line_bytes=64)
        addrs = [i * 64 for i in range(10)]
        batches = vmig.bundle(addrs, seg_bytes=64)
        assert [len(b) for b in batches] == [4, 4, 2]

    def test_segments_spanning_lines(self):
        vmig = VMIG(vector_width=16, line_bytes=64)
        batches = vmig.bundle([32], seg_bytes=128)
        assert list(batches[0]) == [0, 64, 128]

    def test_compression_ratio(self):
        vmig = VMIG(vector_width=16, line_bytes=64)
        vmig.bundle([0, 8, 16, 24], seg_bytes=8)  # 4 elements -> 1 line
        assert vmig.compression_ratio == pytest.approx(4.0)

    def test_empty_input(self):
        vmig = VMIG()
        assert vmig.bundle([], seg_bytes=64) == []

    def test_bad_config(self):
        with pytest.raises(ConfigError):
            VMIG(vector_width=0)
        with pytest.raises(ConfigError):
            VMIG(line_bytes=48)
        with pytest.raises(ConfigError):
            VMIG().bundle([0], seg_bytes=0)

    @settings(max_examples=30)
    @given(
        st.lists(st.integers(min_value=0, max_value=1 << 20), min_size=1, max_size=64)
    )
    def test_all_lines_covered_once(self, addrs):
        vmig = VMIG(vector_width=8, line_bytes=64)
        batches = vmig.bundle(addrs, seg_bytes=32)
        emitted = [int(a) for b in batches for a in b]
        assert len(emitted) == len(set(emitted))  # dedup
        needed = set()
        for a in addrs:
            needed.add(a // 64 * 64)
            needed.add((a + 31) // 64 * 64)
        assert set(emitted) == needed
