"""Integration tests: every paper figure/table runner produces the
paper's qualitative shape. Small scales keep these fast; the benches run
the same harnesses at larger scale.
"""

import pytest

from repro.analysis.experiments import (
    ABLATIONS,
    ablate_nsb_size,
    ablate_nvr_depth,
    explicit_preload_bytes,
    fig1b_sparsity_gap,
    fig5_latency_breakdown,
    fig6_accuracy_coverage,
    fig6c_data_movement,
    fig7_bandwidth_allocation,
    fig8a_layer_miss,
    fig8bc_llm_throughput,
    fig9_nsb_sensitivity,
    table1_overhead,
    table2_workloads,
)
from repro.runner import shape_l2
from repro.session import Session
from repro.workloads import build_workload

SCALE = 0.2


class TestL2Config:
    @pytest.mark.parametrize("kib", [64, 128, 192, 256, 384, 512, 1024])
    def test_all_sweep_sizes_shapeable(self, kib):
        cfg = shape_l2(kib)
        assert cfg.size_bytes == kib * 1024


class TestFig1b:
    def test_speedup_sublinear_in_sparsity(self):
        res = fig1b_sparsity_gap(ratios=(1, 4, 16), scale=SCALE)
        # Monotone speedup, but below the ideal (= ratio).
        assert res.speedups[0] == 1.0
        assert res.speedups[1] > 1.5
        assert res.speedups[2] > res.speedups[1]
        assert res.gap_at(16) >= 1.0

    def test_offchip_tracks_params_sublinearly(self):
        res = fig1b_sparsity_gap(ratios=(1, 16), scale=SCALE)
        assert res.offchip_per_step[1] < res.offchip_per_step[0]


class TestFig5:
    @pytest.fixture(scope="class")
    def fig5(self):
        return fig5_latency_breakdown(
            workloads=("ds", "mk"), panels=("fp16",), scale=SCALE
        )

    def test_bars_normalised_to_inorder(self, fig5):
        for per_mech in fig5.panels["fp16"].values():
            assert per_mech["inorder"].total == pytest.approx(1.0)

    def test_nvr_fastest(self, fig5):
        for per_mech in fig5.panels["fp16"].values():
            nvr = per_mech["nvr"].total
            for mech, cell in per_mech.items():
                if mech != "nvr":
                    assert nvr <= cell.total + 1e-9

    def test_stall_reduction_matches_headline(self, fig5):
        """Paper: NVR removes ~97-99% of cache-miss stall time."""
        assert fig5.stall_reduction("fp16", "nvr") > 0.9

    def test_stalls_dominate_inorder(self, fig5):
        for per_mech in fig5.panels["fp16"].values():
            assert per_mech["inorder"].stall > per_mech["inorder"].base


class TestFig6:
    @pytest.fixture(scope="class")
    def fig6(self):
        return fig6_accuracy_coverage(workloads=("ds", "mk", "gcn"), scale=SCALE)

    def test_nvr_coverage_highest(self, fig6):
        for per_mech in fig6.data.values():
            nvr_cov = per_mech["nvr"][1]
            for mech, (_, cov) in per_mech.items():
                if mech != "nvr":
                    assert nvr_cov >= cov - 1e-9

    def test_nvr_above_90_mean(self, fig6):
        assert fig6.mean_coverage("nvr") > 0.9
        assert fig6.mean_accuracy("nvr") > 0.9

    def test_hash_workload_capability_gap(self, fig6):
        """IMP/DVR collapse on MK; NVR does not (the paper's core claim)."""
        assert fig6.data["mk"]["imp"][1] < 0.2
        assert fig6.data["mk"]["dvr"][1] < 0.2
        assert fig6.data["mk"]["nvr"][1] > 0.9


class TestFig6c:
    def test_demand_offchip_collapse(self):
        res = fig6c_data_movement(scale=SCALE)
        # Paper: ~30x fewer off-chip accesses during actual loads.
        assert res.reduction("nvr") > 10
        assert res.reduction("nvr+nsb") >= res.reduction("nvr") * 0.9


class TestFig7:
    def test_preload_model_overfetches(self):
        prog = build_workload("ds", scale=SCALE)
        gathered = sum(len(t.indices) * t.gathers[0].seg_bytes for t in prog.tiles)
        assert explicit_preload_bytes(prog) > gathered

    def test_offchip_reduction_headline(self):
        """Paper: ~75% off-chip bandwidth reduction vs the baseline."""
        res = fig7_bandwidth_allocation(scale=SCALE)
        assert res.offchip_reduction(False) > 0.6
        assert res.offchip_reduction(True) > 0.6


class TestFig8:
    def test_fig8a_gap(self):
        rates = fig8a_layer_miss(scale=SCALE)
        assert rates["qkt"]["inorder"][0] > 5 * rates["qkt"]["nvr"][0]

    def test_fig8bc_decode_gain(self):
        res = fig8bc_llm_throughput(calib_scale=SCALE)
        assert res.decode_gain(2048) > 0.3
        assert res.decode_gain(2048) > res.decode_gain(512)

    def test_fig8bc_monotone_bandwidth(self):
        res = fig8bc_llm_throughput(calib_scale=SCALE)
        for series in res.decode["nvr"].values():
            assert series == sorted(series)


class TestFig9:
    @pytest.fixture(scope="class")
    def fig9(self):
        return fig9_nsb_sensitivity(
            nsb_sizes=(4, 16), l2_sizes=(64, 256, 1024), scale=SCALE
        )

    def test_grid_shape(self, fig9):
        assert len(fig9.perf) == 2
        assert len(fig9.perf[0]) == 3

    def test_nsb_beats_equal_area_l2(self, fig9):
        """Paper headline: growing the NSB outperforms equal-area L2
        scaling by a wide margin (perf = 1/(latency x area))."""
        assert fig9.nsb_vs_l2_benefit() > 2.0

    def test_perf_decreases_with_l2_area(self, fig9):
        # Latency saturates, so area-normalised perf must fall with L2.
        for row in fig9.perf:
            assert row[0] > row[-1]


class TestAblations:
    def test_depth_sweep_improves_over_shallow(self):
        res = ablate_nvr_depth(values=(1, 8), workloads=("ds", "st"), scale=SCALE)
        assert res.values == [1, 8]
        assert set(res.cycles) == {"ds", "st"}
        # Deeper runahead hides more latency than depth 1 on these
        # gather-bound traces (the paper's depth sensitivity).
        assert res.geomean_speedups()[1] > 1.0
        assert res.best_value() == 8
        assert res.speedups("ds")[0] == 1.0

    def test_nsb_size_sweep_runs_cached(self, tmp_path):
        cold = Session(cache_dir=tmp_path)
        res = ablate_nsb_size(
            values=(4, 16), workloads=("st",), scale=SCALE, session=cold
        )
        assert cold.submitted == 2
        warm = Session(cache_dir=tmp_path)
        rerun = ablate_nsb_size(
            values=(4, 16), workloads=("st",), scale=SCALE, session=warm
        )
        assert warm.submitted == 0
        assert rerun == res

    def test_every_registered_ablation_runs(self):
        # One tiny point each: the study menu stays wired end to end.
        for name, study in ABLATIONS.items():
            res = study(values=(2,), workloads=("st",), scale=0.05)
            assert res.name == name
            assert res.cycles["st"][0] > 0


class TestTables:
    def test_table1(self):
        report = table1_overhead()
        assert len(report.structures) == 5
        assert report.total_kib < 2.0

    def test_table2(self):
        rows = table2_workloads(scale=SCALE)
        assert len(rows) == 8
        shorts = [r.short for r in rows]
        assert shorts == ["DS", "GAT", "GCN", "GSABT", "H2O", "MK", "SCN", "ST"]
        for row in rows:
            assert row.gather_elements > 0
            assert row.footprint_kib > 256
