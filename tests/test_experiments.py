"""Integration tests: every paper figure/table runner produces the
paper's qualitative shape.

Two inputs per figure. ``SCALE`` exercises each figure on a reduced
slice of its matrix. ``REPORT_SCALE`` is the figures golden's scale:
there each figure runs with its plan's default arguments through the
default session, so its points are the ones ``repro figures --scale
0.1`` simulates and the suite serves them from the shared cache.
"""

import pytest

from repro.analysis.experiments import ABLATIONS, run_ablation
from repro.analysis.paperfigs import FIGURES
from repro.api import run_workload
from repro.core import NVRConfig, NVRPrefetcher, nsb_config
from repro.runner import shape_l2
from repro.session import Session
from repro.sim.memory.cache import CacheConfig
from repro.sim.memory.hierarchy import MemoryConfig
from repro.sim.npu.program import ProgramConfig, build_one_side_program
from repro.sim.soc import System
from repro.sparse.generate import block_csr
from repro.workloads import build_workload

SCALE = 0.2
REPORT_SCALE = 0.1


class TestL2Config:
    @pytest.mark.parametrize("kib", [64, 128, 192, 256, 384, 512, 1024])
    def test_all_sweep_sizes_shapeable(self, kib):
        cfg = shape_l2(kib)
        assert cfg.size_bytes == kib * 1024


class TestFig1b:
    @pytest.fixture(scope="class")
    def report(self):
        return FIGURES["fig1b"].run(scale=REPORT_SCALE)

    def test_speedup_sublinear_in_sparsity(self, report):
        res = FIGURES["fig1b"].run(ratios=(1, 4, 16), scale=SCALE)
        # Monotone speedup, but below the ideal (= ratio).
        assert res.speedups[0] == 1.0
        assert res.speedups[1] > 1.5
        assert res.speedups[2] > res.speedups[1]
        assert res.gap_at(16) >= 1.0
        assert report.speedups == sorted(report.speedups)
        assert report.gap_at(16) >= 1.0

    def test_offchip_tracks_params_sublinearly(self, report):
        res = FIGURES["fig1b"].run(ratios=(1, 16), scale=SCALE)
        assert res.offchip_per_step[1] < res.offchip_per_step[0]
        assert report.offchip_per_step[-1] < report.offchip_per_step[0]


class TestFig5:
    @pytest.fixture(scope="class")
    def fig5(self):
        return FIGURES["fig5"].run(
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

    @pytest.fixture(scope="class")
    def report(self):
        return FIGURES["fig5"].run(scale=REPORT_SCALE)

    @pytest.mark.parametrize("panel", ["int8", "fp16", "int32", "int32+nsb"])
    def test_headline_over_all_workloads(self, report, panel):
        """Paper: ~4x average speedup over the no-prefetch NPU, with
        nearly all miss stall removed, on each panel."""
        data = report.panels[panel]
        assert len(data) == 8
        for per_mech in data.values():
            assert per_mech["inorder"].total == pytest.approx(1.0)
            assert per_mech["nvr"].total <= per_mech["inorder"].total + 1e-9
            assert per_mech["nvr"].total <= per_mech["ooo"].total + 0.05
        assert report.stall_reduction(panel, "nvr") > 0.85
        assert 1.0 / report.mean_latency(panel, "nvr") > 2.0


class TestFig6:
    @pytest.fixture(scope="class")
    def fig6(self):
        return FIGURES["fig6"].run(workloads=("ds", "mk", "gcn"), scale=SCALE)

    @pytest.fixture(scope="class")
    def report(self):
        return FIGURES["fig6"].run(scale=REPORT_SCALE)

    def test_nvr_coverage_highest(self, fig6):
        for per_mech in fig6.data.values():
            nvr_cov = per_mech["nvr"][1]
            for mech, (_, cov) in per_mech.items():
                if mech != "nvr":
                    assert nvr_cov >= cov - 1e-9

    def test_nvr_above_90_mean(self, fig6, report):
        assert fig6.mean_coverage("nvr") > 0.9
        assert fig6.mean_accuracy("nvr") > 0.9
        # Over all eight workloads the mean coverage is lower (0.88 here).
        assert report.mean_accuracy("nvr") > 0.9
        assert report.mean_coverage("nvr") > 0.75

    def test_coverage_order_on_irregular_workloads(self, report):
        for workload in ("ds", "gcn", "h2o"):
            per = report.data[workload]
            assert per["nvr"][1] > per["dvr"][1] > per["imp"][1] > per["stream"][1]

    def test_hash_workload_capability_gap(self, fig6, report):
        """IMP/DVR collapse on MK and SCN; NVR does not (the paper's core
        claim)."""
        for data, workload in (
            (fig6.data, "mk"),
            (report.data, "mk"),
            (report.data, "scn"),
        ):
            assert data[workload]["imp"][1] < 0.2
            assert data[workload]["dvr"][1] < 0.2
            assert data[workload]["nvr"][1] > 0.9


class TestFig6c:
    def test_demand_offchip_collapse(self):
        res = FIGURES["fig6c"].run(scale=SCALE)
        # Paper: ~30x fewer off-chip accesses during actual loads.
        assert res.reduction("nvr") > 10
        assert res.reduction("nvr+nsb") >= res.reduction("nvr") * 0.9
        report = FIGURES["fig6c"].run(scale=REPORT_SCALE)
        assert report.reduction("nvr") > 10
        assert report.reduction("nvr+nsb") > 10


class TestFig7:
    def test_preload_model_overfetches(self):
        prog = build_workload("ds", scale=SCALE)
        gathered = sum(len(t.indices) * t.gathers[0].seg_bytes for t in prog.tiles)
        preload = run_workload("ds", mechanism="preload", scale=SCALE)
        assert preload.stats.traffic.scratchpad_bytes > gathered

    def test_offchip_reduction_headline(self):
        """Paper: ~75% off-chip bandwidth reduction vs the baseline."""
        for scale in (SCALE, REPORT_SCALE):
            res = FIGURES["fig7"].run(scale=scale)
            assert res.offchip_reduction(False) > 0.6
            assert res.offchip_reduction(True) > 0.6

    def test_prefetch_traffic_replaces_demand_traffic(self):
        res = FIGURES["fig7"].run(scale=REPORT_SCALE)
        assert res.without_nsb["nvr_prefetch"] > res.without_nsb["npu_demand"]
        # With the NSB, part of the NPU's read traffic is served in-NPU.
        assert res.with_nsb["nsb_to_npu"] > 0


class TestFig8:
    def test_fig8a_gap(self):
        rates = FIGURES["fig8"].run(scale=SCALE).rates
        assert rates["qkt"]["inorder"][0] > 5 * rates["qkt"]["nvr"][0]
        report = FIGURES["fig8"].run(scale=REPORT_SCALE).rates
        # Gather layers (QK^T, AV) miss heavily in-order; NVR collapses
        # their batch miss rate by an order of magnitude.
        for layer in ("qkt", "av"):
            ino_batch, _ = report[layer]["inorder"]
            nvr_batch, _ = report[layer]["nvr"]
            assert ino_batch > 0.5
            assert nvr_batch < 0.15 * ino_batch
        # The streaming QKV layer was never the problem.
        assert report["qkv"]["inorder"][0] < 0.3

    def test_fig8bc_decode_gain(self):
        res = FIGURES["fig8"].run(scale=SCALE)
        assert res.decode_gain(2048) > 0.3
        assert res.decode_gain(2048) > res.decode_gain(512)
        report = FIGURES["fig8"].run(scale=REPORT_SCALE)
        assert report.decode_gain(512) > 0.05
        assert report.decode_gain(2048) > 0.3
        assert report.decode_gain(2048) > report.decode_gain(512)

    def test_fig8bc_prefill_plateau(self):
        """Prefill is compute-bound: both reach the same peak, NVR at a
        lower bandwidth."""
        res = FIGURES["fig8"].run(scale=REPORT_SCALE)
        base, nvr = res.prefill["inorder"][2048], res.prefill["nvr"][2048]
        assert nvr[-1] == base[-1]
        assert nvr[0] > base[0]

    def test_fig8bc_monotone_bandwidth(self):
        res = FIGURES["fig8"].run(scale=SCALE)
        for series in res.decode["nvr"].values():
            assert series == sorted(series)


class TestFig9:
    @pytest.fixture(scope="class")
    def fig9(self):
        return FIGURES["fig9"].run(
            nsb_sizes=(4, 16), l2_sizes=(64, 256, 1024), scale=SCALE
        )

    @pytest.fixture(scope="class")
    def report(self):
        return FIGURES["fig9"].run(scale=REPORT_SCALE)

    def test_grid_shape(self, fig9, report):
        assert len(fig9.perf) == 2
        assert len(fig9.perf[0]) == 3
        assert len(report.perf) == 4
        assert len(report.perf[0]) == 7

    def test_nsb_beats_equal_area_l2(self, fig9, report):
        """Paper headline: growing the NSB outperforms equal-area L2
        scaling by a wide margin (perf = 1/(latency x area))."""
        assert fig9.nsb_vs_l2_benefit() > 2.0
        assert report.nsb_vs_l2_benefit() > 2.0

    def test_perf_decreases_with_l2_area(self, fig9, report):
        # Latency saturates, so area-normalised perf must fall with L2.
        for row in fig9.perf + report.perf:
            assert row[0] > row[-1]

    def test_latency_monotone_in_l2_size(self, report):
        # Raw latency does not grow with the L2, within a tenth.
        for row in report.cycles:
            assert row[0] >= row[-1] - row[-1] // 10


class TestAblations:
    def test_depth_sweep_improves_over_shallow(self):
        res = run_ablation(
            "nvr-depth", values=(1, 8), workloads=("ds", "st"), scale=SCALE
        )
        assert res.values == [1, 8]
        assert set(res.cycles) == {"ds", "st"}
        # Deeper runahead hides more latency than depth 1 on these
        # gather-bound traces (the paper's depth sensitivity).
        assert res.geomean_speedups()[1] > 1.0
        assert res.best_value() == 8
        assert res.speedups("ds")[0] == 1.0

    def test_nsb_size_sweep_runs_cached(self, tmp_path):
        cold = Session(cache_dir=tmp_path)
        res = run_ablation(
            "nsb-size", values=(4, 16), workloads=("st",), scale=SCALE, session=cold
        )
        assert cold.submitted == 2
        warm = Session(cache_dir=tmp_path)
        rerun = run_ablation(
            "nsb-size", values=(4, 16), workloads=("st",), scale=SCALE, session=warm
        )
        assert warm.submitted == 0
        assert rerun == res

    def test_every_registered_ablation_runs(self):
        # One tiny point each: the study menu stays wired end to end.
        for name in ABLATIONS:
            res = run_ablation(name, values=(2,), workloads=("st",), scale=0.05)
            assert res.name == name
            assert res.cycles["st"][0] > 0


def nvr_run(workload, **overrides):
    return run_workload(workload, mechanism="nvr", scale=REPORT_SCALE, **overrides)


class TestDesignChoices:
    """The knobs behind NVR's results, beyond the ``repro ablate`` menu."""

    def test_runahead_depth(self):
        shallow = nvr_run("ds", nvr_config=NVRConfig(depth_tiles=1))
        deep = nvr_run("ds", nvr_config=NVRConfig(depth_tiles=4))
        # Depth-1 runahead cannot hide a full DRAM latency; deeper does.
        assert deep.total_cycles < shallow.total_cycles
        assert deep.stats.coverage() > shallow.stats.coverage()

    def test_fuzzy_boundaries(self):
        # Fuzz trades a little accuracy for boundary coverage; neither
        # direction may collapse.
        for fuzz in (0, 2):
            result = nvr_run("gcn", nvr_config=NVRConfig(fuzz_vectors=fuzz))
            assert result.stats.prefetch.accuracy > 0.85
            assert result.stats.coverage() > 0.85

    def test_approximate_mode(self):
        # On the Table II workloads the SCD's index-delta confidence never
        # builds, so approximate mode issues nothing there. Dense 32x32
        # blocks give it the long constant-delta index runs it extrapolates.
        program = build_one_side_program(
            "blocks",
            block_csr(256, 4096, 0.05, block=32, intra_density=1.0, seed=1),
            ProgramConfig(),
        )

        def run(approximate):
            made = []

            def factory():
                made.append(NVRPrefetcher(NVRConfig(approximate=approximate)))
                return made[-1]

            result = System(program=program, prefetcher_factory=factory).run()
            return result, made[0].controller

        exact, _ = run(False)
        approx, controller = run(True)
        assert controller.approx_prefetches > 0
        # The confidence gate keeps approximate mode from hurting accuracy.
        assert approx.stats.prefetch.accuracy > 0.9
        assert approx.total_cycles <= exact.total_cycles * 1.05

    def test_mshr_capacity(self):
        def with_mshrs(entries):
            l2 = CacheConfig(
                size_bytes=256 * 1024, assoc=8, mshr_entries=entries, name="l2"
            )
            return nvr_run("ds", memory=MemoryConfig(l2=l2))

        # VMIG's pipelining "depends on the MSHR": starving the MSHR file
        # caps memory-level parallelism.
        assert with_mshrs(64).total_cycles < with_mshrs(8).total_cycles

    def test_nsb_associativity(self):
        def with_assoc(assoc):
            nsb = nsb_config(size_kib=16, assoc=assoc)
            return nvr_run("gsabt", memory=MemoryConfig(nsb=nsb))

        low, high = with_assoc(2), with_assoc(16)
        # Sec. IV-G's case for high-way mapping: block/global-token reuse
        # (GSABT) conflict-misses in low-associativity NSBs.
        assert high.stats.nsb.demand_hits >= low.stats.nsb.demand_hits
        assert high.total_cycles <= low.total_cycles


class TestTables:
    def test_table1(self):
        report = FIGURES["table1"].run()
        assert len(report.structures) == 5
        assert report.total_kib < 2.0
        rows = report.rows()
        assert [r[0] for r in rows] == ["SD", "SCD", "LBD", "VMIG", "Snooper"]
        # Structures whose printed arithmetic is self-consistent must
        # match the paper exactly (SCD's quoted total omits its PC).
        for name, _, computed, paper, match in rows:
            if name != "SCD":
                assert match, f"{name}: computed {computed} != paper {paper}"
        # Area ratio under the paper's 5% envelope; 10% with the NSB.
        assert report.area_fraction(with_nsb=False) < 0.05
        assert report.area_fraction(with_nsb=True) < 0.10

    def test_table2(self):
        shorts = ["DS", "GAT", "GCN", "GSABT", "H2O", "MK", "SCN", "ST"]
        report = FIGURES["table2"].run(scale=REPORT_SCALE)
        for rows in (FIGURES["table2"].run(scale=SCALE), report):
            assert len(rows) == 8
            assert [r.short for r in rows] == shorts
            for row in rows:
                assert row.gather_elements > 0
                assert row.footprint_kib > 256
        domains = {r.short: r.domain for r in report}
        assert domains["DS"] == "large language model"
        assert domains["ST"] == "mixture of experts"
        assert domains["MK"] == "point cloud"
        # ST is the reuse outlier the paper calls out.
        reuse = {r.short: r.reuse_factor for r in report}
        others = [v for short, v in reuse.items() if short not in ("ST", "GSABT")]
        assert reuse["ST"] > max(others)
