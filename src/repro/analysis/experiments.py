"""One runner per paper table/figure; ``paperfigs`` renders them all.

Every runner is a pure function of (scale, seed): it expresses its
simulation matrix as a plan of :class:`~repro.runner.RunSpec` points —
built declaratively by the per-figure ``*_plan()`` builders on top of
:class:`~repro.session.Grid` — submits the plan through a
:class:`~repro.session.Session` and selects the results it needs out of
the returned :class:`~repro.resultset.ResultSet` by axis (no positional
spec/result zipping). Pass a shared ``session`` to reuse one worker pool
and one on-disk result cache across figures — identical points then
simulate exactly once per cache lifetime; without one, runners use
:func:`~repro.session.default_session`. ``scale`` trades run time for
statistical weight; the shapes (who wins, by what factor, where
crossovers fall) are stable from ``scale≈0.3`` upward.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..api import MECHANISM_ORDER
from ..core.overhead import OverheadReport, nvr_overhead
from ..llm import (
    NPUHardware,
    TransformerSpec,
    calibrate_memory_efficiency,
    decode_throughput,
    layer_miss_rates,
    prefill_throughput,
)
from ..runner import RunSpec
from ..session import Grid, Session, default_session
from ..sim.soc import RunResult
from ..utils import KIB, geometric_mean
from ..workloads import WORKLOAD_INFO, WORKLOAD_ORDER
from .metrics import bandwidth_shares

PREFETCHER_MECHS: tuple[str, ...] = ("stream", "imp", "dvr", "nvr")


# ---------------------------------------------------------------------------
# Fig. 1b — sparsity vs actual speedup gap
# ---------------------------------------------------------------------------


@dataclass
class Fig1bResult:
    """Parameter-reduction sweep of sparse attention (DS)."""

    ratios: list[int]
    cycles_per_step: list[float]
    speedups: list[float]  # vs the dense (ratio=1) configuration
    offchip_per_step: list[float]

    def gap_at(self, ratio: int) -> float:
        """Theoretical over actual speedup at one reduction ratio."""
        i = self.ratios.index(ratio)
        return ratio / self.speedups[i]


def fig1b_plan(
    ratios: tuple[int, ...] = (1, 2, 4, 8, 16),
    scale: float = 0.4,
    seed: int = 0,
) -> list[RunSpec]:
    """The Fig. 1b TopK sweep as plan content.

    drift=1.0: scores are re-ranked from scratch each step (worst-case
    TopK churn), isolating the miss penalty from selection locality.
    """
    return Grid(
        workload="ds",
        mechanism="stream",
        scale=scale,
        seed=seed,
        topk_ratio=list(ratios),
        drift=1.0,
    ).specs()


def fig1b_sparsity_gap(
    ratios: tuple[int, ...] = (1, 2, 4, 8, 16),
    scale: float = 0.4,
    seed: int = 0,
    session: Session | None = None,
) -> Fig1bResult:
    """Fig. 1b: 16x fewer parameters yields well under 16x speedup.

    The baseline NPU runs with its native streaming efficiency (modelled
    by the stream prefetcher — dense attention reads the KV cache as
    bulk DMA bursts, which a stride engine covers); sparse TopK selection
    defeats exactly that engine, so the measured speedup falls short of
    the parameter reduction — the motivation gap.
    """
    session = session or default_session()
    rs = session.sweep(fig1b_plan(ratios, scale=scale, seed=seed))
    cycles, offchip = [], []
    for ratio in ratios:
        result = rs.one(topk_ratio=ratio)
        steps = max(1, result.n_rows or 0)
        cycles.append(result.total_cycles / steps)
        offchip.append(result.stats.traffic.off_chip_total_bytes / steps)
    speedups = [cycles[0] / c for c in cycles]
    return Fig1bResult(
        ratios=list(ratios),
        cycles_per_step=cycles,
        speedups=speedups,
        offchip_per_step=offchip,
    )


# ---------------------------------------------------------------------------
# Fig. 5 — normalised latency breakdown
# ---------------------------------------------------------------------------


@dataclass
class Fig5Cell:
    """One bar: base + stall, normalised to the panel's InO total."""

    base: float
    stall: float

    @property
    def total(self) -> float:
        return self.base + self.stall


@dataclass
class Fig5Result:
    """panel -> workload -> mechanism -> Fig5Cell."""

    panels: dict[str, dict[str, dict[str, Fig5Cell]]]

    def mean_latency(self, panel: str, mechanism: str) -> float:
        cells = [w[mechanism] for w in self.panels[panel].values()]
        return geometric_mean([max(c.total, 1e-9) for c in cells])

    def stall_reduction(self, panel: str, mechanism: str) -> float:
        """Mean reduction of stall time vs InO within a panel."""
        reductions = []
        for per_mech in self.panels[panel].values():
            ino = per_mech["inorder"].stall
            ours = per_mech[mechanism].stall
            if ino > 0:
                reductions.append(1.0 - ours / ino)
        return sum(reductions) / len(reductions) if reductions else 0.0


_FIG5_PANELS: tuple[tuple[str, str, bool], ...] = (
    ("int8", "int8", False),
    ("fp16", "fp16", False),
    ("int32", "int32", False),
    ("int32+nsb", "int32", True),
)


def fig5_plan(
    workloads: tuple[str, ...] = WORKLOAD_ORDER,
    mechanisms: tuple[str, ...] = MECHANISM_ORDER,
    panels: tuple[str, ...] = ("int8", "fp16", "int32", "int32+nsb"),
    scale: float = 0.5,
    seed: int = 0,
) -> list[RunSpec]:
    """The Fig. 5 ``panels x workloads x mechanisms`` grid as plan content.

    The panel axis is not a cartesian product (the NSB panel repeats the
    int32 dtype), so the plan is one Grid per panel, concatenated in
    panel order.
    """
    specs: list[RunSpec] = []
    for _, dtype, nsb in [p for p in _FIG5_PANELS if p[0] in panels]:
        specs += Grid(
            workload=workloads,
            mechanism=mechanisms,
            dtype=dtype,
            nsb=nsb,
            scale=scale,
            seed=seed,
            with_base=True,
        ).specs()
    return specs


def fig5_latency_breakdown(
    workloads: tuple[str, ...] = WORKLOAD_ORDER,
    mechanisms: tuple[str, ...] = MECHANISM_ORDER,
    panels: tuple[str, ...] = ("int8", "fp16", "int32", "int32+nsb"),
    scale: float = 0.5,
    seed: int = 0,
    session: Session | None = None,
) -> Fig5Result:
    """Fig. 5: all four panels of the latency breakdown.

    The full figure is one plan of ``panels x workloads x mechanisms``
    base+stall points — the hottest sweep of the reproduction, and the
    reason the runner exists.
    """
    session = session or default_session()
    rs = session.sweep(fig5_plan(workloads, mechanisms, panels, scale=scale, seed=seed))
    out: dict[str, dict[str, dict[str, Fig5Cell]]] = {}
    for panel_name, dtype, nsb in [p for p in _FIG5_PANELS if p[0] in panels]:
        panel: dict[str, dict[str, Fig5Cell]] = {}
        for workload in workloads:
            per_mech: dict[str, RunResult] = {
                mech: rs.one(workload=workload, mechanism=mech, dtype=dtype, nsb=nsb)
                for mech in mechanisms
            }
            ino_total = per_mech["inorder"].total_cycles
            panel[workload] = {
                mech: Fig5Cell(
                    base=r.base_cycles / ino_total,
                    stall=r.stall_cycles / ino_total,
                )
                for mech, r in per_mech.items()
            }
        out[panel_name] = panel
    return Fig5Result(panels=out)


# ---------------------------------------------------------------------------
# Fig. 6a/6b — accuracy and coverage
# ---------------------------------------------------------------------------


@dataclass
class Fig6Result:
    """workload -> mechanism -> (accuracy, coverage)."""

    data: dict[str, dict[str, tuple[float, float]]]

    def mean_accuracy(self, mechanism: str) -> float:
        return sum(w[mechanism][0] for w in self.data.values()) / len(self.data)

    def mean_coverage(self, mechanism: str) -> float:
        return sum(w[mechanism][1] for w in self.data.values()) / len(self.data)


def fig6_plan(
    workloads: tuple[str, ...] = WORKLOAD_ORDER,
    mechanisms: tuple[str, ...] = PREFETCHER_MECHS,
    scale: float = 0.5,
    seed: int = 0,
) -> list[RunSpec]:
    """The Fig. 6a/6b accuracy/coverage grid as plan content."""
    return Grid(
        workload=workloads, mechanism=mechanisms, scale=scale, seed=seed
    ).specs()


def fig6_accuracy_coverage(
    workloads: tuple[str, ...] = WORKLOAD_ORDER,
    mechanisms: tuple[str, ...] = PREFETCHER_MECHS,
    scale: float = 0.5,
    seed: int = 0,
    session: Session | None = None,
) -> Fig6Result:
    """Fig. 6a/6b: prefetcher accuracy and coverage per workload."""
    session = session or default_session()
    rs = session.sweep(fig6_plan(workloads, mechanisms, scale=scale, seed=seed))
    data: dict[str, dict[str, tuple[float, float]]] = {}
    for workload in workloads:
        data[workload] = {}
        for mech in mechanisms:
            result = rs.one(workload=workload, mechanism=mech)
            data[workload][mech] = (
                result.stats.prefetch.accuracy,
                result.stats.coverage(),
            )
    return Fig6Result(data=data)


# ---------------------------------------------------------------------------
# Fig. 6c — data movement (off-chip access reduction)
# ---------------------------------------------------------------------------


@dataclass
class Fig6cResult:
    """Demand off-chip bytes during actual load execution, per config."""

    offchip_demand: dict[str, int]
    in_chip: dict[str, int]

    def reduction(self, config: str, versus: str = "inorder") -> float:
        """How many times fewer demand off-chip bytes than ``versus``."""
        ours = max(1, self.offchip_demand[config])
        return self.offchip_demand[versus] / ours


#: The Fig. 6c bars: config label -> (mechanism, nsb).
_FIG6C_CONFIGS: dict[str, tuple[str, bool]] = {
    "inorder": ("inorder", False),
    "nvr": ("nvr", False),
    "nvr+nsb": ("nvr", True),
}


def fig6c_plan(
    workload: str = "ds", scale: float = 0.5, seed: int = 0
) -> list[RunSpec]:
    """The Fig. 6c InO / NVR / NVR+NSB triple as plan content."""
    return (
        Grid(
            workload=workload,
            mechanism=["inorder", "nvr"],
            scale=scale,
            seed=seed,
        ).specs()
        + Grid(
            workload=workload, mechanism="nvr", nsb=True, scale=scale, seed=seed
        ).specs()
    )


def fig6c_data_movement(
    workload: str = "ds",
    scale: float = 0.5,
    seed: int = 0,
    session: Session | None = None,
) -> Fig6cResult:
    """Fig. 6c: InO vs NVR vs NVR+NSB demand off-chip traffic.

    The paper plots actual-load execution traffic (prefetch bandwidth
    removed): NVR turns demand misses into overlappable prefetches
    (~30x), and the NSB removes re-fetches on top (~5x more).
    """
    session = session or default_session()
    rs = session.sweep(fig6c_plan(workload, scale=scale, seed=seed))
    offchip, in_chip = {}, {}
    for name, (mech, nsb) in _FIG6C_CONFIGS.items():
        shares = bandwidth_shares(rs.one(mechanism=mech, nsb=nsb).stats)
        offchip[name] = shares["off_chip_demand"]
        in_chip[name] = shares["l2_to_npu"] + shares["nsb_to_npu"]
    return Fig6cResult(offchip_demand=offchip, in_chip=in_chip)


# ---------------------------------------------------------------------------
# Fig. 7 — bandwidth allocation
# ---------------------------------------------------------------------------


def explicit_preload_bytes(program, granule: int = 512) -> int:
    """Off-chip traffic of the baseline's *explicit preload* (no NVR).

    A Gemmini-class NPU without gather support must ``mvin`` the scattered
    operand at coarse DMA granularity: per sparse row, every touched
    ``granule``-byte region is transferred whole. This is the
    over-fetching the paper's Sec. II attributes to explicit buffers
    ("out-of-bounds accesses") and the reference against which Fig. 7's
    ~75% off-chip bandwidth reduction is measured.
    """
    total = 0
    current_row = -1
    blocks: set[int] = set()
    for tile in program.tiles:
        if tile.row != current_row:
            total += len(blocks) * granule
            blocks = set()
            current_row = tile.row
        for gather in tile.gathers:
            for addr in gather.byte_addrs:
                first = int(addr) // granule
                last = (int(addr) + gather.seg_bytes - 1) // granule
                blocks.update(range(first, last + 1))
    total += len(blocks) * granule
    return total


@dataclass
class Fig7Result:
    """Traffic shares normalised to the explicit-preload baseline (=100)."""

    preload_baseline: float  # always 100
    without_nsb: dict[str, float]
    with_nsb: dict[str, float]

    def offchip_reduction(self, with_nsb: bool) -> float:
        """Fractional off-chip traffic reduction vs explicit preload."""
        shares = self.with_nsb if with_nsb else self.without_nsb
        offchip = shares["npu_demand"] + shares["nvr_prefetch"]
        return 1.0 - offchip / 100.0


def fig7_plan(workload: str = "ds", scale: float = 0.5, seed: int = 0) -> list[RunSpec]:
    """The Fig. 7 preload / NVR / NVR+NSB triple as plan content."""
    return (
        Grid(
            workload=workload,
            mechanism=["preload", "nvr"],
            scale=scale,
            seed=seed,
        ).specs()
        + Grid(
            workload=workload, mechanism="nvr", nsb=True, scale=scale, seed=seed
        ).specs()
    )


def fig7_bandwidth_allocation(
    workload: str = "ds",
    scale: float = 0.5,
    seed: int = 0,
    session: Session | None = None,
) -> Fig7Result:
    """Fig. 7: who uses the memory system, with and without the NSB.

    The 100% reference is the *simulated* explicit-preload baseline
    (Gemmini's native coarse-DMA mode, ``mechanism='preload'``); NVR's
    line-granular speculative fetches plus residual demand misses
    replace its over-fetched bursts.
    """
    session = session or default_session()
    rs = session.sweep(fig7_plan(workload, scale=scale, seed=seed))
    baseline = rs.one(mechanism="preload")
    no_nsb = rs.one(mechanism="nvr", nsb=False)
    with_nsb = rs.one(mechanism="nvr", nsb=True)
    preload = max(1, baseline.stats.traffic.off_chip_total_bytes)

    def shares(result: RunResult) -> dict[str, float]:
        s = bandwidth_shares(result.stats)
        return {
            "npu_demand": 100.0 * s["off_chip_demand"] / preload,
            "nvr_prefetch": 100.0 * s["off_chip_prefetch"] / preload,
            "l2_to_npu": 100.0 * s["l2_to_npu"] / preload,
            "nsb_to_npu": 100.0 * s["nsb_to_npu"] / preload,
        }

    return Fig7Result(
        preload_baseline=100.0,
        without_nsb=shares(no_nsb),
        with_nsb=shares(with_nsb),
    )


# ---------------------------------------------------------------------------
# Fig. 8 — system-level LLM evaluation
# ---------------------------------------------------------------------------


def fig8a_layer_miss(
    scale: float = 0.3,
    seed: int = 0,
    session: Session | None = None,
) -> dict[str, dict[str, tuple[float, float]]]:
    """Fig. 8a: per-layer batch/element miss rates, InO vs NVR."""
    return layer_miss_rates(
        mechanisms=("inorder", "nvr"),
        scale=scale,
        seed=seed,
        session=session,
    )


@dataclass
class Fig8bcResult:
    """Throughput-vs-bandwidth series for both stages."""

    bandwidths: list[float]
    prefill: dict[str, dict[int, list[float]]]  # mech -> seq len -> series
    decode: dict[str, dict[int, list[float]]]

    def decode_gain(self, seq_len: int, bw_index: int = -1) -> float:
        base = self.decode["inorder"][seq_len][bw_index]
        return self.decode["nvr"][seq_len][bw_index] / base - 1.0


def fig8bc_llm_throughput(
    prefill_lens: tuple[int, ...] = (1024, 2048, 4096),
    decode_lens: tuple[int, ...] = (512, 1024, 2048),
    bandwidths: tuple[float, ...] = (100, 200, 400, 800, 1600, 2400, 3200, 4000),
    calib_scale: float = 0.3,
    seed: int = 0,
    session: Session | None = None,
) -> Fig8bcResult:
    """Fig. 8b/8c: prefill and decode throughput vs bandwidth."""
    session = session or default_session()
    spec, hw = TransformerSpec(), NPUHardware()
    calibs = {
        "inorder": calibrate_memory_efficiency(
            "inorder", scale=calib_scale, seed=seed, session=session
        ),
        "nvr": calibrate_memory_efficiency(
            "nvr", scale=calib_scale, seed=seed, session=session
        ),
    }
    prefill: dict[str, dict[int, list[float]]] = {}
    decode: dict[str, dict[int, list[float]]] = {}
    for mech, calib in calibs.items():
        prefill[mech] = {
            l: [prefill_throughput(spec, hw, l, bw, calib) for bw in bandwidths]
            for l in prefill_lens
        }
        decode[mech] = {
            l: [decode_throughput(spec, hw, l, bw, calib) for bw in bandwidths]
            for l in decode_lens
        }
    return Fig8bcResult(bandwidths=list(bandwidths), prefill=prefill, decode=decode)


# ---------------------------------------------------------------------------
# Fig. 9 — NSB vs L2 sensitivity
# ---------------------------------------------------------------------------


@dataclass
class Fig9Result:
    """Perf grid: rows = NSB KiB, cols = L2 KiB; perf = 1/(latency*area)."""

    nsb_sizes: list[int]
    l2_sizes: list[int]
    perf: list[list[float]]  # arbitrary units, scaled for readability
    cycles: list[list[int]]

    def cell(self, nsb_kib: int, l2_kib: int) -> float:
        return self.perf[self.nsb_sizes.index(nsb_kib)][self.l2_sizes.index(l2_kib)]

    def nsb_vs_l2_benefit(self) -> float:
        """The paper's headline comparison: at 256 KiB L2, growing the NSB
        4 KiB -> 16 KiB versus growing the L2 256 -> 1024 KiB at 4 KiB NSB.
        Returns the ratio of perf gains (paper: ~5x)."""
        nsb_gain = self.cell(16, 256) / self.cell(4, 256)
        l2_gain = self.cell(4, 1024) / self.cell(4, 256)
        return nsb_gain / max(l2_gain, 1e-9)


def fig9_plan(
    nsb_sizes: tuple[int, ...] = (4, 8, 16, 32),
    l2_sizes: tuple[int, ...] = (64, 128, 192, 256, 384, 512, 1024),
    workload: str = "ds",
    scale: float = 0.4,
    seed: int = 0,
) -> list[RunSpec]:
    """The Fig. 9 NSB-size x L2-size grid as plan content."""
    return Grid(
        workload=workload,
        mechanism="nvr",
        scale=scale,
        seed=seed,
        nsb_kib=nsb_sizes,
        l2_kib=l2_sizes,
    ).specs()


def fig9_nsb_sensitivity(
    nsb_sizes: tuple[int, ...] = (4, 8, 16, 32),
    l2_sizes: tuple[int, ...] = (64, 128, 192, 256, 384, 512, 1024),
    workload: str = "ds",
    scale: float = 0.4,
    seed: int = 0,
    session: Session | None = None,
) -> Fig9Result:
    """Fig. 9: NSB and L2 cache impact, perf = 1/(latency x area)."""
    session = session or default_session()
    rs = session.sweep(fig9_plan(nsb_sizes, l2_sizes, workload, scale=scale, seed=seed))
    perf: list[list[float]] = []
    cycles: list[list[int]] = []
    for nsb_kib in nsb_sizes:
        perf_row, cyc_row = [], []
        for l2_kib in l2_sizes:
            result = rs.one(nsb_kib=nsb_kib, l2_kib=l2_kib)
            area = nsb_kib + l2_kib
            perf_row.append(1e9 / (result.total_cycles * area))
            cyc_row.append(result.total_cycles)
        perf.append(perf_row)
        cycles.append(cyc_row)
    return Fig9Result(
        nsb_sizes=list(nsb_sizes),
        l2_sizes=list(l2_sizes),
        perf=perf,
        cycles=cycles,
    )


# ---------------------------------------------------------------------------
# Sensitivity ablations (Sec. V sensitivity space: runahead depth/width,
# NSB sizing, issue width) — declarative Grid sweeps over the derived
# platform axes: every point carries a full serialisable platform
# description, so the studies cache and parallelise like the figures.
# ---------------------------------------------------------------------------

ABLATION_WORKLOADS: tuple[str, ...] = ("ds", "gcn", "st")


@dataclass
class AblationResult:
    """One sensitivity table: rows = axis values, columns = workloads."""

    name: str
    axis: str
    values: list[int]
    workloads: list[str]
    cycles: dict[str, list[int]]  # workload -> cycles aligned with values

    def speedups(self, workload: str) -> list[float]:
        """Per-value speedup over the first (baseline) axis value."""
        base = self.cycles[workload][0]
        return [base / max(c, 1) for c in self.cycles[workload]]

    def geomean_speedups(self) -> list[float]:
        """Per-value geometric-mean speedup across the workloads."""
        return [
            geometric_mean([self.speedups(w)[i] for w in self.workloads])
            for i in range(len(self.values))
        ]

    def best_value(self) -> int:
        """Axis value with the highest geomean speedup."""
        means = self.geomean_speedups()
        return self.values[means.index(max(means))]


def _run_ablation(
    name: str,
    axis: str,
    grid_axis: str,
    values: tuple[int, ...],
    workloads: tuple[str, ...],
    scale: float,
    seed: int,
    session: Session | None,
) -> AblationResult:
    session = session or default_session()
    rs = session.sweep(
        Grid(
            workload=workloads,
            mechanism="nvr",
            scale=scale,
            seed=seed,
            **{grid_axis: tuple(values)},
        )
    )
    cycles = {
        w: [rs.one(workload=w, **{grid_axis: v}).total_cycles for v in values]
        for w in workloads
    }
    return AblationResult(
        name=name,
        axis=axis,
        values=list(values),
        workloads=list(workloads),
        cycles=cycles,
    )


def ablate_nvr_depth(
    values: tuple[int, ...] = (1, 2, 4, 8, 16),
    workloads: tuple[str, ...] = ABLATION_WORKLOADS,
    scale: float = 0.4,
    seed: int = 0,
    session: Session | None = None,
) -> AblationResult:
    """Runahead depth sweep: how far ahead NVR chases the W stream."""
    return _run_ablation(
        "nvr-depth", "depth_tiles", "nvr_depth",
        values, workloads, scale, seed, session,
    )


def ablate_nvr_width(
    values: tuple[int, ...] = (4, 8, 16, 32),
    workloads: tuple[str, ...] = ABLATION_WORKLOADS,
    scale: float = 0.4,
    seed: int = 0,
    session: Session | None = None,
) -> AblationResult:
    """Vector width sweep: NVR's parallel-entry count N (Table I: 16)."""
    return _run_ablation(
        "nvr-width", "vector_width", "nvr_width",
        values, workloads, scale, seed, session,
    )


def ablate_nsb_size(
    values: tuple[int, ...] = (4, 8, 16, 32, 64),
    workloads: tuple[str, ...] = ABLATION_WORKLOADS,
    scale: float = 0.4,
    seed: int = 0,
    session: Session | None = None,
) -> AblationResult:
    """NSB capacity sweep at the default 256 KiB L2 (Fig. 9's row axis)."""
    return _run_ablation(
        "nsb-size", "nsb_kib", "nsb_kib",
        values, workloads, scale, seed, session,
    )


def ablate_issue_width(
    values: tuple[int, ...] = (1, 2, 4, 8),
    workloads: tuple[str, ...] = ABLATION_WORKLOADS,
    scale: float = 0.4,
    seed: int = 0,
    session: Session | None = None,
) -> AblationResult:
    """Load-pipeline issue width sweep (line requests per cycle)."""
    return _run_ablation(
        "issue-width", "issue_width", "issue_width",
        values, workloads, scale, seed, session,
    )


#: Named ablation studies, the `repro ablate` CLI's menu.
ABLATIONS = {
    "nvr-depth": ablate_nvr_depth,
    "nvr-width": ablate_nvr_width,
    "nsb-size": ablate_nsb_size,
    "issue-width": ablate_issue_width,
}


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------


def table1_overhead(vector_width: int = 16) -> OverheadReport:
    """Table I: NVR hardware storage overhead."""
    return nvr_overhead(vector_width=vector_width)


@dataclass
class Table2Row:
    short: str
    full_name: str
    domain: str
    gather_elements: int
    footprint_kib: float
    reuse_factor: float


def table2_plan(scale: float = 0.3, seed: int = 0) -> list[RunSpec]:
    """The Table II trace-statistics pass as plan content."""
    return Grid(
        workload=WORKLOAD_ORDER, kind="trace", scale=scale, seed=seed
    ).specs()


def table2_workloads(
    scale: float = 0.3,
    seed: int = 0,
    session: Session | None = None,
) -> list[Table2Row]:
    """Table II: the workload suite, with measured trace statistics."""
    session = session or default_session()
    rs = session.sweep(table2_plan(scale=scale, seed=seed))
    rows = []
    for short in WORKLOAD_ORDER:
        stats = rs.one(workload=short)
        info = WORKLOAD_INFO[short]
        rows.append(
            Table2Row(
                short=info.short,
                full_name=info.full_name,
                domain=info.domain,
                gather_elements=stats.gather_elements,
                footprint_kib=stats.footprint_bytes / KIB,
                reuse_factor=stats.reuse_factor,
            )
        )
    return rows
