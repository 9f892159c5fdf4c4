"""What each paper figure and table sweeps, and what it measures.

A figure is two functions here. Its ``*_plan`` builder returns the
sweeps the figure submits, in order, each a list of
:class:`~repro.runner.RunSpec` points built on
:class:`~repro.session.Grid`; only the builder declares the figure's
parameters and their defaults. Its reduction turns the concatenated
:class:`~repro.resultset.ResultSet` of those sweeps into the figure's
numbers, reading every axis off the results, so it repeats none of
them. :data:`repro.analysis.paperfigs.FIGURES` pairs the two with a
renderer, and ``FIGURES[name].run(scale=..., session=...)`` runs one
figure. ``scale`` trades run time for statistical weight; the shapes
(who wins, by what factor, where crossovers fall) are stable from
``scale≈0.3`` upward.

The sensitivity ablations are the data rows of :data:`ABLATIONS`, run
by :func:`run_ablation`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..api import MECHANISM_ORDER
from ..llm import (
    MemoryCalibration,
    NPUHardware,
    TransformerSpec,
    calibration_plan,
    decode_throughput,
    gather_layer_rates,
    layer_miss_plan,
    prefill_throughput,
)
from ..registry import Registry
from ..resultset import ResultSet, axis_value
from ..runner import RunSpec
from ..session import Grid, Session, default_session
from ..sim.soc import RunResult
from ..utils import KIB, geometric_mean
from ..workloads import WORKLOAD_INFO, WORKLOAD_ORDER
from .metrics import bandwidth_shares

#: A figure's plan: the spec lists it submits, one sweep each, in order.
Sweeps = list[list[RunSpec]]


def _label(name: str, nsb: bool) -> str:
    """A bar or panel name: ``name``, with ``+nsb`` when the NSB is on."""
    return f"{name}+nsb" if nsb else name


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
) -> Sweeps:
    """The Fig. 1b TopK sweep: the streaming baseline on DS per ratio.

    drift=1.0: scores are re-ranked from scratch each step (worst-case
    TopK churn), isolating the miss penalty from selection locality.
    """
    return [
        Grid(
            workload="ds",
            mechanism="stream",
            scale=scale,
            seed=seed,
            topk_ratio=list(ratios),
            drift=1.0,
        ).specs()
    ]


def fig1b_sparsity_gap(rs: ResultSet) -> Fig1bResult:
    """Fig. 1b: 16x fewer parameters yields well under 16x speedup.

    The baseline NPU runs with its native streaming efficiency (modelled
    by the stream prefetcher — dense attention reads the KV cache as
    bulk DMA bursts, which a stride engine covers); sparse TopK selection
    defeats exactly that engine, so the measured speedup falls short of
    the parameter reduction — the motivation gap.
    """
    ratios = list(dict.fromkeys(axis_value(s, "topk_ratio") for s in rs.specs))
    cycles, offchip = [], []
    for ratio in ratios:
        result = rs.one(topk_ratio=ratio)
        steps = max(1, result.n_rows or 0)
        cycles.append(result.total_cycles / steps)
        offchip.append(result.stats.traffic.off_chip_total_bytes / steps)
    return Fig1bResult(
        ratios=ratios,
        cycles_per_step=cycles,
        speedups=[cycles[0] / c for c in cycles],
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


def fig5_plan(
    workloads: tuple[str, ...] = WORKLOAD_ORDER,
    mechanisms: tuple[str, ...] = MECHANISM_ORDER,
    panels: tuple[str, ...] = ("int8", "fp16", "int32", "int32+nsb"),
    scale: float = 0.5,
    seed: int = 0,
) -> Sweeps:
    """The Fig. 5 ``panels x workloads x mechanisms`` base+stall grid.

    A panel is a dtype, suffixed ``+nsb`` for the NSB panel, so the
    panel axis is not a cartesian product: the one sweep concatenates a
    Grid per panel, in panel order. It is the hottest sweep of the
    reproduction, and the reason the runner exists.
    """
    specs: list[RunSpec] = []
    for panel in panels:
        specs += Grid(
            workload=workloads,
            mechanism=mechanisms,
            dtype=panel.removesuffix("+nsb"),
            nsb=panel.endswith("+nsb"),
            scale=scale,
            seed=seed,
            with_base=True,
        ).specs()
    return [specs]


def fig5_latency_breakdown(rs: ResultSet) -> Fig5Result:
    """Fig. 5: every bar's base and stall over its workload's InO total."""
    runs: dict[str, dict[str, dict[str, RunResult]]] = {}
    for spec, result in rs:
        panel = runs.setdefault(_label(spec.dtype, spec.nsb), {})
        panel.setdefault(spec.workload, {})[spec.mechanism] = result
    panels: dict[str, dict[str, dict[str, Fig5Cell]]] = {}
    for name, per_workload in runs.items():
        panels[name] = {}
        for workload, per_mech in per_workload.items():
            ino_total = per_mech["inorder"].total_cycles
            panels[name][workload] = {
                mech: Fig5Cell(
                    base=r.base_cycles / ino_total,
                    stall=r.stall_cycles / ino_total,
                )
                for mech, r in per_mech.items()
            }
    return Fig5Result(panels=panels)


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
    mechanisms: tuple[str, ...] = ("stream", "imp", "dvr", "nvr"),
    scale: float = 0.5,
    seed: int = 0,
) -> Sweeps:
    """The Fig. 6a/6b accuracy/coverage grid."""
    return [
        Grid(workload=workloads, mechanism=mechanisms, scale=scale, seed=seed).specs()
    ]


def fig6_accuracy_coverage(rs: ResultSet) -> Fig6Result:
    """Fig. 6a/6b: prefetcher accuracy and coverage per workload."""
    data: dict[str, dict[str, tuple[float, float]]] = {}
    for spec, result in rs:
        data.setdefault(spec.workload, {})[spec.mechanism] = (
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


def fig6c_plan(workload: str = "ds", scale: float = 0.5, seed: int = 0) -> Sweeps:
    """The Fig. 6c InO / NVR / NVR+NSB triple."""
    return [
        Grid(
            workload=workload,
            mechanism=["inorder", "nvr"],
            scale=scale,
            seed=seed,
        ).specs()
        + Grid(
            workload=workload, mechanism="nvr", nsb=True, scale=scale, seed=seed
        ).specs()
    ]


def fig6c_data_movement(rs: ResultSet) -> Fig6cResult:
    """Fig. 6c: InO vs NVR vs NVR+NSB demand off-chip traffic.

    The paper plots actual-load execution traffic (prefetch bandwidth
    removed): NVR turns demand misses into overlappable prefetches
    (~30x), and the NSB removes re-fetches on top (~5x more).
    """
    offchip, in_chip = {}, {}
    for spec, result in rs:
        name = _label(spec.mechanism, spec.nsb)
        shares = bandwidth_shares(result.stats)
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


def fig7_plan(workload: str = "ds", scale: float = 0.5, seed: int = 0) -> Sweeps:
    """The Fig. 7 preload / NVR / NVR+NSB triple."""
    return [
        Grid(
            workload=workload,
            mechanism=["preload", "nvr"],
            scale=scale,
            seed=seed,
        ).specs()
        + Grid(
            workload=workload, mechanism="nvr", nsb=True, scale=scale, seed=seed
        ).specs()
    ]


def fig7_bandwidth_allocation(rs: ResultSet) -> Fig7Result:
    """Fig. 7: who uses the memory system, with and without the NSB.

    The 100% reference is the *simulated* explicit-preload baseline
    (Gemmini's native coarse-DMA mode, ``mechanism='preload'``); NVR's
    line-granular speculative fetches plus residual demand misses
    replace its over-fetched bursts.
    """
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


@dataclass
class Fig8Result:
    """Per-layer miss rates (8a) and throughput-vs-bandwidth series (8b/8c)."""

    rates: dict[str, dict[str, tuple[float, float]]]  # layer -> mech -> rates
    bandwidths: list[float]
    prefill: dict[str, dict[int, list[float]]]  # mech -> seq len -> series
    decode: dict[str, dict[int, list[float]]]

    def decode_gain(self, seq_len: int, bw_index: int = -1) -> float:
        base = self.decode["inorder"][seq_len][bw_index]
        return self.decode["nvr"][seq_len][bw_index] / base - 1.0


def fig8_plan(scale: float = 0.3, seed: int = 0) -> Sweeps:
    """Fig. 8's four sweeps, InO then NVR in each half.

    First the 8a gather layers (QK^T and AV), one sweep per mechanism;
    then the 8b/8c roofline calibrations, one in-order reference plus
    measured pair per mechanism.
    """
    mechanisms = ("inorder", "nvr")
    return [layer_miss_plan((m,), scale=scale, seed=seed) for m in mechanisms] + [
        calibration_plan(m, scale=scale, seed=seed) for m in mechanisms
    ]


def fig8_llm_evaluation(
    rs: ResultSet,
    prefill_lens: tuple[int, ...] = (1024, 2048, 4096),
    decode_lens: tuple[int, ...] = (512, 1024, 2048),
    bandwidths: tuple[float, ...] = (100, 200, 400, 800, 1600, 2400, 3200, 4000),
) -> Fig8Result:
    """Fig. 8a per-layer miss rates; 8b/8c prefill and decode throughput.

    The gather layers are the plain runs and the calibrations the
    ``with_base`` ones. Each calibration pair leads with the same
    in-order reference, so every second calibration run is a measured
    one. The sequence lengths and bandwidths feed the roofline model
    only, so they never reach a spec.
    """
    calibrations = rs.filter(with_base=True)
    reference = calibrations.results[0]
    model, hw = TransformerSpec(), NPUHardware()
    prefill: dict[str, dict[int, list[float]]] = {}
    decode: dict[str, dict[int, list[float]]] = {}
    for spec, run in calibrations[1::2]:
        calib = MemoryCalibration.measure(spec.mechanism, reference, run)
        prefill[spec.mechanism] = {
            l: [prefill_throughput(model, hw, l, bw, calib) for bw in bandwidths]
            for l in prefill_lens
        }
        decode[spec.mechanism] = {
            l: [decode_throughput(model, hw, l, bw, calib) for bw in bandwidths]
            for l in decode_lens
        }
    return Fig8Result(
        rates=gather_layer_rates(rs.filter(with_base=False)),
        bandwidths=list(bandwidths),
        prefill=prefill,
        decode=decode,
    )


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
) -> Sweeps:
    """The Fig. 9 NSB-size x L2-size grid."""
    return [
        Grid(
            workload=workload,
            mechanism="nvr",
            scale=scale,
            seed=seed,
            nsb_kib=nsb_sizes,
            l2_kib=l2_sizes,
        ).specs()
    ]


def fig9_nsb_sensitivity(rs: ResultSet) -> Fig9Result:
    """Fig. 9: NSB and L2 cache impact, perf = 1/(latency x area)."""
    grid = rs.pivot("nsb_kib", "l2_kib")
    perf = [
        [1e9 / (cycles * (nsb + l2)) for cycles, l2 in zip(row, grid.cols)]
        for row, nsb in zip(grid.values, grid.rows)
    ]
    return Fig9Result(
        nsb_sizes=grid.rows, l2_sizes=grid.cols, perf=perf, cycles=grid.values
    )


# ---------------------------------------------------------------------------
# Table II — the workload suite
# ---------------------------------------------------------------------------


@dataclass
class Table2Row:
    short: str
    full_name: str
    domain: str
    gather_elements: int
    footprint_kib: float
    reuse_factor: float


def table2_plan(scale: float = 0.3, seed: int = 0) -> Sweeps:
    """The Table II trace-statistics pass, one trace point per workload."""
    return [Grid(workload=WORKLOAD_ORDER, kind="trace", scale=scale, seed=seed).specs()]


def table2_workloads(rs: ResultSet) -> list[Table2Row]:
    """Table II: the workload suite, with measured trace statistics."""
    rows = []
    for spec, stats in rs:
        info = WORKLOAD_INFO[spec.workload]
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


# ---------------------------------------------------------------------------
# Sensitivity ablations (Sec. V sensitivity space: runahead depth/width,
# NSB sizing, issue width) — declarative Grid sweeps over the derived
# platform axes: every point carries a full serialisable platform
# description, so the studies cache and parallelise like the figures.
# ---------------------------------------------------------------------------

ABLATION_WORKLOADS: tuple[str, ...] = ("ds", "gcn", "st")


@dataclass(frozen=True)
class Ablation:
    """One sensitivity study: NVR runs swept along one platform axis."""

    axis: str  # the config field the study's table is labelled with
    grid_axis: str  # the Grid axis that sweeps it
    values: tuple[int, ...]  # the default sweep; the first is the baseline


#: Named ablation studies, the `repro ablate` CLI's menu.
ABLATIONS = Registry("ablation")
# How far ahead NVR chases the W stream.
ABLATIONS.register("nvr-depth", Ablation("depth_tiles", "nvr_depth", (1, 2, 4, 8, 16)))
# NVR's parallel-entry count N (Table I: 16).
ABLATIONS.register("nvr-width", Ablation("vector_width", "nvr_width", (4, 8, 16, 32)))
# NSB capacity at the default 256 KiB L2 (Fig. 9's row axis).
ABLATIONS.register("nsb-size", Ablation("nsb_kib", "nsb_kib", (4, 8, 16, 32, 64)))
# Load-pipeline issue width (line requests per cycle).
ABLATIONS.register("issue-width", Ablation("issue_width", "issue_width", (1, 2, 4, 8)))


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


def run_ablation(
    name: str,
    values: tuple[int, ...] | None = None,
    workloads: tuple[str, ...] = ABLATION_WORKLOADS,
    scale: float = 0.4,
    seed: int = 0,
    session: Session | None = None,
) -> AblationResult:
    """One :data:`ABLATIONS` study: NVR cycles per workload and axis value.

    ``values`` defaults to the study's own sweep.
    """
    study = ABLATIONS[name]
    values = study.values if values is None else tuple(values)
    session = session or default_session()
    rs = session.sweep(
        Grid(
            workload=workloads,
            mechanism="nvr",
            scale=scale,
            seed=seed,
            **{study.grid_axis: values},
        )
    )
    cycles = {
        w: [rs.one(workload=w, **{study.grid_axis: v}).total_cycles for v in values]
        for w in workloads
    }
    return AblationResult(
        name=name,
        axis=study.axis,
        values=list(values),
        workloads=list(workloads),
        cycles=cycles,
    )
