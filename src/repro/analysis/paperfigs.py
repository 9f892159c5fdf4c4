"""Generate EXPERIMENTS.md: every paper table/figure, paper vs measured.

Regenerate the full comparison with the ``figures`` command::

    python -m repro figures --scale 0.6 -o EXPERIMENTS.md

Scale trades run time for statistical weight; shapes are stable from
~0.3. The full-paper run (scale 1.0) takes tens of minutes on a laptop.
"""

from __future__ import annotations

import time

from ..llm import calibration_plan, layer_miss_plan
from ..runner import Plan
from ..session import Session, default_session
from ..utils import geometric_mean
from ..workloads import WORKLOAD_ORDER
from .experiments import (
    fig1b_plan,
    fig1b_sparsity_gap,
    fig5_latency_breakdown,
    fig5_plan,
    fig6_accuracy_coverage,
    fig6_plan,
    fig6c_data_movement,
    fig6c_plan,
    fig7_bandwidth_allocation,
    fig7_plan,
    fig8a_layer_miss,
    fig8bc_llm_throughput,
    fig9_nsb_sensitivity,
    fig9_plan,
    table1_overhead,
    table2_plan,
    table2_workloads,
)
from .report import format_grid, format_series, format_table

#: ``generate_report`` caps the heavier figures below the headline scale;
#: :func:`figures_plan` must apply the same caps to cover the same points.
FIG8_SCALE_CAP = 0.4
FIG9_SCALE_CAP = 0.5


def _header(scale: float, seed: int, elapsed: float, session=None) -> str:
    run_line = (
        f"Run parameters: scale={scale}, seed={seed}, wall time "
        f"{elapsed / 60:.1f} min."
    )
    if session is not None:
        run_line += (
            f" Sweep: {session.submitted} points simulated, "
            f"{session.cache_hits} served from cache ({session.jobs} jobs)."
        )
    return (
        "# EXPERIMENTS — paper vs measured\n\n"
        "Reproduction of every table and figure in *NVR: Vector Runahead on\n"
        "NPUs for Sparse Memory Access* (DAC 2025). Absolute numbers differ\n"
        "from the paper (our substrate is a cycle-approximate Python\n"
        "simulator, not the authors' ScaleSim/RTL testbed); the *shape* —\n"
        "who wins, by roughly what factor, where crossovers fall — is the\n"
        "reproduction target. Regenerate with:\n\n"
        "```\n"
        f"python -m repro figures --scale {scale} -o EXPERIMENTS.md\n"
        "```\n\n"
        f"{run_line}\n"
    )


def _fig1b(scale: float, seed: int, session=None) -> str:
    res = fig1b_sparsity_gap(scale=scale, seed=seed, session=session)
    rows = [
        [f"1/{r}", round(s, 2), r, round(r / s, 2), int(o)]
        for r, s, o in zip(res.ratios, res.speedups, res.offchip_per_step)
    ]
    body = format_table(
        [
            "params",
            "measured speedup",
            "ideal",
            "gap (ideal/measured)",
            "off-chip B/step",
        ],
        rows,
    )
    return (
        "## Fig. 1b — sparsity vs actual speedup gap\n\n"
        "**Paper:** 16x parameter reduction yields only ~5x measured speedup\n"
        "on a 256 KiB-L2 NPU — cache misses erode the sparsity gain.\n\n"
        "**Measured** (DS TopK sweep, streaming-prefetch baseline):"
        f"\n\n```\n{body}\n```\n\n"
        "**Shape:** speedup stays at or below ideal and the absolute gap\n"
        "widens with sparsity. Our gap is smaller than the paper's because\n"
        "the simulated in-order NPU retains intra-vector MLP through its\n"
        "64-entry MSHR file, which makes the dense baseline bandwidth-bound\n"
        "(see `repro.sim.memory.mshr`); the motivating observation — misses, not\n"
        "parameter count, limit sparse speedup — is carried by Fig. 5.\n"
    )


def _fig5(scale: float, seed: int, session=None) -> str:
    res = fig5_latency_breakdown(scale=scale, seed=seed, session=session)
    sections = []
    for panel, data in res.panels.items():
        rows = []
        for workload in WORKLOAD_ORDER:
            per = data[workload]
            rows.append(
                [workload]
                + [
                    f"{per[m].base:.2f}+{per[m].stall:.2f}"
                    for m in ("inorder", "ooo", "stream", "imp", "dvr", "nvr")
                ]
            )
        table = format_table(
            ["workload", "InO", "OoO", "Stream", "IMP", "DVR", "NVR"],
            rows,
            title=f"[{panel}] normalised latency (base+stall, InO total = 1.00)",
        )
        speedups = [1.0 / max(data[w]["nvr"].total, 1e-9) for w in WORKLOAD_ORDER]
        sections.append(
            f"```\n{table}\n```\n"
            f"- NVR mean stall-time reduction vs InO: "
            f"**{res.stall_reduction(panel, 'nvr') * 100:.1f}%**"
            f" (paper: 98.3% INT8 / 99.2% FP16 / 97.3% INT32)\n"
            f"- NVR geomean speedup vs InO: "
            f"**{geometric_mean(speedups):.2f}x** (paper: ~4x average)\n"
        )
    return (
        "## Fig. 5 — normalised latency per workload\n\n"
        "**Paper:** cache-miss stalls dominate InO; OoO helps little;\n"
        "prefetchers help in the order stream < IMP < DVR < NVR; NVR removes\n"
        "97-99% of stall time; ST is the low-miss exception.\n\n"
        "**Measured:**\n\n" + "\n".join(sections)
    )


def _fig6(scale: float, seed: int, session=None) -> str:
    res = fig6_accuracy_coverage(scale=scale, seed=seed, session=session)
    rows = []
    for workload in WORKLOAD_ORDER:
        per = res.data[workload]
        rows.append(
            [workload]
            + [round(per[m][0], 2) for m in ("stream", "imp", "dvr", "nvr")]
            + [round(per[m][1], 2) for m in ("stream", "imp", "dvr", "nvr")]
        )
    table = format_table(
        [
            "workload",
            "acc:stream",
            "acc:imp",
            "acc:dvr",
            "acc:nvr",
            "cov:stream",
            "cov:imp",
            "cov:dvr",
            "cov:nvr",
        ],
        rows,
    )
    return (
        "## Fig. 6a/6b — prefetcher accuracy and coverage\n\n"
        "**Paper:** NVR holds both metrics above ~90% on most workloads;\n"
        "coverage is the harder metric; IMP/DVR collapse on the hash-table\n"
        "workloads (MK/SCN).\n\n"
        f"**Measured:**\n\n```\n{table}\n```\n\n"
        f"- NVR means: accuracy **{res.mean_accuracy('nvr'):.2f}**, coverage "
        f"**{res.mean_coverage('nvr'):.2f}** (paper: >0.90 both)\n"
        f"- Capability gap on MK: IMP coverage "
        f"{res.data['mk']['imp'][1]:.2f}, DVR {res.data['mk']['dvr'][1]:.2f}, "
        f"NVR {res.data['mk']['nvr'][1]:.2f} — only the sparse unit can\n"
        "  evaluate the hash `sparse_func`.\n"
    )


def _fig6c(scale: float, seed: int, session=None) -> str:
    res = fig6c_data_movement(scale=scale, seed=seed, session=session)
    rows = [
        [
            name,
            res.offchip_demand[name],
            res.in_chip[name],
            f"{res.reduction(name):.1f}x",
        ]
        for name in ("inorder", "nvr", "nvr+nsb")
    ]
    table = format_table(
        ["config", "off-chip demand B", "in-chip B", "reduction vs InO"],
        rows,
    )
    return (
        "## Fig. 6c — data movement during actual load execution\n\n"
        "**Paper:** NVR cuts off-chip accesses during demand execution ~30x;\n"
        "the NSB adds a further ~5x.\n\n"
        f"**Measured (DS):**\n\n```\n{table}\n```\n\n"
        "**Deviation:** our NSB's extra demand-path reduction is small at\n"
        "the default geometry because the L2 already retains the (fully\n"
        "covered) speculative window; the NSB's benefit appears as in-chip\n"
        "latency (hits at 2 vs 18 cycles) and in the Fig. 9 area-normalised\n"
        "comparison instead.\n"
    )


def _fig7(scale: float, seed: int, session=None) -> str:
    res = fig7_bandwidth_allocation(scale=scale, seed=seed, session=session)
    shares = ("npu_demand", "nvr_prefetch", "l2_to_npu", "nsb_to_npu")
    rows = [
        ["explicit preload (baseline)", 100.0, "-", "-", "-"],
        ["nvr"] + [round(res.without_nsb[k], 1) for k in shares],
        ["nvr+nsb"] + [round(res.with_nsb[k], 1) for k in shares],
    ]
    table = format_table(
        ["config", "off-chip demand", "off-chip prefetch", "L2->NPU", "NSB->NPU"],
        rows,
        title="traffic, % of the explicit-preload baseline's off-chip volume",
    )
    return (
        "## Fig. 7 — normalised bandwidth allocation\n\n"
        "**Paper:** off-chip bandwidth drops ~75% vs the baseline in both\n"
        "configurations; prefetch traffic replaces demand traffic.\n\n"
        f"**Measured (DS):**\n\n```\n{table}\n```\n\n"
        f"- Off-chip reduction: **{res.offchip_reduction(False) * 100:.0f}%** "
        f"without NSB, **{res.offchip_reduction(True) * 100:.0f}%** with "
        "(paper: ~75%). The baseline is the coarse-granule explicit-preload\n"
        "traffic model (`MemorySystem.bulk_transfer`); our line-granular\n"
        "NVR fetches beat it by more than the paper's RTL measurement.\n"
    )


def _fig8(scale: float, seed: int, session=None) -> str:
    rates = fig8a_layer_miss(scale=scale, seed=seed, session=session)
    rows = [
        [
            layer,
            f"{per['inorder'][0]:.4f}",
            f"{per['inorder'][1]:.4f}",
            f"{per['nvr'][0]:.4f}",
            f"{per['nvr'][1]:.4f}",
        ]
        for layer, per in rates.items()
    ]
    table_a = format_table(
        ["layer", "InO batch", "InO element", "NVR batch", "NVR element"],
        rows,
        title="miss rates per attention layer",
    )
    res = fig8bc_llm_throughput(calib_scale=scale, seed=seed, session=session)
    prefill = format_series(
        "GB/s", res.bandwidths,
        {f"base l={l}": res.prefill["inorder"][l] for l in res.prefill["inorder"]} | {
            f"nvr l={l}": res.prefill["nvr"][l] for l in res.prefill["nvr"]
        },
        floatfmt=".0f",
    )
    decode = format_series(
        "GB/s", res.bandwidths,
        {f"base l={l}": res.decode["inorder"][l] for l in res.decode["inorder"]} | {
            f"nvr l={l}": res.decode["nvr"][l] for l in res.decode["nvr"]
        },
        floatfmt=".1f",
    )
    gains = ", ".join(
        f"l={l}: +{res.decode_gain(l) * 100:.0f}%" for l in (512, 1024, 2048)
    )
    return (
        "## Fig. 8 — system-level LLM evaluation\n\n"
        "**Paper (8a):** under NVR both overall and per-batch miss rates\n"
        "drop by orders of magnitude (log-scale plot), the per-batch rate\n"
        "decaying slower.\n\n"
        f"**Measured (8a):**\n\n```\n{table_a}\n```\n\n"
        "**Paper (8b/8c):** prefill is compute-bound — NVR reaches peak\n"
        "throughput at lower bandwidth; decode is IO-bound — NVR delivers\n"
        "~50% average throughput gain, growing with sequence length.\n\n"
        f"**Measured (8b, prefill tokens/s):**\n\n```\n{prefill}\n```\n\n"
        f"**Measured (8c, decode tokens/s/seq):**\n\n```\n{decode}\n```\n\n"
        f"- Decode gains: {gains} (paper: ~50% average, growing with l)\n"
    )


def _fig9(scale: float, seed: int, session=None) -> str:
    res = fig9_nsb_sensitivity(scale=scale, seed=seed, session=session)
    grid = format_grid(
        [f"NSB {n}" for n in res.nsb_sizes],
        [f"L2 {l}" for l in res.l2_sizes],
        res.perf,
        title="perf = 1/(latency x area), arbitrary units (higher is better)",
    )
    return (
        "## Fig. 9 — NSB and L2 cache sensitivity\n\n"
        "**Paper:** modest NSB growth beats equal-area L2 scaling ~5x\n"
        "(256 KiB L2: NSB 4->16 KiB vs L2 256->1024 KiB).\n\n"
        f"**Measured (DS):**\n\n```\n{grid}\n```\n\n"
        f"- NSB-vs-L2 benefit ratio: **{res.nsb_vs_l2_benefit():.1f}x** "
        "(paper: ~5x)\n\n"
        "**Deviation:** the paper's grid also shows large *absolute* latency\n"
        "gains from NSB growth at small L2 (their speculative window lives\n"
        "in the NSB). In our both-fill hierarchy (prefetches land in L2 and\n"
        "NSB, per the paper's Q&A3 \"prefetching data into the L1/L2 cache\n"
        "hierarchy\") latency saturates once the window is L2-resident, so\n"
        "the benefit ratio is carried by the area normalisation.\n"
    )


def _table1() -> str:
    report = table1_overhead()
    rows = [
        [name, entries, bits, paper, "yes" if match else "no (see note)"]
        for name, entries, bits, paper, match in report.rows()
    ]
    table = format_table(
        ["structure", "entries", "computed bits", "paper bits", "match"],
        rows,
    )
    return (
        "## Table I — NVR hardware overhead\n\n"
        "**Paper:** 9.72 KiB of detector storage (+16 KiB optional NSB);\n"
        "3% / 4.6% area vs baseline Gemmini (TSMC 28 nm).\n\n"
        f"**Measured (field-by-field bit accounting):**\n\n```\n{table}\n```\n\n"
        f"- Itemised detector storage: **{report.total_bits} bits "
        f"({report.total_kib:.2f} KiB)**.\n"
        "- Notes: the scanned table's SCD sum (2464) omits its own 48-bit\n"
        "  PC field (fields total 2512); the LBD quote \"32x1027\" is a typo\n"
        "  for 32x107=3424, which our fields match exactly. The paper's\n"
        "  9.72 KiB headline includes unlisted queue/VRF storage beyond the\n"
        "  itemised fields.\n"
        f"- Storage-ratio area model vs 320 KiB baseline SRAM: "
        f"**{report.area_fraction(False) * 100:.2f}%** without NSB, "
        f"**{report.area_fraction(True) * 100:.2f}%** with "
        "(paper: 3% / 4.6% of full-chip area incl. logic).\n"
    )


def _table2(scale: float, seed: int, session=None) -> str:
    rows = [
        [
            r.short,
            r.full_name,
            r.domain,
            r.gather_elements,
            round(r.footprint_kib),
            round(r.reuse_factor, 1),
        ]
        for r in table2_workloads(scale=scale, seed=seed, session=session)
    ]
    table = format_table(
        ["short", "workload", "domain", "gathers", "footprint KiB", "reuse"],
        rows,
    )
    return (
        "## Table II — sparse computation workloads\n\n"
        "**Paper:** eight workloads spanning LLMs, GNNs, sparse attention,\n"
        "point clouds and MoE.\n\n"
        "**Measured (synthetic trace generators, `repro.workloads`):**\n\n"
        f"```\n{table}\n```\n"
    )


def generate_report(
    scale: float = 0.6,
    seed: int = 0,
    session: Session | None = None,
) -> str:
    """Produce the full EXPERIMENTS.md text.

    All figures share ``session`` (defaulting to the process-wide
    :func:`~repro.session.default_session`). The session's cache means
    points duplicated across figures simulate once and a warm cache
    regenerates the whole report without simulating at all.
    """
    start = time.time()
    session = session or default_session()
    sections = [
        _fig1b(scale, seed, session),
        _fig5(scale, seed, session),
        _fig6(scale, seed, session),
        _fig6c(scale, seed, session),
        _fig7(scale, seed, session),
        _fig8(min(scale, FIG8_SCALE_CAP), seed, session),
        _fig9(min(scale, FIG9_SCALE_CAP), seed, session),
        _table1(),
        _table2(scale, seed, session),
    ]
    header = _header(scale, seed, time.time() - start, session)
    return header + "\n" + "\n".join(sections)


def figures_plan(scale: float = 0.6, seed: int = 0) -> Plan:
    """Every runner point a full :func:`generate_report` pass submits.

    Built from the same per-figure plan builders the figure runners use
    (same scale caps included), so executing this plan — locally, or
    through queue workers — warms a cache from which a subsequent
    ``repro figures`` run is served without simulating anything. The
    ``queue-smoke`` CI job pins exactly that.
    """
    fig8_scale = min(scale, FIG8_SCALE_CAP)
    specs = [
        *fig1b_plan(scale=scale, seed=seed),
        *fig5_plan(scale=scale, seed=seed),
        *fig6_plan(scale=scale, seed=seed),
        *fig6c_plan(scale=scale, seed=seed),
        *fig7_plan(scale=scale, seed=seed),
        *layer_miss_plan(("inorder", "nvr"), scale=fig8_scale, seed=seed),
        *calibration_plan("inorder", scale=fig8_scale, seed=seed),
        *calibration_plan("nvr", scale=fig8_scale, seed=seed),
        *fig9_plan(scale=min(scale, FIG9_SCALE_CAP), seed=seed),
        *table2_plan(scale=scale, seed=seed),
    ]
    return Plan(specs=specs, meta={"source": "figures", "scale": scale, "seed": seed})
