"""Analysis layer: metrics, per-figure experiment runners, text reports.

* :mod:`repro.analysis.metrics` — every derived metric (normalised
  latency, miss reduction, coverage summaries, bandwidth shares) in one
  place so definitions cannot drift between figures.
* :mod:`repro.analysis.experiments` — one runner per paper table/figure
  (:mod:`repro.analysis.paperfigs` renders them all into the report).
* :mod:`repro.analysis.report` — ascii rendering for examples/benches.
"""

from .experiments import (
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
from .metrics import (
    bandwidth_shares,
    geomean_speedup,
    miss_reduction,
    normalised_latency,
    stall_fraction,
)
from .report import format_grid, format_series, format_table
from .traces import (
    gather_line_trace,
    miss_rate_curve,
    profile_trace,
    reuse_distances,
)

__all__ = [
    "bandwidth_shares",
    "fig1b_sparsity_gap",
    "fig5_latency_breakdown",
    "fig6_accuracy_coverage",
    "fig6c_data_movement",
    "fig7_bandwidth_allocation",
    "fig8a_layer_miss",
    "fig8bc_llm_throughput",
    "fig9_nsb_sensitivity",
    "format_grid",
    "format_series",
    "format_table",
    "gather_line_trace",
    "geomean_speedup",
    "miss_rate_curve",
    "miss_reduction",
    "normalised_latency",
    "profile_trace",
    "reuse_distances",
    "stall_fraction",
    "table1_overhead",
    "table2_workloads",
]
