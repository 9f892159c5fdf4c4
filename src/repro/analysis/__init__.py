"""Analysis layer: the paper's figures and tables, ablations, text reports.

* :mod:`repro.analysis.paperfigs` — :data:`FIGURES`, the one table of
  paper figures and tables, and the report and figures plan read off it.
* :mod:`repro.analysis.experiments` — each figure's plan builder and
  reduction, and the :data:`ABLATIONS` sensitivity studies.
* :mod:`repro.analysis.metrics` — byte-level traffic shares.
* :mod:`repro.analysis.report` — ascii rendering for examples/benches.
* :mod:`repro.analysis.traces` — access-trace reuse distances and
  miss-rate curves.
"""

from .experiments import ABLATIONS, run_ablation
from .metrics import bandwidth_shares
from .paperfigs import FIGURES, figures_plan, generate_report
from .report import format_grid, format_series, format_table
from .traces import (
    gather_line_trace,
    miss_rate_curve,
    profile_trace,
    reuse_distances,
)

__all__ = [
    "ABLATIONS",
    "FIGURES",
    "bandwidth_shares",
    "figures_plan",
    "format_grid",
    "format_series",
    "format_table",
    "gather_line_trace",
    "generate_report",
    "miss_rate_curve",
    "profile_trace",
    "reuse_distances",
    "run_ablation",
]
