"""Byte-level traffic shares of one run, the split Figs. 6c and 7 plot.

Accuracy and coverage are :class:`~repro.sim.stats.RunStats`'s own
methods; every other figure metric is computed by that figure's
reduction in :mod:`repro.analysis.experiments`.
"""

from __future__ import annotations

from ..sim.stats import RunStats


def bandwidth_shares(stats: RunStats) -> dict[str, int]:
    """Byte-level traffic decomposition (Figs. 6c and 7)."""
    return {
        "off_chip_demand": stats.traffic.off_chip_demand_bytes,
        "off_chip_prefetch": stats.traffic.off_chip_prefetch_bytes,
        "off_chip_total": stats.traffic.off_chip_total_bytes,
        "l2_to_npu": stats.traffic.l2_to_npu_bytes,
        "nsb_to_npu": stats.traffic.nsb_to_npu_bytes,
    }
