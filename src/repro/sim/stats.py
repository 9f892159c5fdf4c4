"""Statistics collected during a simulation run.

One :class:`RunStats` instance is owned by the :class:`~repro.sim.soc.System`
and threaded through the memory hierarchy and executor. It is intentionally
a plain mutable record: accuracy and coverage are derived here, and each
paper figure's reduction (:mod:`repro.analysis.experiments`) derives
its other metrics from these raw counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class LevelStats:
    """Per-cache-level raw demand counters.

    Prefetch-side effectiveness lives in :class:`PrefetchStats`; per-level
    we only need the demand outcome split.
    """

    demand_accesses: int = 0
    demand_hits: int = 0
    demand_inflight_hits: int = 0
    demand_misses: int = 0

    @property
    def demand_miss_rate(self) -> float:
        """Demand misses (in-flight coalesces count as misses avoided)."""
        if self.demand_accesses == 0:
            return 0.0
        return self.demand_misses / self.demand_accesses


@dataclass
class PrefetchStats:
    """Raw prefetcher effectiveness counters.

    ``useful`` counts prefetched lines that a demand access later touched
    while still resident (or in flight); ``late`` counts demand accesses
    that coalesced onto an in-flight prefetch — partially useful because
    they shorten but do not hide the miss.
    """

    issued: int = 0
    issued_lines_off_chip: int = 0
    useful: int = 0
    late: int = 0
    evicted_unused: int = 0

    @property
    def accuracy(self) -> float:
        """Useful prefetches / issued prefetches (late counts as useful)."""
        if self.issued == 0:
            return 0.0
        return min(1.0, (self.useful + self.late) / self.issued)


@dataclass
class TrafficStats:
    """Byte-level traffic accounting for the bandwidth figures (Fig. 6c/7)."""

    off_chip_demand_bytes: int = 0
    off_chip_prefetch_bytes: int = 0
    l2_to_npu_bytes: int = 0
    nsb_to_npu_bytes: int = 0
    scratchpad_bytes: int = 0
    store_bytes: int = 0

    @property
    def off_chip_total_bytes(self) -> int:
        return self.off_chip_demand_bytes + self.off_chip_prefetch_bytes


@dataclass
class BatchStats:
    """Vector-batch-granularity miss statistics (Fig. 8a).

    A *batch* is one vector load micro-op: it "misses" when any element
    line misses, reflecting the NPU's all-or-nothing stall semantics.
    """

    batches: int = 0
    batch_misses: int = 0
    elements: int = 0
    element_misses: int = 0

    @property
    def batch_miss_rate(self) -> float:
        return self.batch_misses / self.batches if self.batches else 0.0

    @property
    def element_miss_rate(self) -> float:
        return self.element_misses / self.elements if self.elements else 0.0


@dataclass
class RunStats:
    """All raw counters for one simulation run."""

    nsb: LevelStats = field(default_factory=LevelStats)
    l2: LevelStats = field(default_factory=LevelStats)
    prefetch: PrefetchStats = field(default_factory=PrefetchStats)
    traffic: TrafficStats = field(default_factory=TrafficStats)
    batch: BatchStats = field(default_factory=BatchStats)

    total_cycles: int = 0
    compute_cycles: int = 0
    stall_cycles: int = 0

    dram_busy_cycles: int = 0
    runahead_invocations: int = 0
    runahead_denied_busy: int = 0

    @property
    def base_cycles(self) -> int:
        """Cycles the run would take with a perfect (all-hit) cache."""
        return self.total_cycles - self.stall_cycles

    def coverage(self) -> float:
        """Fraction of would-be demand misses eliminated by prefetching.

        Standard definition: prefetch-served demand accesses over
        prefetch-served plus remaining demand misses. A *late* prefetch —
        the demand access coalesces onto the still-in-flight fill — does
        not count as covered: the batch still stalled, which is what the
        paper's coverage-oriented philosophy cares about ("computation can
        proceed only when all data in the batch are ready").
        """
        served = self.prefetch.useful
        remaining = self.prefetch.late + self.l2.demand_misses
        denom = served + remaining
        return served / denom if denom else 0.0
