"""Composed memory hierarchy: optional NSB, shared L2, DRAM channel.

All accuracy/coverage/traffic accounting funnels through this module so the
metric definitions are enforced in one place:

* a prefetch is **useful** when a demand access first touches the
  prefetched line while it is resident and ready;
* it is **late** when the demand access coalesces onto the still-in-flight
  prefetch (the miss is shortened, not hidden);
* every DRAM transfer is charged to demand or prefetch byte traffic.

Demand routing follows the paper's split: *irregular* (sparse, discrete)
accesses probe the NSB first when one is configured; continuous streams
bypass it (they live in the scratchpad pipeline and the L2).

The simulator reaches the hierarchy through compiled kernels
(``_kernels.c``): :meth:`MemorySystem.demand_lines` for a request
vector and :meth:`MemorySystem.demand_line` for one line both run one
per-line demand body, and :meth:`MemorySystem.prefetch_lines` runs every
prefetch burst. :meth:`MemorySystem.demand_access` and
:meth:`MemorySystem.prefetch_line` are the only walks in Python: the
readable references the tests hold the kernels to.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from ...errors import ConfigError
from ..request import Access, AccessResult, AccessType, HitLevel
from ..stats import RunStats
from ._build import load_extension
from .cache import Cache, CacheConfig, LookupKind
from .dram import DRAM, DRAMConfig

#: The compiled demand and prefetch kernels (``_kernels.c``), built on the
#: first import (see :mod:`._build`) so the build precedes any run.
_kernels = load_extension(
    f"{__package__}._kernels", Path(__file__).with_name("_kernels.c")
)


def default_l2_config() -> CacheConfig:
    """The paper's baseline shared L2: 256 KiB, 8-way.

    The MSHR file must sustain ``bandwidth x latency`` worth of
    outstanding lines (64 entries here), otherwise the MSHR count — not
    the DRAM bus — caps memory-level parallelism; the paper leans on
    exactly this ("the efficiency also depends on the MSHR", Sec. IV-F).
    """
    return CacheConfig(
        size_bytes=256 * 1024,
        assoc=8,
        line_bytes=64,
        hit_latency=18,
        mshr_entries=64,
        name="l2",
    )


def default_nsb_config() -> CacheConfig:
    """The paper's NSB: 16 KiB, high associativity, in-NPU latency."""
    return CacheConfig(
        size_bytes=16 * 1024,
        assoc=16,
        line_bytes=64,
        hit_latency=2,
        mshr_entries=64,
        name="nsb",
    )


@dataclass
class CPUTrafficConfig:
    """Background CPU traffic on the shared L2.

    The paper's platform is "an in-order core and DNN accelerator sharing
    a unified L2 cache": the core's own misses pollute the L2 and consume
    DRAM bandwidth. Modelled as a deterministic pseudo-random access
    stream over a private working set, injected at a fixed rate.
    """

    lines_per_kcycle: int = 20
    footprint_bytes: int = 2 * 1024 * 1024
    base_addr: int = 0x9000_0000

    def __post_init__(self) -> None:
        if self.lines_per_kcycle < 1:
            raise ConfigError("cpu traffic rate must be >= 1 line/kcycle")
        if self.footprint_bytes < 64:
            raise ConfigError("cpu footprint must be at least one line")


@dataclass
class MemoryConfig:
    """Full hierarchy configuration."""

    l2: CacheConfig = field(default_factory=default_l2_config)
    dram: DRAMConfig = field(default_factory=DRAMConfig)
    nsb: CacheConfig | None = None
    cpu_traffic: CPUTrafficConfig | None = None

    def __post_init__(self) -> None:
        if self.nsb is not None and self.nsb.line_bytes != self.l2.line_bytes:
            raise ConfigError(
                "NSB and L2 must share a line size, got "
                f"{self.nsb.line_bytes} vs {self.l2.line_bytes}"
            )

    @property
    def line_bytes(self) -> int:
        return self.l2.line_bytes

    def with_nsb(self, enabled: bool = True) -> "MemoryConfig":
        """Copy of this config with the NSB toggled."""
        return MemoryConfig(
            l2=self.l2,
            dram=self.dram,
            nsb=default_nsb_config() if enabled else None,
            cpu_traffic=self.cpu_traffic,
        )

    def with_cpu_traffic(
        self, config: CPUTrafficConfig | None = None
    ) -> "MemoryConfig":
        """Copy of this config with shared-L2 CPU traffic enabled."""
        return MemoryConfig(
            l2=self.l2,
            dram=self.dram,
            nsb=self.nsb,
            cpu_traffic=config or CPUTrafficConfig(),
        )

    def to_dict(self) -> dict:
        """Canonical plain-scalar dict (see :mod:`repro.spec.serde`)."""
        from ...spec import serde

        return serde.memory_config_to_dict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "MemoryConfig":
        from ...spec import serde

        return serde.memory_config_from_dict(d)


class MemorySystem:
    """The NPU-visible memory system.

    Args:
        config: hierarchy geometry and timing.
        stats: shared run-statistics record, mutated in place.
    """

    #: Distinguishes the real hierarchy from :class:`~repro.sim.soc.
    #: PerfectMemory` without an import cycle (engine fast paths key on it).
    perfect = False

    def __init__(self, config: MemoryConfig, stats: RunStats) -> None:
        self.config = config
        self.stats = stats
        self.l2 = Cache(config.l2)
        self.nsb = Cache(config.nsb) if config.nsb is not None else None
        self.dram = DRAM(config.dram)
        self._pf_pending: set[int] = set()
        # Shared-L2 CPU traffic state (deterministic LCG address stream).
        self._cpu_last_inject = 0
        self._cpu_lcg = 0x2545F491
        self.cpu_accesses = 0
        self.cpu_misses = 0
        # Bindings for the reference walks and the reporting helpers.
        self._line_bytes = config.line_bytes
        self._l2_lat = config.l2.hit_latency
        self._nsb_lat = config.nsb.hit_latency if config.nsb is not None else None
        self._stats_nsb = stats.nsb
        self._stats_l2 = stats.l2
        self._stats_pf = stats.prefetch
        self._traffic = stats.traffic
        # The CPU-traffic callback every demand walk calls before each
        # line, or None without CPU traffic.
        self._inject = (
            self._inject_cpu_traffic if config.cpu_traffic is not None else None
        )
        # The compiled kernels' context: built once, it holds the
        # exports of the caches', MSHR file's and DRAM bus's buffers,
        # the constants and the block the kernels count in until
        # finalize() (see _kernel_state).
        self._kernel_ctx = _kernels.check_context(self._kernel_state())

    def _kernel_state(self) -> tuple:
        """What :func:`_kernels.check_context` builds the context from.

        The hot state of the caches (:meth:`Cache.hot_state`), the MSHR
        file (:meth:`MSHRFile.hot_state`) and the DRAM bus
        (:meth:`DRAM.hot_state`), the pending-prefetch set, the timing
        constants, and the objects the counters fold into, in the layout
        ``_kernels.c`` reads. All line fills transfer exactly one line,
        so the DRAM bus service time is a constant, and a line fill is
        ready a constant fill latency after its bus slot starts (DRAM
        latency, the line's bus service, the L2 hit), which is why fills
        complete in the order they are allocated (see MSHRFile).
        """
        config = self.config
        line_service = self.dram.service_cycles(config.line_bytes)
        return (
            self.l2.hot_state(),
            self.nsb.hot_state() if self.nsb is not None else None,
            self.l2.mshr.hot_state(),
            self.dram.hot_state(),
            self._pf_pending,
            (
                self._line_bytes,
                self._l2_lat,
                self._nsb_lat or 0,
                line_service,
                config.dram.latency + line_service + self._l2_lat,
                config.dram.prefetch_penalty,
            ),
            self.l2,
            self.nsb,
            self.l2.mshr,
            self.dram,
            self._stats_nsb,
            self._stats_l2,
            self._stats_pf,
            self._traffic,
        )

    # -- background CPU traffic ----------------------------------------------
    _MAX_INJECT_PER_CALL = 64

    def _inject_cpu_traffic(self, now: int) -> None:
        """Advance the CPU's background access stream up to ``now``.

        The core touches its own working set through the shared L2,
        evicting NPU lines and occupying DRAM bandwidth — invisible to
        the NPU except through the contention it causes.
        """
        cfg = self.config.cpu_traffic
        if cfg is None or now <= self._cpu_last_inject:
            return
        due = (now - self._cpu_last_inject) * cfg.lines_per_kcycle // 1000
        due = min(due, self._MAX_INJECT_PER_CALL)
        if due <= 0:
            return
        self._cpu_last_inject = now
        n_lines = cfg.footprint_bytes // self.line_bytes
        for _ in range(due):
            self._cpu_lcg = (
                self._cpu_lcg * 6364136223846793005 + 1442695040888963407
            ) % (1 << 64)
            line = cfg.base_addr + (self._cpu_lcg % n_lines) * self.line_bytes
            self.cpu_accesses += 1
            kind, _ = self.l2.lookup(now, line)
            if kind == LookupKind.MISS:
                mshr = self.l2.mshr
                # A line evicted while in flight coalesces onto its fill.
                ready = mshr.lookup(now, line)
                if ready is None:
                    self.cpu_misses += 1
                    start = max(now, mshr.earliest_free_slot(now))
                    done = self.dram.access(start, self.line_bytes)
                    ready = done + self.l2.config.hit_latency
                    mshr.allocate(start, line, ready)
                self.l2.allocate(now, line, ready, by_prefetch=False)

    # -- helpers -----------------------------------------------------------
    @property
    def line_bytes(self) -> int:
        return self._line_bytes

    def hit_latency(self, irregular: bool) -> int:
        """Best-case (all-hit) latency for one demand access.

        Used by the executor to split total time into base + stall
        (the two bar segments of Fig. 5).
        """
        if self.nsb is not None and irregular:
            return self.nsb.config.hit_latency
        return self.l2.config.hit_latency

    # -- demand path ---------------------------------------------------------
    def demand_access(self, now: int, access: Access, irregular: bool) -> AccessResult:
        """Send one demand line request through NSB (optional) then L2/DRAM.

        The readable reference for the demand path: it composes the
        :class:`Cache`, :class:`MSHRFile` and :class:`DRAM` methods and
        reports the outcome as an :class:`AccessResult`. It is the only
        demand walk in Python: the simulator's two entries,
        :meth:`demand_line` and :meth:`demand_lines`, run one compiled
        body of the same steps, and the property tests hold both to this
        one.

        A line the L2 evicted while its fill was still in flight
        coalesces onto that fill (:meth:`MSHRFile.lookup`): it counts as
        an in-flight hit, starts no DRAM transfer, and is re-inserted
        with the fill's ready cycle.
        """
        assert access.access_type is AccessType.DEMAND
        if self._inject is not None:
            self._inject(now)
        line = access.line_addr
        line_bytes = self._line_bytes
        pending = self._pf_pending
        use_nsb = irregular and self.nsb is not None

        if use_nsb:
            nsb_stats = self._stats_nsb
            nsb_stats.demand_accesses += 1
            ready = self.nsb.touch(line)
            if ready is not None:
                if ready <= now:
                    nsb_stats.demand_hits += 1
                    self._traffic.nsb_to_npu_bytes += line_bytes
                    if line in pending:
                        pending.discard(line)
                        self._stats_pf.useful += 1
                        was_pf = True
                    else:
                        was_pf = False
                    return AccessResult(now + self._nsb_lat, HitLevel.NSB, was_pf)
                nsb_stats.demand_inflight_hits += 1
                if line in pending:
                    pending.discard(line)
                    self._stats_pf.late += 1
                    was_pf = True
                else:
                    was_pf = False
                complete = max(ready, now + self._nsb_lat)
                return AccessResult(complete, HitLevel.INFLIGHT, was_pf)
            nsb_stats.demand_misses += 1

        l2_stats = self._stats_l2
        l2_stats.demand_accesses += 1
        mshr = self.l2.mshr
        ready = self.l2.touch(line)
        if ready is None:
            ready = mshr.lookup(now, line)
            if ready is not None:
                self.l2.allocate(now, line, ready, by_prefetch=False)
        if ready is not None:
            if ready <= now:
                l2_stats.demand_hits += 1
                self._traffic.l2_to_npu_bytes += line_bytes
                complete = now + self._l2_lat
                if line in pending:
                    pending.discard(line)
                    self._stats_pf.useful += 1
                    was_pf = True
                else:
                    was_pf = False
                if use_nsb:
                    self.nsb.allocate(now, line, complete, by_prefetch=False)
                return AccessResult(complete, HitLevel.L2, was_pf)
            l2_stats.demand_inflight_hits += 1
            if line in pending:
                pending.discard(line)
                self._stats_pf.late += 1
                was_pf = True
            else:
                was_pf = False
            complete = max(ready, now + self._l2_lat)
            self._traffic.l2_to_npu_bytes += line_bytes
            if use_nsb:
                self.nsb.allocate(now, line, complete, by_prefetch=False)
            return AccessResult(complete, HitLevel.INFLIGHT, was_pf)

        # True L2 miss: fetch from DRAM through an MSHR slot.
        l2_stats.demand_misses += 1
        pending.discard(line)
        start = mshr.earliest_free_slot(now)
        if now > start:
            start = now
        dram_done = self.dram.access(start, line_bytes, is_prefetch=False)
        ready = dram_done + self._l2_lat
        mshr.allocate(start, line, ready)
        self.l2.allocate(now, line, ready, by_prefetch=False)
        traffic = self._traffic
        traffic.off_chip_demand_bytes += line_bytes
        traffic.l2_to_npu_bytes += line_bytes
        if use_nsb:
            self.nsb.allocate(now, line, ready, by_prefetch=False)
        return AccessResult(ready, HitLevel.DRAM, False, True)

    def demand_line(self, now: int, line: int, irregular: bool) -> int:
        """The per-line demand walk: one line, addressed by line.

        Bit-exact with :meth:`demand_access` and without a result object:
        one call into the compiled body that :meth:`demand_lines` runs for
        each line of a request vector (``_kernels.c``), which calls
        :meth:`_inject_cpu_traffic` first when CPU traffic is configured.
        Stream/IMP/DVR runs take it once per demand line, so their
        prefetcher sees each line's outcome before the next line issues.
        Its counters, like the vector kernel's, land at :meth:`finalize`.

        Returns the line's completion cycle, stored as ``~cycle``
        (negative) when the line went off-chip — the sign idiom
        :class:`Cache` uses for untouched prefetch fills.
        """
        return _kernels.demand_line(
            self._kernel_ctx, now, line, irregular, self._inject
        )

    # -- batched demand path -------------------------------------------------
    def demand_lines(
        self,
        now: int,
        issue_width: int,
        lines: list[int],
        irregular: bool,
        counts: list[int] | None = None,
    ) -> tuple[int, bytearray]:
        """Issue a whole request vector through the demand path at once.

        Without ``counts``, bit-exact with calling ``demand_line(now + k
        // issue_width, lines[k], irregular)`` for each line in order. With
        ``counts`` the vector is given as spans: element ``e`` covers the
        ``counts[e]`` consecutive lines from ``lines[e]`` (a gather's
        segments), walked in the same flattened order. Either way it is
        the same live-state walk over the same caches, so every same-batch
        interaction — same-set evictions, MSHR coalesces — is resolved by
        construction rather than by a conflict analysis. What the batch
        form removes is the per-line call overhead: one call per
        *instruction* instead of per line. The walk runs compiled
        (``_kernels.c``) over the buffers of :meth:`Cache.hot_state`,
        :meth:`MSHRFile.hot_state` and :meth:`DRAM.hot_state`, calling
        :meth:`_inject_cpu_traffic` before each line when CPU traffic is
        configured. Its counters reach the stats, caches, MSHR file and
        DRAM at :meth:`finalize`.

        Returns ``(last_complete_cycle, dram_flags)``; ``dram_flags[e]``
        is 1 when any line of element ``e`` went off-chip (the executors
        fold these into the vector-batch miss statistics).
        """
        return _kernels.demand_lines(
            self._kernel_ctx,
            now,
            issue_width,
            lines,
            irregular,
            self._inject,
            counts,
        )

    # -- prefetch path -------------------------------------------------------
    def prefetch_line(self, now: int, line_addr: int, irregular: bool) -> int | None:
        """Bring one line toward the NPU speculatively.

        The readable reference for the prefetch path, as
        :meth:`demand_access` is for the demand path; the simulator runs
        :meth:`prefetch_lines`. Every off-chip speculative fill lands in
        the L2. With an NSB configured, an *irregular* fill lands in the
        NSB as well (both-fill), and an irregular request for a line the
        L2 already holds pulls it on-chip into the NSB without DRAM
        traffic. Regular-stream prefetches and NSB-less configurations
        fill the L2 only. A line the L2 evicted while its fill is still
        in flight counts as L2-resident, with the fill's ready cycle.
        Requests already satisfied at their target level are squashed for
        free, mirroring the tag-probe filter in hardware prefetch queues.

        Returns the fill-ready cycle when any fill was started (the request
        counts toward issued-prefetch statistics), else None.
        """
        target_nsb = irregular and self.nsb is not None
        if target_nsb and self.nsb.probe(line_addr) is not None:
            return None

        mshr = self.l2.mshr
        ready = self.l2.probe(line_addr)
        if ready is None:
            ready = mshr.lookup(now, line_addr)
        if ready is not None:
            if not target_nsb:
                return None
            # Pull from L2 into the NSB: on-chip transfer, no DRAM.
            t = now + self._l2_lat
            if t > ready:
                ready = t
            self.nsb.allocate(now, line_addr, ready, by_prefetch=True)
            self._stats_pf.issued += 1
            self._pf_pending.add(line_addr)
            return ready

        line_bytes = self._line_bytes
        start = mshr.earliest_free_slot(now)
        if now > start:
            start = now
        dram_done = self.dram.access(start, line_bytes, is_prefetch=True)
        ready = dram_done + self._l2_lat
        mshr.allocate(start, line_addr, ready)
        self.l2.allocate(now, line_addr, ready, by_prefetch=True)
        if target_nsb:
            self.nsb.allocate(now, line_addr, ready, by_prefetch=True)
        pf_stats = self._stats_pf
        pf_stats.issued += 1
        pf_stats.issued_lines_off_chip += 1
        self._traffic.off_chip_prefetch_bytes += line_bytes
        self._pf_pending.add(line_addr)
        return ready

    # -- batched prefetch path -----------------------------------------------
    def prefetch_lines(
        self, now: int, lines, irregular: bool, max_issue: int
    ) -> tuple[list[int], int]:
        """Issue up to ``max_issue`` prefetches from ``lines``, in order.

        One burst of the prefetch port: bit-exact with sequential
        :meth:`prefetch_line` calls under the port's per-cycle budget.
        Already-resident lines are squashed without consuming budget, and
        once ``max_issue`` fills have started the remaining lines are not
        probed at all (the port counts them as dropped — exactly what
        per-line budget checks would have done). ``lines`` is any int
        sequence (VMIG passes a ``range``). The walk runs compiled
        (``_kernels.c``), like :meth:`demand_lines`, and its counters
        likewise land at :meth:`finalize`.

        Returns ``(ready cycles of the issued lines, lines processed)``.
        """
        return _kernels.prefetch_lines(
            self._kernel_ctx, now, lines, irregular, max_issue
        )

    # -- bulk DMA path (explicit preload) ----------------------------------------
    def bulk_transfer(self, now: int, n_bytes: int) -> int:
        """One coarse DMA burst DRAM -> scratchpad; returns completion.

        Explicit preload (Gemmini ``mvin``) moves whole regions: a single
        request latency, then the bus streams the burst. Bypasses the
        caches (scratchpad is the destination); charged to demand traffic.
        """
        self._inject_cpu_traffic(now)
        done = self.dram.access(now, n_bytes, is_prefetch=False)
        self.stats.traffic.off_chip_demand_bytes += n_bytes
        self.stats.traffic.scratchpad_bytes += n_bytes
        return done

    # -- reporting helpers -----------------------------------------------------
    def finalize(self, total_cycles: int) -> None:
        """Fold the run's counters into the shared stats record.

        The compiled kernels count in a block of C integers (see
        ``_kernels.c``); until this call, the stats record and the
        caches', MSHR file's and DRAM's counters hold only the Python
        walks' work. The engines call it once, at the end of a run; it
        zeroes the block, so a second call adds nothing.
        """
        _kernels.fold_counters(self._kernel_ctx)
        self.stats.dram_busy_cycles = self.dram.busy_cycles
        self.stats.prefetch.evicted_unused = self.l2.prefetch_evicted_unused + (
            self.nsb.prefetch_evicted_unused if self.nsb else 0
        )
        self.stats.total_cycles = max(self.stats.total_cycles, total_cycles)
