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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush

from ...errors import ConfigError
from ..request import Access, AccessResult, AccessType, HitLevel
from ..stats import RunStats
from .cache import Cache, CacheConfig, LookupKind
from .dram import DRAM, DRAMConfig


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
        # Hot-path bindings: the demand path runs once per line touched
        # (millions of calls per sweep), so the per-access attribute
        # chains (config/stat sub-objects, latencies) are resolved once.
        self._line_bytes = config.line_bytes
        self._l2_lat = config.l2.hit_latency
        self._nsb_lat = config.nsb.hit_latency if config.nsb is not None else None
        self._cpu_cfg = config.cpu_traffic
        self._stats_nsb = stats.nsb
        self._stats_l2 = stats.l2
        self._stats_pf = stats.prefetch
        self._traffic = stats.traffic
        self._l2_touch = self.l2.touch
        self._l2_probe = self.l2.probe
        self._l2_alloc = self.l2.allocate
        self._l2_mshr_free = self.l2.mshr.earliest_free_slot
        self._l2_mshr_alloc = self.l2.mshr.allocate
        self._dram_access = self.dram.access
        if self.nsb is not None:
            self._nsb_touch = self.nsb.touch
            self._nsb_probe = self.nsb.probe
            self._nsb_alloc = self.nsb.allocate
        else:
            self._nsb_touch = self._nsb_probe = self._nsb_alloc = None
        # Batch-kernel context: everything per-call-stable the batched
        # demand/prefetch kernels unpack, resolved once. The hot-state
        # tuples hold containers that are mutated in place and never
        # reassigned (see Cache.hot_state / MSHRFile.hot_state), and all
        # line fills transfer exactly one line, so the DRAM bus service
        # time is a constant.
        self._l2_hot = self.l2.hot_state()
        self._nsb_hot = self.nsb.hot_state() if self.nsb is not None else None
        self._l2_mshr_hot = self.l2.mshr.hot_state()
        self._dram_lat = config.dram.latency
        self._pf_penalty = config.dram.prefetch_penalty
        self._line_service = self.dram.service_cycles(config.line_bytes)

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
                self.cpu_misses += 1
                start = max(now, self.l2.mshr.earliest_free_slot(now))
                done = self.dram.access(start, self.line_bytes)
                ready = done + self.l2.config.hit_latency
                self.l2.mshr.allocate(start, line, ready)
                self.l2.allocate(now, line, ready, by_prefetch=False)

    # -- helpers -----------------------------------------------------------
    @property
    def line_bytes(self) -> int:
        return self._line_bytes

    def line_addr(self, byte_addr: int) -> int:
        """Align a byte address to a line address."""
        return self.l2.line_addr(byte_addr)

    def hit_latency(self, irregular: bool) -> int:
        """Best-case (all-hit) latency for one demand access.

        Used by the executor to split total time into base + stall
        (the two bar segments of Fig. 5).
        """
        if self.nsb is not None and irregular:
            return self.nsb.config.hit_latency
        return self.l2.config.hit_latency

    def is_resident(self, line_addr: int) -> bool:
        """True when the line is in any cache level (ready or in flight).

        Read-only; used by prefetchers to squash redundant requests.
        """
        if self.l2.probe(line_addr) is not None:
            return True
        return self.nsb is not None and self.nsb.probe(line_addr) is not None

    # -- demand path ---------------------------------------------------------
    def demand_access(self, now: int, access: Access, irregular: bool) -> AccessResult:
        """Send one demand line request through NSB (optional) then L2/DRAM."""
        assert access.access_type is AccessType.DEMAND
        return self.demand_line(now, access.line_addr, irregular)

    def demand_line(self, now: int, line: int, irregular: bool) -> AccessResult:
        """The demand path proper, addressed by line (executor fast path).

        Identical semantics to :meth:`demand_access` without the
        :class:`~repro.sim.request.Access` wrapper — the executors issue
        millions of line-granular demands per sweep, so they skip the
        per-line request object.
        """
        if self._cpu_cfg is not None:
            self._inject_cpu_traffic(now)
        line_bytes = self._line_bytes
        pending = self._pf_pending
        use_nsb = irregular and self._nsb_touch is not None

        if use_nsb:
            nsb_stats = self._stats_nsb
            nsb_stats.demand_accesses += 1
            ready = self._nsb_touch(line)
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
        ready = self._l2_touch(line)
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
                    self._nsb_alloc(now, line, complete, by_prefetch=False)
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
                self._nsb_alloc(now, line, complete, by_prefetch=False)
            return AccessResult(complete, HitLevel.INFLIGHT, was_pf)

        # True L2 miss: fetch from DRAM through an MSHR slot.
        l2_stats.demand_misses += 1
        pending.discard(line)
        start = self._l2_mshr_free(now)
        if now > start:
            start = now
        dram_done = self._dram_access(start, line_bytes, is_prefetch=False)
        ready = dram_done + self._l2_lat
        self._l2_mshr_alloc(start, line, ready)
        self._l2_alloc(now, line, ready, by_prefetch=False)
        traffic = self._traffic
        traffic.off_chip_demand_bytes += line_bytes
        traffic.l2_to_npu_bytes += line_bytes
        if use_nsb:
            self._nsb_alloc(now, line, ready, by_prefetch=False)
        return AccessResult(ready, HitLevel.DRAM, False, True)

    # -- batched demand path -------------------------------------------------
    def demand_lines(
        self,
        now: int,
        issue_width: int,
        lines: list[int],
        irregular: bool,
        sid: int = 0,
        hook=None,
        idxs: list | None = None,
    ) -> tuple[int, bytearray]:
        """Issue a whole request vector through the demand path at once.

        Bit-exact with calling ``demand_line(now + k // issue_width,
        lines[k], irregular)`` for each line in order (plus the per-line
        prefetcher ``hook`` when one is attached): the same live-state
        walk over the same caches, so every same-batch interaction —
        same-set evictions, MSHR coalesces, mid-batch prefetches issued
        by a hook — is resolved by construction rather than by a
        conflict analysis. What the batch form removes is the per-line
        interpreter overhead: one call per *instruction* instead of per
        line, set/tag math inlined against :meth:`Cache.hot_state`,
        statistics accumulated in locals and folded once, and
        :class:`AccessResult` objects built only when a prefetcher
        actually observes them.

        Returns ``(last_complete_cycle, dram_flags)``; ``dram_flags[k]``
        is 1 when line ``k`` went off-chip (the executors fold these
        into the vector-batch miss statistics).
        """
        n = len(lines)
        flags = bytearray(n)
        if n == 0:
            return now, flags
        inject = self._inject_cpu_traffic if self._cpu_cfg is not None else None
        line_bytes = self._line_bytes
        pending = self._pf_pending
        use_nsb = irregular and self._nsb_hot is not None
        l2 = self.l2
        l2_sets, l2_shift, l2_smask, l2_tshift, l2_assoc = self._l2_hot
        l2_lat = self._l2_lat
        mshr = l2.mshr
        mshr_heap, mshr_infl, mshr_cap = self._l2_mshr_hot
        dram = self.dram
        dram_lat = self._dram_lat
        service = self._line_service
        if use_nsb:
            nsb = self.nsb
            nsb_sets, nsb_shift, nsb_smask, nsb_tshift, nsb_assoc = self._nsb_hot
            nsb_lat = self._nsb_lat
        lvl_nsb = HitLevel.NSB
        lvl_l2 = HitLevel.L2
        lvl_inflight = HitLevel.INFLIGHT
        lvl_dram = HitLevel.DRAM
        result = AccessResult
        # Local counter accumulators, folded into the stats records once.
        nsb_acc = nsb_hit = nsb_infl = nsb_miss = 0
        l2_acc = l2_hit = l2_infl = l2_miss = 0
        pf_useful = pf_late = 0
        nsb_npu_bytes = l2_npu_bytes = 0
        l2_evt = l2_pfevt = nsb_evt = nsb_pfevt = 0
        done = now
        at = now
        slot = 0
        for k in range(n):
            line = lines[k]
            if inject is not None:
                inject(at)
            if use_nsb:
                nsb_acc += 1
                nset = nsb_sets[(line >> nsb_shift) & nsb_smask]
                ntag = line >> nsb_tshift
                ready = nset.pop(ntag, None)
                if ready is not None:
                    # Demand touch: back of the LRU order, mark cleared.
                    if ready < 0:
                        ready = ~ready
                    nset[ntag] = ready
                    if line in pending:
                        pending.discard(line)
                        was_pf = True
                    else:
                        was_pf = False
                    if ready <= at:
                        nsb_hit += 1
                        nsb_npu_bytes += line_bytes
                        if was_pf:
                            pf_useful += 1
                        complete = at + nsb_lat
                        level = lvl_nsb
                    else:
                        nsb_infl += 1
                        if was_pf:
                            pf_late += 1
                        complete = ready
                        t = at + nsb_lat
                        if t > complete:
                            complete = t
                        level = lvl_inflight
                    if complete > done:
                        done = complete
                    if hook is not None:
                        hook(
                            at,
                            sid,
                            line,
                            idxs[k] if idxs is not None else None,
                            result(complete, level, was_pf),
                        )
                    slot += 1
                    if slot == issue_width:
                        slot = 0
                        at += 1
                    continue
                nsb_miss += 1
            l2_acc += 1
            lset = l2_sets[(line >> l2_shift) & l2_smask]
            ltag = line >> l2_tshift
            ready = lset.pop(ltag, None)
            if ready is not None:
                if ready < 0:
                    ready = ~ready
                lset[ltag] = ready
                l2_npu_bytes += line_bytes
                if line in pending:
                    pending.discard(line)
                    was_pf = True
                else:
                    was_pf = False
                if ready <= at:
                    l2_hit += 1
                    if was_pf:
                        pf_useful += 1
                    complete = at + l2_lat
                    level = lvl_l2
                else:
                    l2_infl += 1
                    if was_pf:
                        pf_late += 1
                    complete = ready
                    t = at + l2_lat
                    if t > complete:
                        complete = t
                    level = lvl_inflight
                off_chip = False
            else:
                # True L2 miss: fetch from DRAM through an MSHR slot.
                # Inlined MSHRFile.earliest_free_slot / allocate (lazy
                # retire at the probe time, again at the start time) and
                # DRAM.access (serialising bus, constant line service).
                l2_miss += 1
                flags[k] = 1
                pending.discard(line)
                was_pf = False
                while mshr_heap and mshr_heap[0][0] <= at:
                    rt, ln = heappop(mshr_heap)
                    if mshr_infl.get(ln) == rt:
                        del mshr_infl[ln]
                if len(mshr_infl) < mshr_cap:
                    start = at
                else:
                    mshr.structural_stalls += 1
                    start = mshr_heap[0][0]
                    while mshr_heap and mshr_heap[0][0] <= start:
                        rt, ln = heappop(mshr_heap)
                        if mshr_infl.get(ln) == rt:
                            del mshr_infl[ln]
                busy = dram._bus_free_at
                st = start if start > busy else busy
                dram._bus_free_at = st + service
                complete = st + dram_lat + service + l2_lat
                mshr_infl[line] = complete
                heappush(mshr_heap, (complete, line))
                if len(mshr_infl) > mshr.peak_occupancy:
                    mshr.peak_occupancy = len(mshr_infl)
                # Fill into L2 (the touch above proved the line absent).
                if len(lset) >= l2_assoc:
                    l2_evt += 1
                    if lset.pop(next(iter(lset))) < 0:
                        l2_pfevt += 1
                lset[ltag] = complete
                l2_npu_bytes += line_bytes
                level = lvl_dram
                off_chip = True
            if use_nsb:
                # Promote into the NSB (it missed there, so a plain fill).
                if len(nset) >= nsb_assoc:
                    nsb_evt += 1
                    if nset.pop(next(iter(nset))) < 0:
                        nsb_pfevt += 1
                nset[ntag] = complete
            if complete > done:
                done = complete
            if hook is not None:
                hook(
                    at,
                    sid,
                    line,
                    idxs[k] if idxs is not None else None,
                    result(complete, level, was_pf, off_chip),
                )
            slot += 1
            if slot == issue_width:
                slot = 0
                at += 1
        if use_nsb:
            ns = self._stats_nsb
            ns.demand_accesses += nsb_acc
            ns.demand_hits += nsb_hit
            ns.demand_inflight_hits += nsb_infl
            ns.demand_misses += nsb_miss
            if nsb_evt:
                nsb.evictions += nsb_evt
                nsb.prefetch_evicted_unused += nsb_pfevt
        ls = self._stats_l2
        ls.demand_accesses += l2_acc
        ls.demand_hits += l2_hit
        ls.demand_inflight_hits += l2_infl
        ls.demand_misses += l2_miss
        if pf_useful or pf_late:
            pf = self._stats_pf
            pf.useful += pf_useful
            pf.late += pf_late
        if l2_miss:
            dram.busy_cycles += l2_miss * service
            dram.transfers += l2_miss
            dram.bytes_transferred += l2_miss * line_bytes
            if l2_evt:
                l2.evictions += l2_evt
                l2.prefetch_evicted_unused += l2_pfevt
        traffic = self._traffic
        traffic.nsb_to_npu_bytes += nsb_npu_bytes
        traffic.l2_to_npu_bytes += l2_npu_bytes
        traffic.off_chip_demand_bytes += l2_miss * line_bytes
        return done, flags

    # -- prefetch path -------------------------------------------------------
    def prefetch_line(self, now: int, line_addr: int, irregular: bool) -> int | None:
        """Bring one line toward the NPU speculatively.

        With an NSB configured, *irregular* speculative fills land in the
        NSB only — it is the Non-blocking **Speculative** Buffer, and
        keeping speculation out of the shared L2 is what protects the L2
        from prefetch pollution (the Fig. 9 trade: the NSB must be large
        enough to hold the speculative window). Regular-stream prefetches
        and NSB-less configurations fill the L2 as usual. Requests already
        satisfied at their target level are squashed for free, mirroring
        the tag-probe filter in hardware prefetch queues.

        Returns the fill-ready cycle when any fill was started (the request
        counts toward issued-prefetch statistics), else None.
        """
        nsb_probe = self._nsb_probe
        target_nsb = irregular and nsb_probe is not None
        if target_nsb and nsb_probe(line_addr) is not None:
            return None

        ready = self._l2_probe(line_addr)
        if ready is not None:
            if not target_nsb:
                return None
            # Pull from L2 into the NSB: on-chip transfer, no DRAM.
            t = now + self._l2_lat
            if t > ready:
                ready = t
            self._nsb_alloc(now, line_addr, ready, by_prefetch=True)
            self._stats_pf.issued += 1
            self._pf_pending.add(line_addr)
            return ready

        line_bytes = self._line_bytes
        start = self._l2_mshr_free(now)
        if now > start:
            start = now
        dram_done = self._dram_access(start, line_bytes, is_prefetch=True)
        ready = dram_done + self._l2_lat
        self._l2_mshr_alloc(start, line_addr, ready)
        self._l2_alloc(now, line_addr, ready, by_prefetch=True)
        if target_nsb:
            self._nsb_alloc(now, line_addr, ready, by_prefetch=True)
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

        Bit-exact with sequential :meth:`prefetch_line` calls under the
        port's burst budget: already-resident lines are squashed without
        consuming budget, and once ``max_issue`` fills have started the
        remaining lines are not probed at all (the port counts them as
        dropped — exactly what per-line budget checks would have done).

        Returns ``(ready cycles of the issued lines, lines processed)``.
        """
        readys: list[int] = []
        n = len(lines)
        if n == 0:
            return readys, 0
        line_bytes = self._line_bytes
        pending = self._pf_pending
        target_nsb = irregular and self._nsb_hot is not None
        l2 = self.l2
        l2_sets, l2_shift, l2_smask, l2_tshift, l2_assoc = self._l2_hot
        if target_nsb:
            nsb = self.nsb
            nsb_sets, nsb_shift, nsb_smask, nsb_tshift, nsb_assoc = self._nsb_hot
        l2_lat = self._l2_lat
        mshr = l2.mshr
        mshr_heap, mshr_infl, mshr_cap = self._l2_mshr_hot
        dram = self.dram
        issue = now + self._pf_penalty
        dram_lat = self._dram_lat
        service = self._line_service
        issued = off_chip = 0
        l2_evt = l2_pfevt = nsb_evt = nsb_pfevt = 0
        consumed = n
        for k in range(n):
            if issued >= max_issue:
                consumed = k
                break
            line = lines[k]
            if target_nsb:
                nset = nsb_sets[(line >> nsb_shift) & nsb_smask]
                ntag = line >> nsb_tshift
                if ntag in nset:
                    continue
            lset = l2_sets[(line >> l2_shift) & l2_smask]
            ltag = line >> l2_tshift
            ready = lset.get(ltag)
            if ready is not None:
                if not target_nsb:
                    continue
                # Pull from L2 into the NSB: on-chip transfer, no DRAM.
                if ready < 0:
                    ready = ~ready
                t = now + l2_lat
                if t > ready:
                    ready = t
            else:
                # Off-chip fill: inlined MSHR slot search, DRAM bus
                # (prefetches issue after the arbitration penalty) and
                # L2 fill — see demand_lines for the inlining contract.
                while mshr_heap and mshr_heap[0][0] <= now:
                    rt, ln = heappop(mshr_heap)
                    if mshr_infl.get(ln) == rt:
                        del mshr_infl[ln]
                if len(mshr_infl) < mshr_cap:
                    start = issue
                else:
                    mshr.structural_stalls += 1
                    start = mshr_heap[0][0]
                    while mshr_heap and mshr_heap[0][0] <= start:
                        rt, ln = heappop(mshr_heap)
                        if mshr_infl.get(ln) == rt:
                            del mshr_infl[ln]
                    start += self._pf_penalty
                busy = dram._bus_free_at
                st = start if start > busy else busy
                dram._bus_free_at = st + service
                ready = st + dram_lat + service + l2_lat
                mshr_infl[line] = ready
                heappush(mshr_heap, (ready, line))
                if len(mshr_infl) > mshr.peak_occupancy:
                    mshr.peak_occupancy = len(mshr_infl)
                if len(lset) >= l2_assoc:
                    l2_evt += 1
                    if lset.pop(next(iter(lset))) < 0:
                        l2_pfevt += 1
                lset[ltag] = ~ready
                off_chip += 1
            if target_nsb:
                # The NSB probe above proved the line absent: plain fill.
                if len(nset) >= nsb_assoc:
                    nsb_evt += 1
                    if nset.pop(next(iter(nset))) < 0:
                        nsb_pfevt += 1
                nset[ntag] = ~ready
            issued += 1
            pending.add(line)
            readys.append(ready)
        if issued:
            pf_stats = self._stats_pf
            pf_stats.issued += issued
            pf_stats.issued_lines_off_chip += off_chip
            self._traffic.off_chip_prefetch_bytes += off_chip * line_bytes
            if off_chip:
                dram.busy_cycles += off_chip * service
                dram.transfers += off_chip
                dram.bytes_transferred += off_chip * line_bytes
            if l2_evt:
                l2.evictions += l2_evt
                l2.prefetch_evicted_unused += l2_pfevt
            if nsb_evt:
                nsb.evictions += nsb_evt
                nsb.prefetch_evicted_unused += nsb_pfevt
        return readys, consumed

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
        """Fold component-local counters into the shared stats record."""
        self.stats.dram_busy_cycles = self.dram.busy_cycles
        self.stats.prefetch.evicted_unused = self.l2.prefetch_evicted_unused + (
            self.nsb.prefetch_evicted_unused if self.nsb else 0
        )
        self.stats.total_cycles = max(self.stats.total_cycles, total_cycles)
