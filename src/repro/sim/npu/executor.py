"""NPU execution engines: in-order and ideal out-of-order.

The two engines bound the paper's comparison space (Sec. V-A):

* **In-order** ("serial execution of load and compute instructions") —
  Gemmini's native behaviour: each tile's W load, IA gather and compute
  run back-to-back, so every cache-miss cycle lands on the critical path.
* **Ideal OoO** ("overlapping the load and computation time") — the
  memory pipeline streams tiles ahead of compute within a window, hiding
  memory time under compute. The true data dependency W→gather is kept
  (gather addresses need the loaded indices), which is why even ideal OoO
  cannot rescue IO-bound sparse workloads — Fig. 5's observation.

Both engines share the vector stall semantics: a micro-op batch completes
at the max of its element completions.
"""

from __future__ import annotations

from dataclasses import dataclass

from ...errors import ConfigError
from ...registry import Registry
from ..stats import RunStats
from ...prefetch.base import Prefetcher
from .isa import VectorGather, VectorLoad
from .program import SparseProgram, Tile
from .sparse_unit import SparseUnit

# Cycles the sparse unit needs to turn returned indices into gather
# addresses before the gather can issue (address-generation latency).
ADDRESS_GEN_CYCLES = 2


@dataclass
class ExecutorConfig:
    """Shared execution parameters.

    Attributes:
        issue_width: line requests issued per cycle by the load pipeline.
        ooo_window: tiles in flight for the ideal-OoO engine (its "ROB").
        preload_granule: DMA burst granularity of the explicit-preload
            engine (Gemmini ``mvin`` moves whole regions).
        scratchpad_read_latency: per-batch read cost once data is resident
            in the scratchpad.
    """

    issue_width: int = 2
    ooo_window: int = 8
    preload_granule: int = 512
    scratchpad_read_latency: int = 2

    def __post_init__(self) -> None:
        if self.issue_width < 1:
            raise ConfigError("issue_width must be >= 1")
        if self.ooo_window < 1:
            raise ConfigError("ooo_window must be >= 1")
        if self.preload_granule < 64 or self.preload_granule & (
            self.preload_granule - 1
        ):
            raise ConfigError("preload_granule must be a power of two >= 64")
        if self.scratchpad_read_latency < 1:
            raise ConfigError("scratchpad_read_latency must be >= 1")

    def to_dict(self) -> dict:
        """Canonical plain-scalar dict (see :mod:`repro.spec.serde`)."""
        from ...spec import serde

        return serde.executor_config_to_dict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ExecutorConfig":
        from ...spec import serde

        return serde.executor_config_from_dict(d)


#: Execution-engine registry: mode name -> engine class. The built-in
#: modes are registered below next to their classes; plug a new engine in
#: with ``@ENGINES.register("mymode")`` and any mechanism declaring that
#: mode resolves to it through :func:`build_engine`.
ENGINES = Registry("executor mode")


class _EngineBase:
    """Shared issue logic for both engines.

    Each vector instruction reaches the hierarchy through one of two
    entries, chosen once per run. Without a per-line demand hook
    (``inorder``, ``ooo``, ``preload`` and NVR), a load or gather is one
    request vector: a single
    :meth:`~repro.sim.memory.hierarchy.MemorySystem.demand_lines` call
    walks all its lines. A prefetcher that snoops every demand line
    (stream, IMP, DVR override ``on_demand_access``) must see each line's
    off-chip bit before the next line issues, so those runs call
    :meth:`~repro.sim.memory.hierarchy.MemorySystem.demand_line` once per
    line, which returns one int (the completion cycle, negated with ``~``
    when the line went off-chip). Both entries run the same compiled
    per-line body, so the two walks are bit-identical.

    The only NPU events raised are tile dispatch and data return; no
    engine raises CPU branch events, since no mechanism consumes them.
    """

    def __init__(
        self,
        program: SparseProgram,
        mem,
        prefetcher: Prefetcher,
        sparse_unit: SparseUnit,
        stats: RunStats,
        config: ExecutorConfig,
    ) -> None:
        self.program = program
        self.mem = mem
        self.prefetcher = prefetcher
        self.sparse_unit = sparse_unit
        self.stats = stats
        self.config = config
        self._line_bytes = mem.line_bytes
        program.prepare_line_lists(mem.line_bytes)
        # Hot-path bindings — the issue helpers run once per demand line
        # (millions of calls per sweep), so everything reachable through
        # an attribute chain is resolved once here.
        self._issue_width = config.issue_width
        self._vec_width = program.config.vector_width
        self._demand_line = mem.demand_line
        self._reg_hit = mem.hit_latency(irregular=False)
        self._irr_hit = mem.hit_latency(irregular=True)
        # Prefetchers that keep the base-class no-op demand hook need no
        # per-line callback at all; eliding the call is exact.
        self._pf_hook = (
            prefetcher.on_demand_access
            if type(prefetcher).on_demand_access
            is not Prefetcher.on_demand_access
            else None
        )
        # An all-hit memory with no demand snoop has a closed-form issue
        # schedule: every line completes at its issue cycle plus the hit
        # latency, so only the last line matters (see the issue helpers).
        self._fast_perfect = (
            getattr(mem, "perfect", False) and self._pf_hook is None
        )
        # Dispatch events and sparse-unit occupancy are only observable
        # through prefetchers that snoop them (NVR attaches to the NPU and
        # overrides the dispatch hook); for every other prefetcher the
        # event lands in a base-class no-op and the sparse unit's occupancy
        # is never read, so both are elided.
        p_cls = type(prefetcher)
        self._needs_dispatch = (
            p_cls.on_tile_dispatch is not Prefetcher.on_tile_dispatch
            or hasattr(prefetcher, "attach_npu")
        )
        self._data_hook = (
            prefetcher.on_data_return
            if p_cls.on_data_return is not Prefetcher.on_data_return
            else None
        )
        # The request-vector walk (see the class docstring); None selects
        # the per-line walk. Perfect memory has no vector kernel and takes
        # the closed form above instead.
        self._demand_batch = (
            getattr(mem, "demand_lines", None) if self._pf_hook is None else None
        )

    # -- issue helpers -------------------------------------------------------
    def _issue_load(self, now: int, load: VectorLoad) -> int:
        """Issue a streaming vector load; returns its completion cycle."""
        lines = load.line_addr_list(self._line_bytes)
        n = len(lines)
        if n == 0:
            return now
        width = self._issue_width
        if self._fast_perfect:
            # Line i issues at now + i // width and hits; the last line
            # issued completes last.
            return now + (n - 1) // width + self._reg_hit
        batch = self._demand_batch
        if batch is not None:
            done, _ = batch(now, width, lines, False)
            return done
        demand_line = self._demand_line
        hook = self._pf_hook
        sid = load.stream_id
        done = now
        at = now
        slot = 0
        for la in lines:
            complete = demand_line(at, la, False)
            off_chip = complete < 0
            if off_chip:
                complete = ~complete
            if hook is not None:
                hook(at, sid, la, None, off_chip)
            if complete > done:
                done = complete
            slot += 1
            if slot == width:
                slot = 0
                at += 1
        return done

    def _issue_gather(self, now: int, gather: VectorGather) -> int:
        """Issue an indirect gather; returns completion, records batch stats.

        A batch here is one vector micro-op: ``vector_width`` indices. The
        batch "misses" when any element line goes off-chip — the
        all-or-nothing stall the paper attributes to data parallelism.
        """
        width = self._vec_width
        batch_stats = self.stats.batch
        firsts_l, counts_l, idx_l, total_lines = gather.line_span_lists(
            self._line_bytes
        )
        n_elems = len(firsts_l)
        if self._fast_perfect:
            # All-hit memory never reaches DRAM, so no element or batch
            # ever misses; only the counters and last completion remain.
            batch_stats.elements += n_elems
            batch_stats.batches += (n_elems + width - 1) // width
            if total_lines == 0:
                return now
            return now + (total_lines - 1) // self._issue_width + self._irr_hit
        if self._demand_batch is not None:
            return self._gather_vector(now, firsts_l, counts_l, total_lines)
        lb = self._line_bytes
        issue_width = self._issue_width
        demand_line = self._demand_line
        hook = self._pf_hook
        sid = gather.stream_id
        done = now
        at = now
        slot = 0
        elem_misses = 0
        batch_misses = 0
        for b0 in range(0, n_elems, width):
            batch_missed = False
            for e in range(b0, min(b0 + width, n_elems)):
                elem_missed = False
                la = firsts_l[e]
                for line_i in range(counts_l[e]):
                    complete = demand_line(at, la, True)
                    off_chip = complete < 0
                    if off_chip:
                        complete = ~complete
                        elem_missed = True
                    if hook is not None:
                        # Index/address pairs are only architecturally
                        # visible for the first line of a segment (the
                        # computed address).
                        hook(
                            at,
                            sid,
                            la,
                            idx_l[e] if line_i == 0 else None,
                            off_chip,
                        )
                    if complete > done:
                        done = complete
                    la += lb
                    slot += 1
                    if slot == issue_width:
                        slot = 0
                        at += 1
                if elem_missed:
                    elem_misses += 1
                    batch_missed = True
            if batch_missed:
                batch_misses += 1
        # Counter totals are order-independent, so they fold in once.
        batch_stats.elements += n_elems
        batch_stats.batches += (n_elems + width - 1) // width
        batch_stats.element_misses += elem_misses
        batch_stats.batch_misses += batch_misses
        return done

    def _gather_vector(
        self,
        now: int,
        firsts_l: list[int],
        counts_l: list[int],
        total_lines: int,
    ) -> int:
        """:meth:`_issue_gather` as one request vector through the hierarchy.

        The gather's segments enter the kernel as spans (first line and
        line count per element), and it returns one off-chip flag per
        element: an element misses when any line of its segment went
        off-chip, a vector batch when any of its elements did.
        """
        width = self._vec_width
        n_elems = len(counts_l)
        batch_stats = self.stats.batch
        batch_stats.elements += n_elems
        batch_stats.batches += (n_elems + width - 1) // width
        if total_lines == 0:
            return now
        done, flags = self._demand_batch(
            now, self._issue_width, firsts_l, True, counts_l
        )
        if 1 in flags:
            find = flags.find
            batch_stats.element_misses += flags.count(1)
            batch_stats.batch_misses += sum(
                find(1, b0, b0 + width) >= 0 for b0 in range(0, n_elems, width)
            )
        return done

    def _dispatch(self, now: int, tile: Tile) -> None:
        """Raise the snooper-visible dispatch event for one tile."""
        if self._needs_dispatch:
            self.prefetcher.on_tile_dispatch(now, tile.tile_id)

    def _tile_memory_phase(self, start: int, tile: Tile) -> int:
        """W load, data return, address generation, gathers. Returns end."""
        w_done = max(
            self._issue_load(start, tile.w_val_load),
            self._issue_load(start, tile.w_idx_load),
        )
        if self._data_hook is not None:
            self._data_hook(w_done, tile.tile_id)
        g_start = w_done + ADDRESS_GEN_CYCLES
        if self._needs_dispatch:
            self.sparse_unit.occupy(w_done, ADDRESS_GEN_CYCLES)
        g_done = g_start
        for gather in tile.gathers:
            g_done = self._issue_gather(g_start, gather)
            g_start = g_done
        if tile.store is not None:
            self.stats.traffic.store_bytes += tile.store.n_bytes()
        return g_done

    def _tile_compute_phase(self, start: int, tile: Tile) -> int:
        if self._needs_dispatch:
            self.sparse_unit.occupy(start, tile.compute.sparse_unit_cycles)
        self.stats.compute_cycles += tile.compute.cycles
        return start + tile.compute.cycles


@ENGINES.register("inorder")
class InOrderEngine(_EngineBase):
    """Serial load → gather → compute per tile (baseline Gemmini)."""

    def run(self) -> int:
        now = 0
        for tile in self.program.tiles:
            self._dispatch(now, tile)
            mem_done = self._tile_memory_phase(now, tile)
            now = self._tile_compute_phase(mem_done, tile)
        self.mem.finalize(now)
        self.stats.total_cycles = now
        return now


@ENGINES.register("ooo")
class IdealOoOEngine(_EngineBase):
    """Memory pipeline runs ahead of compute within a tile window."""

    def run(self) -> int:
        window = self.config.ooo_window
        load_engine = 0
        compute_engine = 0
        compute_done: list[int] = []
        for t, tile in enumerate(self.program.tiles):
            start = load_engine
            if t >= window:
                start = max(start, compute_done[t - window])
            self._dispatch(start, tile)
            mem_done = self._tile_memory_phase(start, tile)
            load_engine = mem_done
            c_start = max(compute_engine, mem_done)
            compute_engine = self._tile_compute_phase(c_start, tile)
            compute_done.append(compute_engine)
        total = max(load_engine, compute_engine)
        self.mem.finalize(total)
        self.stats.total_cycles = total
        return total


@ENGINES.register("preload")
class ExplicitPreloadEngine(_EngineBase):
    """Gemmini's native operating mode: coarse DMA into the scratchpad.

    Per sparse row: (1) stream the W values/indices; (2) the software
    pass scans the indices and ``mvin``s every ``preload_granule`` region
    any gather touches — the over-fetch the paper calls "out-of-bounds
    accesses for explicit buffers"; (3) gathers then read the scratchpad
    at SRAM latency; (4) compute. No cache misses occur, but all the
    latency moved into bandwidth: the mechanism trades the InO engine's
    stall time for transfer volume, which is the comparison behind
    Figs. 1b and 7.
    """

    def run(self) -> int:
        from ..memory.scratchpad import Scratchpad, ScratchpadConfig

        granule = self.config.preload_granule
        scratchpad = Scratchpad(ScratchpadConfig())
        now = 0
        rows: dict[int, list[Tile]] = {}
        for tile in self.program.tiles:
            rows.setdefault(tile.row, []).append(tile)
        for row_tiles in rows.values():
            # (1) W streams for the whole row.
            w_done = now
            for tile in row_tiles:
                self._dispatch(now, tile)
                w_done = max(
                    w_done,
                    self._issue_load(now, tile.w_val_load),
                    self._issue_load(now, tile.w_idx_load),
                )
            if self._data_hook is not None:
                self._data_hook(w_done, row_tiles[-1].tile_id)
            # (2) Coarse DMA covering every touched granule.
            blocks: set[int] = set()
            for tile in row_tiles:
                for gather in tile.gathers:
                    blocks.update(gather.granule_blocks(granule))
            dma_bytes = len(blocks) * granule
            dma_bytes = min(dma_bytes, scratchpad.config.size_bytes)
            dma_done = self.mem.bulk_transfer(w_done, dma_bytes)
            dma_done += scratchpad.write(dma_bytes)
            # (3) + (4) scratchpad-resident gathers, then compute.
            t = dma_done
            width = self.program.config.vector_width
            for tile in row_tiles:
                for gather in tile.gathers:
                    n_batches = -(-len(gather.byte_addrs) // width)
                    t += n_batches * self.config.scratchpad_read_latency
                    self.stats.batch.batches += n_batches
                    self.stats.batch.elements += len(gather.byte_addrs)
                t = self._tile_compute_phase(t, tile)
            now = t
        self.mem.finalize(now)
        self.stats.total_cycles = now
        return now


def build_engine(
    mode: str,
    program: SparseProgram,
    mem,
    prefetcher: Prefetcher,
    sparse_unit: SparseUnit,
    stats: RunStats,
    config: ExecutorConfig,
):
    """Factory: resolve ``mode`` through the :data:`ENGINES` registry."""
    return ENGINES.get(mode)(program, mem, prefetcher, sparse_unit, stats, config)
