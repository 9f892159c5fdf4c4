"""The composed system: CPU + NPU + prefetcher + memory hierarchy.

:class:`System` owns one simulation run: it wires a lowered
:class:`~repro.sim.npu.program.SparseProgram` to a memory hierarchy, a
prefetch mechanism and an execution engine, and returns a
:class:`RunResult` with the raw statistics every figure in the paper is
derived from.

``System.run(perfect=True)`` replays the same program against an all-hit
memory — the "NPU base execution time" lower bar of Fig. 5; the
difference to the real run is the cache-miss stall time (upper bar).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..errors import ConfigError
from ..prefetch.base import Prefetcher, PrefetchPort
from ..prefetch.none_pf import NullPrefetcher
from .memory.hierarchy import MemoryConfig, MemorySystem
from .npu.executor import ExecutorConfig, build_engine
from .npu.program import SparseProgram
from .npu.sparse_unit import SparseUnit
from .stats import RunStats


class PerfectMemory:
    """All-hit memory with the real hierarchy's hit latencies.

    Used for the base-time run: identical interface to
    :class:`~repro.sim.memory.hierarchy.MemorySystem`, but every demand
    access hits at its level's hit latency and prefetches are no-ops.
    """

    #: Engine fast paths key on this (see ``MemorySystem.perfect``).
    perfect = True

    def __init__(self, config: MemoryConfig, stats: RunStats) -> None:
        self.config = config
        self.stats = stats
        self._line_bytes = config.line_bytes
        self._l2_lat = config.l2.hit_latency
        self._nsb_lat = config.nsb.hit_latency if config.nsb is not None else None

    @property
    def line_bytes(self) -> int:
        return self._line_bytes

    def hit_latency(self, irregular: bool) -> int:
        if self._nsb_lat is not None and irregular:
            return self._nsb_lat
        return self._l2_lat

    def demand_line(self, now: int, line: int, irregular: bool) -> int:
        return now + self.hit_latency(irregular)

    def prefetch_lines(
        self, now: int, lines, irregular: bool, max_issue: int
    ) -> tuple[list[int], int]:
        # Every line is already resident: all squashed, none dropped.
        return [], len(lines)

    def bulk_transfer(self, now: int, n_bytes: int) -> int:
        # Perfect memory: the burst is instantaneous beyond one hit time.
        return now + self.config.l2.hit_latency

    def finalize(self, total_cycles: int) -> None:
        self.stats.total_cycles = max(self.stats.total_cycles, total_cycles)


@dataclass
class RunResult:
    """Outcome of one simulation run."""

    program_name: str
    mechanism: str
    mode: str
    total_cycles: int
    stats: RunStats
    base_cycles: int | None = None
    n_rows: int | None = None

    @property
    def stall_cycles(self) -> int | None:
        """Cache-miss stall time (needs a paired perfect run)."""
        if self.base_cycles is None:
            return None
        return max(0, self.total_cycles - self.base_cycles)

    def speedup_over(self, other: "RunResult") -> float:
        """How much faster this run is than ``other``."""
        if self.total_cycles == 0:
            raise ConfigError("zero-cycle run cannot be compared")
        return other.total_cycles / self.total_cycles


@dataclass
class System:
    """One simulated platform configuration.

    Attributes:
        program: the lowered workload.
        memory: hierarchy configuration (L2/DRAM/NSB).
        prefetcher_factory: builds a *fresh* prefetcher per run (prefetcher
            state must never leak across runs).
        mode: 'inorder' or 'ooo'.
        executor: issue widths and OoO window.
    """

    program: SparseProgram
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    prefetcher_factory: Callable[[], Prefetcher] = NullPrefetcher
    mode: str = "inorder"
    executor: ExecutorConfig = field(default_factory=ExecutorConfig)

    def run(self, perfect: bool = False) -> RunResult:
        """Execute the program once; returns raw statistics.

        Args:
            perfect: run against an all-hit memory (base time measurement).
        """
        stats = RunStats()
        if perfect:
            mem = PerfectMemory(self.memory, stats)
            prefetcher: Prefetcher = NullPrefetcher()
        else:
            mem = MemorySystem(self.memory, stats)
            prefetcher = self.prefetcher_factory()
        sparse_unit = SparseUnit(self.program)
        port = PrefetchPort(mem)
        prefetcher.attach(self.program, port)
        if hasattr(prefetcher, "attach_npu"):
            # NVR's extra, architecturally-snooped capabilities.
            prefetcher.attach_npu(sparse_unit)
        engine = build_engine(
            self.mode,
            self.program,
            mem,
            prefetcher,
            sparse_unit,
            stats,
            self.executor,
        )
        total = engine.run()
        stats.runahead_invocations = sparse_unit.runahead_grants
        controller = getattr(prefetcher, "controller", None)
        if controller is not None:
            stats.runahead_denied_busy = controller.runahead_delayed
        return RunResult(
            program_name=self.program.name,
            mechanism=getattr(prefetcher, "name", "none"),
            mode=self.mode,
            total_cycles=total,
            stats=stats,
            n_rows=self.program.n_rows,
        )

    def run_with_base(self) -> RunResult:
        """Real run plus perfect-memory run; fills ``base_cycles``."""
        result = self.run(perfect=False)
        base = self.run(perfect=True)
        result.base_cycles = base.total_cycles
        result.stats.stall_cycles = max(0, result.total_cycles - base.total_cycles)
        return result
