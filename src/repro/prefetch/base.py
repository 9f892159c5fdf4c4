"""Prefetcher interface and the port through which prefetches are issued.

Capability model
----------------

The executor raises the same events for every mechanism; what separates
them is which events they are *architecturally allowed* to use:

==================  ======  =====  =====  =====
capability          stream  IMP    DVR    NVR
==================  ======  =====  =====  =====
demand miss addrs     x       x      x      x
returned index data           x      x      x
tile dispatch (ROB)                  (1)    x
sparse-unit regs                            x
sparse_func eval                            x
==================  ======  =====  =====  =====

(1) DVR triggers on stalls (misses), not dispatch — it lives CPU-side and
cannot see the NPU's ROB; our DVR implementation therefore only reacts in
``on_demand_access``.

The paper's NVR also snoops CPU branch events, which train its LBD's
static loop bounds. No runahead decision here reads a static bound (the
LBD learns bounds only from the sparse-unit window), so no engine raises
branch events and no mechanism consumes them; Table I
(:mod:`repro.core.overhead`) still budgets the paper's full SD, LBD and
SCD tables.

Every mechanism issues requests through :class:`PrefetchPort` as bursts
(burst ``i`` at cycle ``at + i``); the port enforces the shared per-cycle
issue budget and routes fills into L2 (and the NSB for irregular data
when configured).
"""

from __future__ import annotations

from ..errors import ConfigError
from ..sim.npu.program import SparseProgram


class PrefetchPort:
    """Issue interface handed to every prefetcher.

    Wraps the memory system's burst kernel,
    :meth:`~repro.sim.memory.hierarchy.MemorySystem.prefetch_lines`, and
    enforces a per-cycle issue budget so all mechanisms share the same
    request parallelism (the paper equalises this across baselines).
    """

    def __init__(self, mem, burst_budget: int = 64) -> None:
        if burst_budget < 1:
            raise ConfigError("burst_budget must be >= 1")
        self._prefetch_lines = mem.prefetch_lines
        self.line_bytes = mem.line_bytes
        self.burst_budget = burst_budget
        self._burst_now = -1
        self._burst_used = 0
        self.dropped_over_budget = 0

    def prefetch_bursts(self, at: int, bursts, irregular: bool) -> list[int]:
        """Issue burst ``i`` at cycle ``at + i``; returns the issued fill times.

        Every generator already thinks in bursts: VMIG's vector ops, a
        runahead gather chunked by vector width, a stream's degree window
        four lines a cycle. Each (non-empty) burst is one call of the
        memory system's kernel, capped by what is left of its cycle's
        budget: already-resident lines are squashed without consuming
        budget, and lines beyond it are dropped (``dropped_over_budget``).

        Squashed and dropped requests produce no entry, so callers use
        ``len()`` for the issued count and ``max()`` for the last fill.
        """
        kernel = self._prefetch_lines
        out: list[int] = []
        for burst in bursts:
            if at != self._burst_now:
                self._burst_now = at
                self._burst_used = 0
            remaining = self.burst_budget - self._burst_used
            if remaining > 0:
                readys, consumed = kernel(at, burst, irregular, remaining)
                self._burst_used += len(readys)
                self.dropped_over_budget += len(burst) - consumed
                out += readys
            else:
                self.dropped_over_budget += len(burst)
            at += 1
        return out


class Prefetcher:
    """Base class: every handler is a no-op; subclasses override what their
    capability set allows (see module docstring)."""

    name = "none"

    def __init__(self, vector_width: int = 16) -> None:
        if vector_width < 1:
            raise ConfigError("vector_width must be >= 1")
        self.vector_width = vector_width
        self.port: PrefetchPort | None = None
        self.program: SparseProgram | None = None

    # -- lifecycle -----------------------------------------------------------
    def attach(self, program: SparseProgram, port: PrefetchPort) -> None:
        """Bind to a program run. Called once by the System before execution."""
        self.program = program
        self.port = port

    # -- event handlers (all optional) ----------------------------------------
    def on_tile_dispatch(self, now: int, tile_id: int) -> None:
        """A load instruction entered execution in the NPU's ROB."""

    def on_data_return(self, now: int, tile_id: int) -> None:
        """A tile's W (index) data arrived on-chip."""

    def on_demand_access(
        self,
        now: int,
        stream_id: int,
        line_addr: int,
        idx_value: int | None,
        off_chip: bool,
    ) -> None:
        """One demand line access completed lookup (hit or miss).

        Called once per demand line, before the next line issues.
        ``idx_value`` is the gather index when the line is the first of
        its element's segment, else None; ``off_chip`` is True when the
        line missed every cache level and went to DRAM. Overriding this
        hook moves the run onto the executor's per-line walk.
        """

    def on_branch(self, now: int, event) -> None:
        """A CPU branch executed: never raised (see the module docstring).

        Kept as a base no-op only until the benchmark's tracer test stops
        naming it among the base no-ops; then it goes.
        """
