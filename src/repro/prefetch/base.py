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
CPU branch events                           x
sparse-unit regs                            x
sparse_func eval                            x
==================  ======  =====  =====  =====

(1) DVR triggers on stalls (misses), not dispatch — it lives CPU-side and
cannot see the NPU's ROB; our DVR implementation therefore only reacts in
``on_demand_access``.

Every mechanism issues requests through :class:`PrefetchPort`, which
enforces the shared issue budget (vector width per event burst) and routes
fills into L2 (and the NSB for irregular data when configured).
"""

from __future__ import annotations

from ..errors import ConfigError
from ..sim.npu.program import SparseProgram


class PrefetchPort:
    """Issue interface handed to every prefetcher.

    Wraps the memory system; also enforces a per-burst issue budget so all
    mechanisms share the same request parallelism (the paper equalises
    this across baselines).
    """

    def __init__(self, mem, burst_budget: int = 64) -> None:
        if burst_budget < 1:
            raise ConfigError("burst_budget must be >= 1")
        self._mem = mem
        # The memory system's batched prefetch kernel, if it has one.
        self._prefetch_lines = getattr(mem, "prefetch_lines", None)
        self.burst_budget = burst_budget
        self._burst_now = -1
        self._burst_used = 0
        self.dropped_over_budget = 0

    @property
    def line_bytes(self) -> int:
        return self._mem.line_bytes

    def line_addr(self, byte_addr: int) -> int:
        return self._mem.line_addr(byte_addr)

    def is_resident(self, line_addr: int) -> bool:
        """Read-only residency probe (tag check before enqueue)."""
        return self._mem.is_resident(line_addr)

    def prefetch(self, now: int, line_addr: int, irregular: bool) -> int | None:
        """Issue one line prefetch.

        Returns the fill-ready cycle, or None when the request was squashed
        (already resident) or dropped (burst budget exhausted).
        """
        if now != self._burst_now:
            self._burst_now = now
            self._burst_used = 0
        if self._burst_used >= self.burst_budget:
            self.dropped_over_budget += 1
            return None
        ready = self._mem.prefetch_line(now, line_addr, irregular)
        if ready is None or ready is False:
            return None
        self._burst_used += 1
        return ready

    def prefetch_many(self, ats, lines, irregular: bool) -> list[int]:
        """Issue a burst of line prefetches; returns the issued fill times.

        Bit-exact with calling :meth:`prefetch` once per line in order —
        same budget accounting, same squash/drop decisions — but routed
        through the memory system's batched
        :meth:`~repro.sim.memory.hierarchy.MemorySystem.prefetch_lines`
        kernel when it has one, so a whole VMIG bundle or runahead burst
        costs one call instead of one per line. ``ats`` is the issue
        cycle: a single int for a same-cycle burst, or one per line
        (non-decreasing, as the issue loops generate them).

        Squashed and dropped requests produce no entry, so callers use
        ``len()`` for the issued count and ``max()`` for the last fill.
        """
        if not lines:
            return []
        if isinstance(ats, int):
            runs = ((ats, lines),)
        else:
            # Split into same-cycle segments; budget state is per cycle.
            runs = []
            start = 0
            n = len(ats)
            for i in range(1, n):
                if ats[i] != ats[start]:
                    runs.append((ats[start], lines[start:i]))
                    start = i
            runs.append((ats[start], lines[start:]))
        batch = self._prefetch_lines
        out: list[int] = []
        for at, seg in runs:
            if at != self._burst_now:
                self._burst_now = at
                self._burst_used = 0
            remaining = self.burst_budget - self._burst_used
            if remaining <= 0:
                self.dropped_over_budget += len(seg)
                continue
            if batch is not None:
                readys, consumed = batch(at, seg, irregular, remaining)
                self._burst_used += len(readys)
                self.dropped_over_budget += len(seg) - consumed
                out.extend(readys)
            else:
                for la in seg:
                    r = self.prefetch(at, la, irregular)
                    if r is not None:
                        out.append(r)
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
        """A CPU branch executed (loop iteration); NVR/LBD only."""
