"""Miss Status Holding Register (MSHR) file.

MSHRs are what make a cache *non-blocking*: each entry tracks one
outstanding line fill so later requests to the same line coalesce onto it
instead of issuing duplicate memory transactions, and independent misses can
proceed in parallel up to the entry count. The paper leans on this twice —
the NSB "incorporates an MSHR file to manage concurrent memory operations"
and VMIG's pipelining "depends on the MSHR, which prevents cache miss events
from blocking subsequent prefetch operations".

Fills retire in the order they are allocated. A fill's ready cycle is its
DRAM bus slot plus fixed latencies; the bus serialises transfers and every
line takes the same service time, so ready cycles strictly increase in
allocation order. The file is therefore a FIFO: the oldest entry is always
the next to complete. The simulator advances time monotonically, so
entries whose fill has completed are retired lazily on each call.
"""

from __future__ import annotations

from collections import deque

from ...errors import ConfigError


class MSHRFile:
    """Bounded FIFO of outstanding line fills with coalescing.

    Args:
        capacity: maximum simultaneously outstanding fills. When the file is
            full, a new miss must wait for the oldest outstanding fill to
            retire — the structural hazard that caps memory-level
            parallelism.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ConfigError(f"MSHR capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._fills: deque[int] = deque()
        self._inflight: dict[int, int] = {}
        self.peak_occupancy = 0
        self.coalesced = 0
        self.structural_stalls = 0

    def _retire_completed(self, now: int) -> None:
        fills = self._fills
        inflight = self._inflight
        while fills and inflight[fills[0]] <= now:
            del inflight[fills.popleft()]

    def occupancy(self, now: int) -> int:
        """Number of fills still outstanding at ``now``."""
        self._retire_completed(now)
        return len(self._inflight)

    def lookup(self, now: int, line_addr: int) -> int | None:
        """Return the ready-time of an in-flight fill for ``line_addr``.

        Returns None when no fill for that line is outstanding. A non-None
        result is a coalesce: the caller's request piggybacks on the
        existing fill.
        """
        self._retire_completed(now)
        ready = self._inflight.get(line_addr)
        if ready is not None:
            self.coalesced += 1
        return ready

    def earliest_free_slot(self, now: int) -> int:
        """Earliest cycle at which a new entry can be allocated.

        ``now`` when a slot is free; otherwise the ready-time of the
        oldest outstanding fill (we must wait for it to retire).
        """
        self._retire_completed(now)
        if len(self._inflight) < self.capacity:
            return now
        self.structural_stalls += 1
        return self._inflight[self._fills[0]]

    def hot_state(self) -> tuple[deque[int], dict[int, int], int]:
        """``(fills, inflight, capacity)`` for the inlined hierarchy walks.

        ``fills`` holds the outstanding lines in allocation order, which is
        also completion order; ``inflight`` maps each of them to its ready
        cycle. Both are mutated in place and never reassigned, so the
        tuple stays valid for the file's lifetime. Writers keep them in
        step: retire by popping ``fills`` from the left while the oldest
        fill's ready cycle is at or before the request's cycle; when the
        file is still full, wait for (and retire) the leftmost entry;
        append every new fill on the right. Python writers keep
        ``structural_stalls``, ``peak_occupancy`` and ``coalesced``
        maintained through the attributes; the compiled kernels count in
        their own block, which ``MemorySystem.finalize`` folds in.

        The compiled kernels (``_kernels.c``) read this tuple through the
        C API, so its types are part of the contract: a
        ``collections.deque`` and a ``dict`` (exact types) keyed by line
        address, and an int capacity. ``MemorySystem.__init__`` checks
        them once.
        """
        return self._fills, self._inflight, self.capacity

    def allocate(self, now: int, line_addr: int, ready_at: int) -> None:
        """Record a new outstanding fill for ``line_addr``.

        The caller must have consulted :meth:`earliest_free_slot` and used
        a start time at which a slot is available, and must not allocate
        a line that is still in flight (it coalesces instead). The fill
        must complete after every outstanding fill: the FIFO's premise.
        """
        self._retire_completed(now)
        fills = self._fills
        inflight = self._inflight
        if len(inflight) >= self.capacity:
            raise ConfigError(
                "MSHR allocate with full file - call earliest_free_slot first"
            )
        if line_addr in inflight:
            raise ConfigError(f"MSHR double-allocate for line {line_addr:#x}")
        if fills and ready_at <= inflight[fills[-1]]:
            raise ConfigError(
                f"MSHR fill for line {line_addr:#x} ready at {ready_at}, not "
                f"after the newest outstanding fill ({inflight[fills[-1]]})"
            )
        inflight[line_addr] = ready_at
        fills.append(line_addr)
        if len(inflight) > self.peak_occupancy:
            self.peak_occupancy = len(inflight)
