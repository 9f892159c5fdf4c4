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

from array import array

from ...errors import ConfigError


class MSHRFile:
    """Bounded FIFO of outstanding line fills with coalescing.

    The fills live in an int64 ring (see :meth:`hot_state`): slot
    ``(head + i) % capacity`` holds the ``i``-th oldest outstanding
    fill's line and ready cycle, for ``i`` below ``count``.

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
        # Exact-size buffers (see Cache.__init__).
        self._lines = array("q", (0,)) * capacity
        self._readys = array("q", (0,)) * capacity
        self._ring = array("q", (0, 0))  # head slot, outstanding count
        self.peak_occupancy = 0
        self.coalesced = 0
        self.structural_stalls = 0

    def _retire_completed(self, now: int) -> None:
        ring = self._ring
        head, count = ring
        readys = self._readys
        while count and readys[head] <= now:
            head = (head + 1) % self.capacity
            count -= 1
        ring[0] = head
        ring[1] = count

    def _slot(self, line_addr: int) -> int:
        """The ring slot of ``line_addr``'s outstanding fill, or -1."""
        head, count = self._ring
        lines = self._lines
        capacity = self.capacity
        for i in range(head, head + count):
            slot = i % capacity
            if lines[slot] == line_addr:
                return slot
        return -1

    def occupancy(self, now: int) -> int:
        """Number of fills still outstanding at ``now``."""
        self._retire_completed(now)
        return self._ring[1]

    def lookup(self, now: int, line_addr: int) -> int | None:
        """Return the ready-time of an in-flight fill for ``line_addr``.

        Returns None when no fill for that line is outstanding. A non-None
        result is a coalesce: the caller's request piggybacks on the
        existing fill.
        """
        self._retire_completed(now)
        slot = self._slot(line_addr)
        if slot < 0:
            return None
        self.coalesced += 1
        return self._readys[slot]

    def earliest_free_slot(self, now: int) -> int:
        """Earliest cycle at which a new entry can be allocated.

        ``now`` when a slot is free; otherwise the ready-time of the
        oldest outstanding fill (we must wait for it to retire).
        """
        self._retire_completed(now)
        head, count = self._ring
        if count < self.capacity:
            return now
        self.structural_stalls += 1
        return self._readys[head]

    def hot_state(self) -> tuple[array, array, array, int]:
        """The storage the compiled kernels (``_kernels.c``) work on.

        Returns ``(lines, readys, ring, capacity)``: ``lines`` and
        ``readys`` are ``array('q')`` buffers of ``capacity`` slots, and
        ``ring`` is ``array('q', (head, count))``. The outstanding fills
        are the ``count`` slots from ``head`` on, wrapping at
        ``capacity``, in allocation order, which is also completion
        order. Writers keep ``0 <= head < capacity`` and
        ``0 <= count <= capacity``: retire by advancing ``head`` while
        the oldest fill's ready cycle is at or before the request's
        cycle; when the file is still full, wait for (and retire) the
        oldest fill; write every new fill in the slot after the newest.
        Python writers keep ``structural_stalls``, ``peak_occupancy`` and
        ``coalesced`` maintained through the attributes; the compiled
        kernels count in their own block, which
        ``MemorySystem.finalize`` folds in.

        The buffers are never reassigned or resized: the kernels' context
        exports them once (``MemorySystem.__init__``), and while it lives
        an ``array`` refuses to change size.
        """
        return self._lines, self._readys, self._ring, self.capacity

    def outstanding(self) -> list[tuple[int, int]]:
        """The outstanding ``(line, ready)`` fills, oldest first.

        A read-only copy, for tests and inspection: it retires nothing.
        """
        head, count = self._ring
        capacity = self.capacity
        slots = [i % capacity for i in range(head, head + count)]
        return [(self._lines[slot], self._readys[slot]) for slot in slots]

    def allocate(self, now: int, line_addr: int, ready_at: int) -> None:
        """Record a new outstanding fill for ``line_addr``.

        The caller must have consulted :meth:`earliest_free_slot` and used
        a start time at which a slot is available, and must not allocate
        a line that is still in flight (it coalesces instead). The fill
        must complete after every outstanding fill: the FIFO's premise.
        """
        self._retire_completed(now)
        head, count = self._ring
        capacity = self.capacity
        if count >= capacity:
            raise ConfigError(
                "MSHR allocate with full file - call earliest_free_slot first"
            )
        if self._slot(line_addr) >= 0:
            raise ConfigError(f"MSHR double-allocate for line {line_addr:#x}")
        if count:
            newest = self._readys[(head + count - 1) % capacity]
            if ready_at <= newest:
                raise ConfigError(
                    f"MSHR fill for line {line_addr:#x} ready at {ready_at}, "
                    f"not after the newest outstanding fill ({newest})"
                )
        slot = (head + count) % capacity
        self._lines[slot] = line_addr
        self._readys[slot] = ready_at
        count += 1
        self._ring[1] = count
        if count > self.peak_occupancy:
            self.peak_occupancy = count
