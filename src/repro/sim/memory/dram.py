"""Main-memory (DRAM) channel model: fixed latency plus a serialising
data bus with finite bandwidth.

Two requests issued together overlap their access latencies but their data
transfers queue on the bus — the standard first-order model that makes
memory-level parallelism (many outstanding misses) pay off while still
charging every transferred byte. Off-chip traffic volume, the quantity
behind Figs. 6c and 7, falls out of the same accounting.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

from ...errors import ConfigError


@dataclass
class DRAMConfig:
    """DRAM channel timing.

    Attributes:
        latency: cycles from request to first beat of data (row activation,
            CAS, controller overheads folded together).
        bytes_per_cycle: sustained bus bandwidth.
        prefetch_penalty: extra issue delay for prefetch requests, modelling
            their lower arbitration priority against demand traffic.
    """

    latency: int = 160
    bytes_per_cycle: int = 32
    prefetch_penalty: int = 4

    def __post_init__(self) -> None:
        if self.latency < 1:
            raise ConfigError(f"DRAM latency must be >= 1, got {self.latency}")
        if self.bytes_per_cycle < 1:
            raise ConfigError(
                f"DRAM bytes_per_cycle must be >= 1, got {self.bytes_per_cycle}"
            )
        if self.prefetch_penalty < 0:
            raise ConfigError("DRAM prefetch_penalty must be >= 0")


class DRAM:
    """Single queued channel with busy-cycle accounting."""

    def __init__(self, config: DRAMConfig) -> None:
        self.config = config
        # The cycle at which the bus is next free: a one-slot int64 cell
        # the compiled kernels share (see hot_state).
        self._bus = array("q", (0,))
        self.busy_cycles = 0
        self.transfers = 0
        self.bytes_transferred = 0
        # Hot-path bindings: one access per DRAM transfer, hundreds of
        # thousands per sweep.
        self._latency = config.latency
        self._bpc = config.bytes_per_cycle
        self._pf_penalty = config.prefetch_penalty

    @property
    def bus_free_at(self) -> int:
        """The cycle at which the bus is next free (read-only)."""
        return self._bus[0]

    def hot_state(self) -> array:
        """The bus cell the compiled kernels (``_kernels.c``) share.

        An ``array('q')`` of one slot: the cycle at which the bus is next
        free. Every transfer, from Python (:meth:`access`) or from the
        kernels, reads it and moves it to the end of its own bus slot, so
        the two interleave without handing the value back and forth. The
        cell is never reassigned or resized: the kernels' context exports
        it once (``MemorySystem.__init__``).
        """
        return self._bus

    def service_cycles(self, n_bytes: int) -> int:
        """Bus occupancy for one transfer of ``n_bytes``."""
        return max(1, -(-n_bytes // self._bpc))

    def access(self, now: int, n_bytes: int, is_prefetch: bool = False) -> int:
        """Issue one transfer; returns the completion cycle.

        The bus serialises transfers: a request finding the bus busy waits
        for it. Latency overlaps across requests (the channel pipeline),
        which is what rewards MSHR-driven parallelism.
        """
        issue = now + self._pf_penalty if is_prefetch else now
        service = -(-n_bytes // self._bpc)
        if service < 1:
            service = 1
        bus = self._bus
        busy = bus[0]
        start = issue if issue > busy else busy
        bus[0] = start + service
        self.busy_cycles += service
        self.transfers += 1
        self.bytes_transferred += n_bytes
        return start + self._latency + service
