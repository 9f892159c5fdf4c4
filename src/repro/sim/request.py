"""Memory access descriptors shared across the simulator.

An :class:`Access` is one cache-line-granular request travelling through the
hierarchy. Demand accesses come from NPU vector-load micro-ops; prefetch
accesses come from a prefetcher. The distinction matters everywhere:
accuracy/coverage metrics, bandwidth accounting, and MSHR bookkeeping all
separate the two streams.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class AccessType(enum.Enum):
    """Origin of a memory request."""

    DEMAND = "demand"
    PREFETCH = "prefetch"


class HitLevel(enum.Enum):
    """Where in the hierarchy a request was satisfied.

    ``NSB`` is the optional in-NPU speculative buffer; ``INFLIGHT`` means the
    request coalesced onto an already-outstanding fill (an MSHR hit: faster
    than a full miss but slower than a hit — a "late prefetch" when the fill
    was started by a prefetcher).
    """

    NSB = "nsb"
    L2 = "l2"
    INFLIGHT = "inflight"
    DRAM = "dram"


@dataclass(frozen=True, slots=True)
class Access:
    """A single line-granular memory request.

    Attributes:
        line_addr: byte address aligned down to the line size.
        access_type: demand or prefetch.
        stream_id: small integer naming the architectural stream the access
            belongs to (W values, W indices, IA gather, ...). Used by
            pattern-matching prefetchers, mirroring how real prefetchers
            separate streams by PC.
    """

    line_addr: int
    access_type: AccessType
    stream_id: int = 0


@dataclass(slots=True)
class AccessResult:
    """Outcome of sending one :class:`Access` through the hierarchy.

    Returned by ``demand_access``, the method-based reference walk that
    the tests hold the simulator's fast walks to. The fast walks build no
    result per line: the per-line ``demand_line`` returns the completion
    cycle as an int (``~cycle`` when the line went off-chip) and the
    request-vector ``demand_lines`` one flag per line. Treat instances
    as immutable; nothing may mutate or hash a result.

    Attributes:
        complete_at: cycle at which the requested line is usable.
        hit_level: where the request was satisfied.
        was_prefetched: True when a *demand* access was served (fully or as
            an in-flight coalesce) by a line a prefetcher brought in — the
            raw event behind coverage.
        off_chip: True when this request itself caused a DRAM transfer.
    """

    complete_at: int
    hit_level: HitLevel
    was_prefetched: bool = False
    off_chip: bool = False
