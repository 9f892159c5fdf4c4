"""NSB — the Non-blocking Speculative Buffer (Fig. 3 f, Sec. IV-G).

A compact, high-associativity, MSHR-backed cache inside the NPU that holds
*sparse discrete* data, while continuous data stays in the scratchpad. The
actual cache machinery is :class:`repro.sim.memory.cache.Cache` (shared
with the L2 — the NSB is "a compact non-blocking cache architecture");
this module owns its configuration.

The paper's default: 16 KiB, high-way set-associative (irregular index
spaces make low associativity thrash on conflicts), 2-cycle NPU-local hit
latency, and a deep MSHR file so outstanding speculative fills never block
subsequent prefetch operations.
"""

from __future__ import annotations

from ..errors import ConfigError
from ..sim.memory.cache import CacheConfig
from ..utils import KIB


def nsb_config(
    size_kib: int = 16,
    assoc: int | None = None,
    line_bytes: int = 64,
    hit_latency: int = 2,
    mshr_entries: int = 32,
) -> CacheConfig:
    """Build an NSB cache configuration.

    Args:
        size_kib: capacity in KiB (Fig. 9 sweeps 4..32).
        assoc: ways; defaults to 16 or the full line count for very small
            sizes (the paper's "high-way set-associative mapping strategy").
    """
    if size_kib < 1:
        raise ConfigError("NSB must be at least 1 KiB")
    size_bytes = size_kib * KIB
    n_lines = size_bytes // line_bytes
    if assoc is None:
        assoc = min(16, n_lines)
    # Geometry guard: sets must be a power of two; widen ways if needed.
    while n_lines % assoc or (n_lines // assoc) & (n_lines // assoc - 1):
        assoc += 1
        if assoc > n_lines:
            raise ConfigError(f"cannot shape a {size_kib} KiB NSB")
    return CacheConfig(
        size_bytes=size_bytes,
        assoc=assoc,
        line_bytes=line_bytes,
        hit_latency=hit_latency,
        mshr_entries=mshr_entries,
        name="nsb",
    )
