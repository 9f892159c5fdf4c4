"""VMIG — the Vectorisation Micro-Instruction Generator (Fig. 3 e, Fig. 4).

Three conceptual stages, executed here as one bundling pass:

* **IRU** (Instruction Reconstruction Unit): collects the element
  prefetch targets produced during runahead — scattered micro-instruction
  fragments — using the SST/IPT context.
* **PIE** (Parallel Inference Engine): the per-element address
  resolutions themselves (performed by the controller through the sparse
  unit or the SCD formula) — VMIG receives resolved byte addresses.
* **VIGU** (Vector Instruction Generation Unit): deduplicates the touched
  cache lines and packs them into native vector-width load operations,
  one issue slot per vector op — the restructured loads of Fig. 4 that
  raise memory-level parallelism without new hardware.

The compression counters (element fragments in, vector ops out) are the
observable the paper's bandwidth-utilisation argument rests on.
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import repeat

import numpy as np

from ..errors import ConfigError


class VMIG:
    """Line dedup + vector packing with issue scheduling."""

    def __init__(self, vector_width: int = 16, line_bytes: int = 64) -> None:
        if vector_width < 1:
            raise ConfigError("vector_width must be >= 1")
        if line_bytes < 1 or line_bytes & (line_bytes - 1):
            raise ConfigError("line_bytes must be a power of two")
        self.vector_width = vector_width
        self.line_bytes = line_bytes
        self.elements_in = 0
        self.lines_deduped = 0
        self.vector_ops_out = 0

    def bundle(
        self,
        byte_addrs: list[int] | np.ndarray,
        seg_bytes: int | list[int] | np.ndarray,
    ) -> list[list[int]]:
        """Pack element segments into vector-width line batches.

        Args:
            byte_addrs: segment start addresses (one per element).
            seg_bytes: bytes per segment — a scalar for fixed-size
                gathers, or one value per element for two-side sparsity's
                data-dependent segment lengths.

        Returns:
            Batches of unique line addresses (plain ints, ready for the
            prefetch port's batch interface), each at most
            ``vector_width`` long, in first-touch order. Batch ``i`` is
            intended to issue at cycle offset ``i`` (fully pipelined,
            Fig. 4).
        """
        n = len(byte_addrs)
        if n == 0:
            return []
        if np.isscalar(seg_bytes) or isinstance(seg_bytes, int):
            seg = int(seg_bytes)
            if seg < 1:
                raise ConfigError("seg_bytes must be >= 1")
            segs: Iterable[int] = repeat(seg, n)
        else:
            if len(seg_bytes) != n:
                raise ConfigError("per-element seg_bytes length mismatch")
            segs = [int(s) for s in seg_bytes]
            if min(segs) < 1:
                raise ConfigError("seg_bytes must be >= 1")
        if isinstance(byte_addrs, np.ndarray):
            byte_addrs = byte_addrs.tolist()
        self.elements_in += n
        lb = self.line_bytes
        # Flattened line stream (element order, then offset within
        # segment), deduplicated preserving first touch. Plain Python: a
        # bundle covers one runahead window (tens of elements), far
        # below numpy's array-dispatch break-even.
        touched = [
            la
            for a, seg in zip(byte_addrs, segs)
            for la in range(a - a % lb, a + seg, lb)
        ]
        lines = list(dict.fromkeys(touched))
        self.lines_deduped += len(lines)
        batches = [
            lines[i : i + self.vector_width]
            for i in range(0, len(lines), self.vector_width)
        ]
        self.vector_ops_out += len(batches)
        return batches

    @property
    def compression_ratio(self) -> float:
        """Element fragments per emitted vector op (>1 means real packing)."""
        if self.vector_ops_out == 0:
            return 0.0
        return self.elements_in / self.vector_ops_out
