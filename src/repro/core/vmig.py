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

import math
from collections.abc import Iterable, Sequence
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

    def window(self, start: int, n_bytes: int) -> list[range]:
        """Pack one segment (a W-stream window) into line batches.

        :meth:`bundle` of ``[start]`` with ``n_bytes`` per segment: one
        segment touches each of its lines once, so the batches are
        vector-width chunks of its line range.
        """
        lb = self.line_bytes
        lines = range(start - start % lb, start + n_bytes, lb)
        return self._chunk(1, lines)

    def bundle(
        self,
        byte_addrs: list[int] | np.ndarray,
        seg_bytes: int | list[int] | np.ndarray,
    ) -> list[Sequence[int]]:
        """Pack element segments into vector-width line batches.

        Args:
            byte_addrs: segment start addresses (one per element).
            seg_bytes: bytes per segment — a scalar for fixed-size
                gathers, or one value per element for two-side sparsity's
                data-dependent segment lengths.

        Returns:
            Batches of unique line addresses (plain ints), each at most
            ``vector_width`` long, in first-touch order: the bursts of
            :meth:`~repro.prefetch.base.PrefetchPort.prefetch_bursts`,
            batch ``i`` issuing at cycle offset ``i`` (fully pipelined,
            Fig. 4). A single segment's batches are ranges.
        """
        n = len(byte_addrs)
        if n == 0:
            return []
        if isinstance(byte_addrs, np.ndarray):
            byte_addrs = byte_addrs.tolist()
        lb = self.line_bytes
        if isinstance(seg_bytes, int) or np.isscalar(seg_bytes):
            seg = int(seg_bytes)
            if seg < 1:
                raise ConfigError("seg_bytes must be >= 1")
            if n == 1:
                return self.window(byte_addrs[0], seg)
            # Equal starts of fixed-size segments touch equal lines, so
            # deduplicating the starts first drops only repeats.
            starts = list(dict.fromkeys(byte_addrs))
            first = starts[0]
            span = math.lcm(lb, seg)
            if first % lb or len({a % span for a in starts}) > 1:
                lines = self._first_touch(starts, repeat(seg))
            else:
                # Line-aligned starts a whole number of segments apart: no
                # two segments share a line, so each contributes its own
                # run of ``per`` lines, in element order, undeduplicated.
                per = -(-seg // lb)
                lines = starts * per
                lines[::per] = starts
                for k in range(1, per):
                    lines[k::per] = [a + k * lb for a in starts]
            return self._chunk(n, lines)
        if len(seg_bytes) != n:
            raise ConfigError("per-element seg_bytes length mismatch")
        segs = [int(s) for s in seg_bytes]
        if min(segs) < 1:
            raise ConfigError("seg_bytes must be >= 1")
        if n == 1:
            return self.window(byte_addrs[0], segs[0])
        return self._chunk(n, self._first_touch(byte_addrs, segs))

    def _first_touch(self, starts: list[int], segs: Iterable[int]) -> list[int]:
        """The segments' lines in element order, deduplicated preserving
        first touch. Plain Python: a bundle covers one runahead window
        (tens of elements), far below numpy's array-dispatch break-even."""
        lb = self.line_bytes
        touched = (
            la for a, seg in zip(starts, segs) for la in range(a - a % lb, a + seg, lb)
        )
        return list(dict.fromkeys(touched))

    def _chunk(self, n_elems: int, lines: Sequence[int]) -> list[Sequence[int]]:
        """Cut the line stream into vector-width batches and count them."""
        vw = self.vector_width
        batches = [lines[i : i + vw] for i in range(0, len(lines), vw)]
        self.elements_in += n_elems
        self.lines_deduped += len(lines)
        self.vector_ops_out += len(batches)
        return batches

    @property
    def compression_ratio(self) -> float:
        """Element fragments per emitted vector op (>1 means real packing)."""
        if self.vector_ops_out == 0:
            return 0.0
        return self.elements_in / self.vector_ops_out
