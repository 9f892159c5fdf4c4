"""Coarse-grained NPU vector instructions.

The paper's NPU (Gemmini-like) executes *coarse-grained* instructions — one
instruction moves or computes a whole vector/tile — which the front-end
decomposes into micro-instructions spanning several cycles (Sec. III,
"Micro-Instruction-Level Vectorisation"). Here each instruction exposes the
cache lines it touches, and the executor issues a gather as micro-ops of at
most ``vector_width`` elements: the granularity at which VMIG rebundles
prefetches and at which a single missing element stalls the whole batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...errors import ProgramError

# Architectural stream identifiers (the "PC" a hardware prefetcher would
# key its tables on).
STREAM_W_VALUES = 1
STREAM_W_INDICES = 2
STREAM_IA_GATHER = 3
STREAM_IA_GATHER_2 = 4
STREAM_OA_STORE = 5
STREAM_IA_METADATA = 6  # two-side sparsity: IA rowptr/row_indices lookups


def _as_line_array(addrs: np.ndarray, line_bytes: int) -> np.ndarray:
    """Byte addresses -> unique line addresses, preserving first-touch order."""
    lines = (np.asarray(addrs, dtype=np.int64) // line_bytes) * line_bytes
    _, first = np.unique(lines, return_index=True)
    return lines[np.sort(first)]


@dataclass(frozen=True)
class VectorLoad:
    """Streaming vector load (W values + W indices): sequential addresses."""

    stream_id: int
    byte_addrs: np.ndarray  # element start addresses
    elem_bytes: int

    def _compute_line_addrs(self, line_bytes: int) -> np.ndarray:
        if len(self.byte_addrs) == 0:
            return np.zeros(0, dtype=np.int64)
        # Each element spans [addr, addr+elem_bytes); widen to line coverage.
        starts = np.asarray(self.byte_addrs, dtype=np.int64)
        eb = self.elem_bytes
        if bool((starts[1:] == starts[:-1] + eb).all()):
            # Contiguous ascending stream (the common W layout): the
            # touched lines are exactly the closed range of lines covering
            # [starts[0], starts[-1]+eb), already in first-touch order.
            first = (int(starts[0]) // line_bytes) * line_bytes
            last = ((int(starts[-1]) + eb - 1) // line_bytes) * line_bytes
            return np.arange(first, last + 1, line_bytes, dtype=np.int64)
        ends = starts + eb - 1
        return _as_line_array(np.concatenate([starts, ends]), line_bytes)

    def line_addr_list(self, line_bytes: int) -> list[int]:
        """Unique cache lines this load touches, in first-touch order.

        Cached per line size as plain ints (executor hot path):
        instructions are immutable and walked several times per program
        (real + base run, prefetch snoops), so the address math runs
        once. Engines fill this cache for a whole program at once
        (:meth:`~.program.SparseProgram.prepare_line_lists`); a miss fills
        it for this load alone, through the same :func:`fill_line_lists`.
        """
        key = ("list", line_bytes)
        cache = self.__dict__.get("_la_cache")
        if cache is None or key not in cache:
            fill_line_lists([self], [], line_bytes)
            cache = self.__dict__["_la_cache"]
        return cache[key]


@dataclass(frozen=True)
class VectorGather:
    """Indirect vector gather: one segment per index.

    One-side sparsity gathers fixed-size segments (``seg_bytes``);
    two-side sparsity gathers *data-dependent* lengths (the compressed
    IA row's extent), carried per element in ``seg_bytes_per_elem``.
    """

    stream_id: int
    index_values: np.ndarray  # the idx driving each segment
    byte_addrs: np.ndarray  # segment start address per index
    seg_bytes: int
    affine: bool  # True when addr = base + idx * row_bytes (no sparse_func)
    seg_bytes_per_elem: np.ndarray | None = None

    def __post_init__(self) -> None:
        if len(self.index_values) != len(self.byte_addrs):
            raise ProgramError("gather index/address length mismatch")
        if self.seg_bytes_per_elem is not None and len(
            self.seg_bytes_per_elem
        ) != len(self.byte_addrs):
            raise ProgramError("per-element segment length mismatch")

    def segment_bytes(self, position: int) -> int:
        """Segment size for the element at ``position``."""
        if self.seg_bytes_per_elem is not None:
            return int(self.seg_bytes_per_elem[position])
        return self.seg_bytes

    def line_spans(self, line_bytes: int) -> tuple[np.ndarray, np.ndarray]:
        """Vectorised line coverage: per-element (first line, line count).

        Element ``i`` touches the contiguous lines ``firsts[i] + k *
        line_bytes`` for ``k in range(counts[i])`` — the same addresses
        :meth:`element_lines` materialises, without building one array
        per element (the executors walk millions of segments per sweep).
        Cached per line size (instructions are immutable).
        """
        cache = self.__dict__.get("_ls_cache")
        if cache is None:
            cache = {}
            object.__setattr__(self, "_ls_cache", cache)
        spans = cache.get(line_bytes)
        if spans is None:
            spans = self._compute_line_spans(line_bytes)
            cache[line_bytes] = spans
        return spans

    def _compute_line_spans(
        self, line_bytes: int
    ) -> tuple[np.ndarray, np.ndarray]:
        addrs = np.asarray(self.byte_addrs, dtype=np.int64)
        if self.seg_bytes_per_elem is not None:
            segs = np.maximum(
                np.asarray(self.seg_bytes_per_elem, dtype=np.int64), 1
            )
        else:
            segs = np.full(len(addrs), max(1, self.seg_bytes), dtype=np.int64)
        firsts = (addrs // line_bytes) * line_bytes
        lasts = ((addrs + segs - 1) // line_bytes) * line_bytes
        counts = (lasts - firsts) // line_bytes + 1
        return firsts, counts

    def line_span_lists(
        self, line_bytes: int
    ) -> tuple[list[int], list[int], list[int], int]:
        """Cached Python form of :meth:`line_spans` for the engine hot path.

        Returns ``(firsts, counts, index_values, total_lines)`` as plain
        lists/int so the issue loop touches no numpy scalars. Engines
        fill this cache for a whole program at once; a miss fills it for
        this gather alone, through the same :func:`fill_line_lists`.
        """
        key = ("list", line_bytes)
        cache = self.__dict__.get("_ls_cache")
        if cache is None or key not in cache:
            fill_line_lists([], [self], line_bytes)
            cache = self.__dict__["_ls_cache"]
        return cache[key]

    def granule_blocks(self, granule: int) -> set[int]:
        """Distinct ``granule``-sized block indices the segments touch.

        The explicit-preload engine DMAs every touched block whole — the
        over-fetch the paper charges that mechanism with. Cached per
        granule (instructions are immutable). Note: unlike line coverage,
        segment bytes are *not* clamped to 1 here, matching the DMA
        planner's arithmetic exactly.
        """
        cache = self.__dict__.get("_gb_cache")
        if cache is None:
            cache = {}
            object.__setattr__(self, "_gb_cache", cache)
        blocks = cache.get(granule)
        if blocks is None:
            addrs = np.asarray(self.byte_addrs, dtype=np.int64)
            if self.seg_bytes_per_elem is not None:
                segs = np.asarray(self.seg_bytes_per_elem, dtype=np.int64)
            else:
                segs = np.full(len(addrs), self.seg_bytes, dtype=np.int64)
            firsts = addrs // granule
            lasts = (addrs + segs - 1) // granule
            spanning = lasts > firsts
            blocks = set(firsts[lasts == firsts].tolist())
            for f, l in zip(firsts[spanning].tolist(), lasts[spanning].tolist()):
                blocks.update(range(f, l + 1))
            cache[granule] = blocks
        return blocks

    def element_lines(self, line_bytes: int) -> list[np.ndarray]:
        """Per-element line address arrays (segments may span lines)."""
        firsts, counts = self.line_spans(line_bytes)
        return [
            np.arange(first, first + count * line_bytes, line_bytes, dtype=np.int64)
            for first, count in zip(firsts.tolist(), counts.tolist())
        ]

    def line_addrs(self, line_bytes: int) -> np.ndarray:
        """Unique lines across all segments, first-touch order."""
        if len(self.byte_addrs) == 0:
            return np.zeros(0, dtype=np.int64)
        per_elem = self.element_lines(line_bytes)
        return _as_line_array(np.concatenate(per_elem), line_bytes)


def fill_line_lists(
    loads: list[VectorLoad], gathers: list[VectorGather], line_bytes: int
) -> None:
    """Fill the line-list caches of many instructions in one numpy pass.

    The one builder of :meth:`VectorLoad.line_addr_list` and
    :meth:`VectorGather.line_span_lists`: the address math runs once over
    the concatenated addresses instead of once per instruction. It
    stores exactly the lists of ``_compute_line_addrs`` and
    ``_compute_line_spans``, the per-instruction reference it is tested
    against.
    """
    lb = line_bytes
    key = ("list", lb)
    if loads:
        lengths = np.fromiter(
            (len(load.byte_addrs) for load in loads), np.int64, len(loads)
        )
        ends = np.cumsum(lengths)
        starts = np.asarray(
            np.concatenate([load.byte_addrs for load in loads]), dtype=np.int64
        )
        eb = np.array([load.elem_bytes for load in loads], dtype=np.int64)
        if len(starts):
            # A load is a contiguous ascending stream when every step
            # between its elements is its element size; such a load
            # touches the closed range of lines from its first element's
            # to its last's (the fast case of _compute_line_addrs).
            stepped = starts[1:] != starts[:-1] + np.repeat(eb, lengths)[:-1]
            broken = np.concatenate(([0], np.cumsum(stepped)))
            last = np.maximum(ends - 1, 0)
            first = np.minimum(ends - lengths, len(starts) - 1)
            contiguous = (broken[last] - broken[first] == 0).tolist()
            first_line = (starts[first] // lb * lb).tolist()
            last_line = ((starts[last] + eb - 1) // lb * lb).tolist()
        else:  # every load is empty
            contiguous = first_line = last_line = []
        for i, (load, n) in enumerate(zip(loads, lengths.tolist())):
            if n == 0:
                lines: list[int] = []
            elif contiguous[i]:
                lines = list(range(first_line[i], last_line[i] + 1, lb))
            else:
                lines = load._compute_line_addrs(lb).tolist()
            load.__dict__.setdefault("_la_cache", {})[key] = lines
    if gathers:
        lengths = np.fromiter(
            (len(gather.byte_addrs) for gather in gathers), np.int64, len(gathers)
        )
        ends = np.cumsum(lengths)
        offsets = ends - lengths
        addrs = np.asarray(
            np.concatenate([gather.byte_addrs for gather in gathers]), dtype=np.int64
        )
        segs = np.repeat(
            np.array([gather.seg_bytes for gather in gathers], dtype=np.int64),
            lengths,
        )
        for gather, o, n in zip(gathers, offsets.tolist(), lengths.tolist()):
            if gather.seg_bytes_per_elem is not None:
                segs[o : o + n] = gather.seg_bytes_per_elem
        segs = np.maximum(segs, 1)
        firsts = addrs // lb * lb
        counts = ((addrs + segs - 1) // lb * lb - firsts) // lb + 1
        cum = np.concatenate(([0], np.cumsum(counts)))
        totals = (cum[ends] - cum[offsets]).tolist()
        firsts_l = firsts.tolist()
        counts_l = counts.tolist()
        idx_l = np.concatenate(
            [np.asarray(gather.index_values) for gather in gathers]
        ).tolist()
        for gather, o, e, total in zip(
            gathers, offsets.tolist(), ends.tolist(), totals
        ):
            gather.__dict__.setdefault("_ls_cache", {})[key] = (
                firsts_l[o:e],
                counts_l[o:e],
                idx_l[o:e],
                total,
            )


@dataclass(frozen=True)
class VectorStore:
    """Output store; modelled as write traffic absorbed by a write buffer."""

    stream_id: int
    byte_addrs: np.ndarray
    elem_bytes: int

    def n_bytes(self) -> int:
        return len(self.byte_addrs) * self.elem_bytes


@dataclass(frozen=True)
class TileCompute:
    """Occupies the systolic array (and sparse unit) for a fixed time."""

    cycles: int
    sparse_unit_cycles: int = 0

    def __post_init__(self) -> None:
        if self.cycles < 0 or self.sparse_unit_cycles < 0:
            raise ProgramError("compute cycles must be non-negative")

