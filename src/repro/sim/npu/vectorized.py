"""Alternative simulation kernels ("engine" axis of the ENGINES registry).

The per-mode classes in :mod:`~repro.sim.npu.executor` are the default
kernels. Each reaches the memory hierarchy on one of two walks, picked
once per run: one request vector per instruction when no prefetcher
snoops demand lines, one ``demand_line`` call per line when one does.
The classes here simulate the **same modes with the same observable
behaviour** (bit-identical :class:`~repro.sim.stats.RunStats` and cycle
counts) but fix the walk, so each cross-checks one of the default's two.

Three registry entries are added here, all *kernel dispatchers* rather
than modes (marked with ``needs_mode = True`` so
:func:`~repro.sim.npu.executor.build_engine` passes the real mode through):

* ``"reference"`` — resolves to the per-mode class itself. Selecting it is
  exactly the same as selecting no engine; it exists so a sweep can name
  both sides of an equivalence comparison.
* ``"vectorized"`` — the per-line walk for every run, with per-line
  addresses and issue cycles precomputed as numpy arrays. On hook-free
  runs it checks the per-line walk against the default's vectors.
* ``"batched"`` — request vectors for every run, the demand hook
  forwarded into the batch loop. On demand-hooked runs it checks the
  vector walk against the default's per-line walk.

Equivalence is enforced, not assumed: the engine-equivalence test grid
runs every mechanism on every kernel and asserts identical result
payloads, and the spec-key goldens pin that selecting ``"reference"``
(or no engine) leaves cache keys untouched.
"""

from __future__ import annotations

import numpy as np

from ...errors import ConfigError
from ..request import HitLevel
from .executor import (
    ENGINES,
    ExplicitPreloadEngine,
    IdealOoOEngine,
    InOrderEngine,
)
from .isa import VectorGather, VectorLoad

#: Kernel-implementation names accepted by ``SystemSpec.engine`` /
#: ``RunSpec(engine=...)``. "reference" is canonicalised away (it is the
#: default), so only "vectorized"/"batched" ever reach a serialised spec.
ENGINE_NAMES: tuple[str, ...] = ("reference", "vectorized", "batched")


@ENGINES.register("reference")
def reference_kernel(mode, program, mem, prefetcher, sparse_unit, stats, config):
    """Dispatch to the per-mode reference class (the no-engine default)."""
    cls = ENGINES.get(mode)
    if getattr(cls, "needs_mode", False):
        raise ConfigError(f"{mode!r} is a kernel implementation, not a mode")
    return cls(program, mem, prefetcher, sparse_unit, stats, config)


reference_kernel.needs_mode = True


class _VectorizedIssueMixin:
    """numpy-batched issue helpers shared by the vectorized mode classes.

    The address streams and issue schedule of a vector instruction are
    pure functions of the instruction — only the memory system's response
    is stateful. So: compute addresses, issue cycles and first-line flags
    as arrays up front, then run one flat loop that does nothing but
    demand the lines in order.
    """

    def _issue_load(self, now: int, load: VectorLoad) -> int:
        lines = load.line_addrs(self._line_bytes)
        n = len(lines)
        if n == 0:
            return now
        width = self._issue_width
        if self._fast_perfect:
            return now + (n - 1) // width + self._reg_hit
        ats = (now + np.arange(n, dtype=np.int64) // width).tolist()
        demand_line = self._demand_line
        hook = self._pf_hook
        sid = load.stream_id
        done = now
        for la, at in zip(lines.tolist(), ats):
            res = demand_line(at, la, False)
            if hook is not None:
                hook(at, sid, la, None, res)
            if res.complete_at > done:
                done = res.complete_at
        return done

    def _issue_gather(self, now: int, gather: VectorGather) -> int:
        width = self._vec_width
        batch_stats = self.stats.batch
        firsts, counts = gather.line_spans(self._line_bytes)
        n_elems = len(firsts)
        if self._fast_perfect:
            batch_stats.elements += n_elems
            batch_stats.batches += (n_elems + width - 1) // width
            total = int(counts.sum())
            if total == 0:
                return now
            return now + (total - 1) // self._issue_width + self._irr_hit
        if n_elems == 0:
            return now
        total = int(counts.sum())
        # Flat per-line arrays: owning element, position within the
        # element's segment, line address, issue cycle.
        elem_of = np.repeat(np.arange(n_elems, dtype=np.int64), counts)
        ramp = np.arange(total, dtype=np.int64) - np.repeat(
            np.cumsum(counts) - counts, counts
        )
        lines = (np.repeat(firsts, counts) + ramp * self._line_bytes).tolist()
        ats = (now + np.arange(total, dtype=np.int64) // self._issue_width).tolist()
        first_line = (ramp == 0).tolist()
        elem_of_l = elem_of.tolist()
        idx_l = np.asarray(gather.index_values).tolist()
        demand_line = self._demand_line
        hook = self._pf_hook
        sid = gather.stream_id
        done = now
        missed = bytearray(n_elems)
        for k in range(total):
            at = ats[k]
            la = lines[k]
            res = demand_line(at, la, True)
            if hook is not None:
                # Index/address pairs are architecturally visible only for
                # the first line of a segment (the computed address).
                hook(
                    at,
                    sid,
                    la,
                    idx_l[elem_of_l[k]] if first_line[k] else None,
                    res,
                )
            if res.hit_level == HitLevel.DRAM:
                missed[elem_of_l[k]] = 1
            if res.complete_at > done:
                done = res.complete_at
        batch_stats.elements += n_elems
        batch_stats.batches += (n_elems + width - 1) // width
        n_missed = sum(missed)
        if n_missed:
            batch_stats.element_misses += n_missed
            for b0 in range(0, n_elems, width):
                if any(missed[b0 : b0 + width]):
                    batch_stats.batch_misses += 1
        return done


class VectorizedInOrderEngine(_VectorizedIssueMixin, InOrderEngine):
    """``inorder`` timing model on the vectorized issue kernels."""


class VectorizedOoOEngine(_VectorizedIssueMixin, IdealOoOEngine):
    """``ooo`` timing model on the vectorized issue kernels."""


class VectorizedPreloadEngine(_VectorizedIssueMixin, ExplicitPreloadEngine):
    """``preload`` timing model on the vectorized issue kernels."""


_VECTORIZED_KERNELS = {
    "inorder": VectorizedInOrderEngine,
    "ooo": VectorizedOoOEngine,
    "preload": VectorizedPreloadEngine,
}


@ENGINES.register("vectorized")
def vectorized_kernel(mode, program, mem, prefetcher, sparse_unit, stats, config):
    """Dispatch to the numpy-batched kernel for ``mode``."""
    try:
        cls = _VECTORIZED_KERNELS[mode]
    except KeyError:
        raise ConfigError(
            f"no vectorized kernel for executor mode {mode!r} "
            f"(have: {', '.join(_VECTORIZED_KERNELS)})"
        ) from None
    return cls(program, mem, prefetcher, sparse_unit, stats, config)


vectorized_kernel.needs_mode = True


class _BatchedIssueMixin:
    """Request vectors for every run, demand-hooked ones included.

    The default kernels already issue hook-free runs as request vectors
    through :meth:`~repro.sim.memory.hierarchy.MemorySystem.demand_lines`
    and keep the per-line walk for prefetchers with a demand hook
    (stream/IMP/DVR). The batched kernels take the vector path for those
    too, forwarding the hook into the batch loop, so mid-batch prefetches
    mutate the caches exactly as the per-line interleaving does. That
    makes them the cross-check of the vector walk on hooked runs.
    """

    def __init__(self, program, mem, prefetcher, sparse_unit, stats, config):
        super().__init__(program, mem, prefetcher, sparse_unit, stats, config)
        self._demand_batch = getattr(mem, "demand_lines", None)


class BatchedInOrderEngine(_BatchedIssueMixin, InOrderEngine):
    """``inorder`` timing model on the batched hierarchy kernels."""


class BatchedOoOEngine(_BatchedIssueMixin, IdealOoOEngine):
    """``ooo`` timing model on the batched hierarchy kernels."""


class BatchedPreloadEngine(_BatchedIssueMixin, ExplicitPreloadEngine):
    """``preload`` timing model on the batched hierarchy kernels."""


_BATCHED_KERNELS = {
    "inorder": BatchedInOrderEngine,
    "ooo": BatchedOoOEngine,
    "preload": BatchedPreloadEngine,
}


@ENGINES.register("batched")
def batched_kernel(mode, program, mem, prefetcher, sparse_unit, stats, config):
    """Dispatch to the batched-hierarchy kernel for ``mode``."""
    try:
        cls = _BATCHED_KERNELS[mode]
    except KeyError:
        raise ConfigError(
            f"no batched kernel for executor mode {mode!r} "
            f"(have: {', '.join(_BATCHED_KERNELS)})"
        ) from None
    return cls(program, mem, prefetcher, sparse_unit, stats, config)


batched_kernel.needs_mode = True
