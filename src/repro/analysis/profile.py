"""Simulator throughput profiling: ``repro profile``.

The committed performance trajectory (``benchmarks/BENCH_trajectory.json``)
tracks end-to-end plan wall time; this module answers the next question —
*where* the time goes for one point. Each profiled point is split into
its two wall-time phases:

* **build** — lowering the workload to a :class:`SparseProgram` (trace
  generation; shared across mechanisms by the runner's workload memo,
  but charged per point here so the split is visible);
* **simulate** — executing the program on the platform.

Cycle counters come from the run itself, so the derived rates
(``kcycles_per_s``, ``events_per_s``) relate simulated work to wall
time — the simulator's figure of merit. Runs are deliberately uncached
and in-process: profiling must execute, and every point must execute in
the same interpreter to be comparable.

Timing discipline: each phase is repeated ``repeat`` times and the
minimum is reported. On shared machines the minimum estimates the
noise-free cost; means and medians drift with scheduler interference
(the same convention the benchmark trajectory uses).
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass

from ..errors import ConfigError
from ..spec import SystemSpec
from ..workloads import build_workload
from ..workloads.registry import elem_bytes

@dataclass(frozen=True)
class ProfileRecord:
    """Wall-time and cycle accounting for one profiled point.

    The per-level memory breakdown (where demand lines were served and
    how the prefetcher did) is carried alongside the timing, so a
    point's wall time can be read against the memory work behind it.
    """

    workload: str
    mechanism: str
    nsb: bool
    dtype: str
    scale: float
    seed: int
    build_s: float
    simulate_s: float
    total_cycles: int
    demand_accesses: int
    # Per-level demand outcome: lines served by the NSB, by the L2, and
    # lines that had to be filled from DRAM (L2 demand misses).
    nsb_hits: int = 0
    l2_hits: int = 0
    dram_fills: int = 0
    # Prefetch effectiveness at those levels.
    pf_useful: int = 0
    pf_late: int = 0

    @property
    def kcycles_per_s(self) -> float:
        """Simulated kilocycles per wall-second (higher is faster)."""
        if self.simulate_s <= 0:
            return 0.0
        return self.total_cycles / self.simulate_s / 1e3

    @property
    def events_per_s(self) -> float:
        """Demand line events processed per wall-second."""
        if self.simulate_s <= 0:
            return 0.0
        return self.demand_accesses / self.simulate_s

    def to_dict(self) -> dict:
        d = asdict(self)
        d["kcycles_per_s"] = round(self.kcycles_per_s, 1)
        d["events_per_s"] = round(self.events_per_s, 1)
        return d


def _min_wall(fn, repeat: int):
    """Run ``fn`` ``repeat`` times; (min wall seconds, last return)."""
    best = float("inf")
    value = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        value = fn()
        elapsed = time.perf_counter() - t0
        if elapsed < best:
            best = elapsed
    return best, value


def profile_point(
    workload: str,
    mechanism: str = "nvr",
    nsb: bool = False,
    dtype: str = "fp16",
    scale: float = 0.1,
    seed: int = 0,
    repeat: int = 3,
) -> ProfileRecord:
    """Profile one (workload, mechanism) point.

    The build phase is timed on a fresh lowering each repeat; the
    simulate phase rebuilds the platform each repeat (cold caches, cold
    prefetcher state) so repeats are independent and identical.
    """
    if repeat < 1:
        raise ConfigError(f"profile repeat must be >= 1, got {repeat}")
    spec = SystemSpec(mechanism=mechanism, nsb=nsb)
    eb = elem_bytes(dtype)

    build_s, program = _min_wall(
        lambda: build_workload(workload, scale=scale, elem_bytes=eb, seed=seed),
        repeat,
    )
    simulate_s, result = _min_wall(lambda: spec.build(program).run(), repeat)
    stats = result.stats
    return ProfileRecord(
        workload=workload,
        mechanism=mechanism,
        nsb=nsb,
        dtype=dtype,
        scale=scale,
        seed=seed,
        build_s=build_s,
        simulate_s=simulate_s,
        total_cycles=result.total_cycles,
        demand_accesses=(
            stats.l2.demand_accesses + stats.nsb.demand_accesses
        ),
        nsb_hits=stats.nsb.demand_hits,
        l2_hits=stats.l2.demand_hits,
        dram_fills=stats.l2.demand_misses,
        pf_useful=stats.prefetch.useful,
        pf_late=stats.prefetch.late,
    )


def profile_grid(
    workloads,
    mechanisms,
    nsb: bool = False,
    dtype: str = "fp16",
    scale: float = 0.1,
    seed: int = 0,
    repeat: int = 3,
) -> list[ProfileRecord]:
    """Profile the cartesian grid, workload-major like the figures."""
    return [
        profile_point(
            w,
            mechanism=m,
            nsb=nsb,
            dtype=dtype,
            scale=scale,
            seed=seed,
            repeat=repeat,
        )
        for w in workloads
        for m in mechanisms
    ]


def profile_json(records: list[ProfileRecord]) -> str:
    """The ``repro profile --json`` document."""
    return json.dumps(
        {
            "format": 2,
            "records": [record.to_dict() for record in records],
        },
        indent=1,
        sort_keys=True,
    )
