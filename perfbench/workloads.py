"""The benchmark's inputs, made from its seed, and its output checks.

Every workload is a list of :class:`~repro.runner.RunSpec` points. The
benchmark seed shuffles their submission order, which changes the order
of program builds, cache writes and queue units but not the simulated
work. The workload generator seed stays at the paper's 0
(:data:`GENERATOR_SEED`): the amount of simulated work differs by up to
a quarter from one generator seed to the next, which would swamp any
bound a timing could be held to.

The output check hashes the canonical JSON of every unique point's
``result_to_payload`` (``trace_to_payload`` for trace points). Results
are a pure function of the spec, so a digest is comparable across
processes, backends and machines.
"""

from __future__ import annotations

import hashlib
import json
import random

from repro.analysis.paperfigs import figures_plan
from repro.runner.cache import result_to_payload, trace_to_payload
from repro.runner.plan import RunSpec
from repro.session import Grid
from repro.workloads.base import TraceStats
from repro.workloads.registry import WORKLOAD_BUILDERS

WORKLOADS = ("figures", "paper-scale", "serve")

FIGURES_SCALE = 0.1
PAPER_SCALE_GRID = {
    "workload": ("gcn", "mk", "ds", "st"),
    "mechanism": ("inorder", "stream", "nvr"),
    "nsb": (False, True),
    "scale": 1.0,
}
SERVE_GRID = {
    "workload": tuple(sorted(WORKLOAD_BUILDERS)),
    "mechanism": ("inorder", "stream", "imp", "dvr", "nvr"),
    "nsb": (False, True),
    "scale": 0.02,
}

#: Points per claimable unit in every queue phase.
QUEUE_BATCH = 8


#: Workload generator seed of every point (the paper figures' default).
GENERATOR_SEED = 0


def specs_for(workload: str, seed: int) -> list:
    """The points a workload sweeps, in the seed's submission order."""
    if workload == "figures":
        specs = list(figures_plan(scale=FIGURES_SCALE, seed=GENERATOR_SEED).specs)
    elif workload == "paper-scale":
        specs = Grid(**PAPER_SCALE_GRID, seed=GENERATOR_SEED).specs()
    elif workload == "serve":
        specs = Grid(**SERVE_GRID, seed=GENERATOR_SEED).specs()
    else:
        raise ValueError(f"unknown workload {workload!r}")
    random.Random(seed).shuffle(specs)
    return specs


def unique(specs) -> list:
    """Specs deduplicated by content key, first occurrence kept."""
    seen: dict = {}
    for spec in specs:
        seen.setdefault(spec.key(), spec)
    return list(seen.values())


def queue_specs(workload: str, specs) -> list:
    """The points a workload sends through the off-process queue.

    ``serve`` sends all of them. The in-process workloads send a fixed
    slice of their unique simulation points (every 8th in key order for
    ``figures``, every 4th for ``paper-scale``), so ``queue_b8_s`` measures the
    queue at each workload's point cost without redoing the whole sweep.
    """
    if workload == "serve":
        return list(specs)
    sims = sorted((spec for spec in unique(specs) if spec.kind == "sim"), key=RunSpec.key)
    step = 8 if workload == "figures" else 4
    # The slice comes from key order, so every seed queues the same
    # points; they keep the seed's submission order.
    chosen = {spec.key() for spec in sims[::step]}
    return [spec for spec in unique(specs) if spec.key() in chosen]


def warm_specs(workload: str, specs) -> list:
    """The points a workload's warm phase re-sweeps.

    ``figures`` and ``serve`` resubmit everything (answered from the
    cache). ``paper-scale`` is uncached, so its warm phase re-sweeps its
    in-order points in the same process with their programs memoised:
    pure simulation that elides every prefetcher hook, the control that
    a prefetcher-hook optimisation must leave flat.
    """
    if workload == "paper-scale":
        return [spec for spec in specs if spec.mechanism == "inorder"]
    return list(specs)


def payload_of(result) -> dict:
    if isinstance(result, TraceStats):
        return trace_to_payload(result)
    return result_to_payload(result)


def canonical(document) -> str:
    return json.dumps(document, sort_keys=True, separators=(",", ":"), allow_nan=False)


def point_digests(specs, results) -> dict[str, str]:
    """spec key -> sha256 of the point's canonical payload JSON."""
    return {
        spec.key(): hashlib.sha256(canonical(payload_of(result)).encode()).hexdigest()
        for spec, result in zip(specs, results)
    }


def plan_digest(digests: dict[str, str]) -> str:
    """One digest over every unique point, independent of plan order."""
    joined = "".join(f"{key} {digests[key]}\n" for key in sorted(digests))
    return hashlib.sha256(joined.encode()).hexdigest()


def mismatches(expected: dict[str, str], got: dict[str, str]) -> int:
    """Points of ``got`` whose digest differs from (or is absent in) ``expected``."""
    return sum(1 for key, value in got.items() if expected.get(key) != value)


def counters(specs, results) -> dict[str, int]:
    """Deterministic simulated-work counters over the unique sim points."""
    total = {
        "points": 0,
        "cycles": 0,
        "l2_misses": 0,
        "nsb_hits": 0,
        "prefetch_issued": 0,
        "prefetch_useful": 0,
        "runahead_invocations": 0,
        "runahead_denied_busy": 0,
    }
    seen = set()
    for spec, result in zip(specs, results):
        if spec.key() in seen:
            continue
        seen.add(spec.key())
        total["points"] += 1
        if isinstance(result, TraceStats):
            continue
        stats = result.stats
        total["cycles"] += result.total_cycles
        total["l2_misses"] += stats.l2.demand_misses
        total["nsb_hits"] += stats.nsb.demand_hits
        total["prefetch_issued"] += stats.prefetch.issued
        total["prefetch_useful"] += stats.prefetch.useful
        total["runahead_invocations"] += stats.runahead_invocations
        total["runahead_denied_busy"] += stats.runahead_denied_busy
    return total
