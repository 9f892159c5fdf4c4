"""Cycle-approximate NPU platform simulator (the paper's substrate).

Sub-packages:

* :mod:`repro.sim.memory` — MSHR-based non-blocking caches, DRAM channel,
  scratchpad and the composed memory hierarchy.
* :mod:`repro.sim.npu` — coarse-grained NPU ISA, sparse operators unit,
  systolic compute-time model and the in-order / ideal-OoO executors.
* :mod:`repro.sim.soc` — the composed system and its ``run`` entry point.

The scalar CPU appears only as background traffic on the shared L2
(:class:`~repro.sim.memory.hierarchy.CPUTrafficConfig`). Its loop
branches, which the paper's LBD snoops for static loop bounds, are not
modelled: the LBD learns bounds only from the sparse-unit window, so no
mechanism consumes CPU branch events. Table I
(:mod:`repro.core.overhead`) still budgets the paper's full SD, LBD and
SCD tables.
"""

from .request import Access, AccessResult, AccessType, HitLevel
from .stats import RunStats

__all__ = [
    "Access",
    "AccessResult",
    "AccessType",
    "HitLevel",
    "RunStats",
]
