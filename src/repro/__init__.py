"""NVR: Vector Runahead on NPUs for Sparse Memory Access — reproduction.

A from-scratch, cycle-approximate Python reproduction of the DAC 2025
paper's full system: Gemmini-like NPU simulator, baseline prefetchers
(stream / IMP / DVR), the NVR prefetching micro-architecture, the eight
Table II sparse workloads, and an LLMCompass-like system-level model.

Quickstart::

    from repro import run_workload
    result = run_workload("gcn", mechanism="nvr")
    print(result.total_cycles, result.stats.coverage())

Every run goes through a :class:`Session` (``run_workload`` uses the
process-wide default one), and every sweep is a :class:`Grid`::

    with Session(jobs=4) as session:
        rs = session.sweep(Grid(workload=["gcn", "ds"], mechanism=["inorder", "nvr"]))

See README.md for the overview and its module layout, and
docs/architecture.md for how a call becomes a cached result.
"""

__version__ = "1.0.0"

from .api import (
    DTYPE_BYTES,
    MECHANISM_ORDER,
    MECHANISMS,
    WORKLOADS,
    compare_mechanisms,
    make_system,
    run_workload,
)
from .client import SweepClient
from .resultset import ResultSet
from .runner import ResultCache, RunSpec, SweepRunner
from .session import Grid, Session, default_session
from .spec import SystemSpec

__all__ = [
    "DTYPE_BYTES",
    "Grid",
    "MECHANISMS",
    "MECHANISM_ORDER",
    "ResultCache",
    "ResultSet",
    "RunSpec",
    "Session",
    "SweepClient",
    "SweepRunner",
    "SystemSpec",
    "WORKLOADS",
    "compare_mechanisms",
    "default_session",
    "make_system",
    "run_workload",
    "__version__",
]
