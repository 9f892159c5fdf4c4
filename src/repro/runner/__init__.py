"""Sweep runner: plans, execution backends, result cache, progress.

The subsystem that turns every paper sweep into an explicit, cacheable,
parallel plan:

* :mod:`repro.runner.plan` — :class:`RunSpec` points and the
  wire-format :class:`Plan` (JSON round-trip); cartesian sweeps are
  built with :class:`repro.session.Grid`;
* :mod:`repro.runner.pool` — :class:`SweepRunner`, the dedupe + cache +
  backend execution engine;
* :mod:`repro.runner.backend` — pluggable :class:`Backend` protocol:
  :class:`LocalPoolBackend` (in-process ``ProcessPoolExecutor``) and
  :class:`QueueBackend` (workers *pull* claimable units from a shared
  directory);
* :mod:`repro.runner.queue` — the pull-based work queue:
  :class:`WorkQueue` unit/claim/result protocol, the result-file format
  (:func:`write_results`/:func:`load_results`) and the
  :class:`QueueBackend` orchestrator with crash recovery;
* :mod:`repro.runner.worker` — queue-unit execution, the machinery
  behind ``repro queue worker``;
* :mod:`repro.runner.cache` — :class:`ResultCache`, content-addressed
  JSON memoisation under ``.repro-cache/`` with an inter-process lock
  for structural mutations;
* :mod:`repro.runner.progress` — optional live progress reporting.
"""

from ..spec import SystemSpec
from .backend import Backend, LocalPoolBackend
from .cache import (
    CACHE_SALT,
    DEFAULT_CACHE_DIR,
    GCReport,
    ResultCache,
    materialise,
    payload_to_result,
    result_to_payload,
    trace_to_payload,
)
from .plan import (
    PLAN_FORMAT,
    Plan,
    RunSpec,
    shape_l2,
)
from .pool import PlanReport, SweepRunner, execute_spec
from .progress import NullProgress, Progress
from .queue import (
    QueueBackend,
    QueueStatus,
    WorkerStats,
    WorkQueue,
    load_results,
    unit_id,
    units_per_minute,
    write_results,
)
from .worker import run_queue_worker

__all__ = [
    "Backend",
    "CACHE_SALT",
    "DEFAULT_CACHE_DIR",
    "GCReport",
    "LocalPoolBackend",
    "NullProgress",
    "PLAN_FORMAT",
    "Plan",
    "PlanReport",
    "Progress",
    "QueueBackend",
    "QueueStatus",
    "ResultCache",
    "RunSpec",
    "SweepRunner",
    "SystemSpec",
    "WorkQueue",
    "WorkerStats",
    "execute_spec",
    "load_results",
    "materialise",
    "payload_to_result",
    "result_to_payload",
    "run_queue_worker",
    "shape_l2",
    "trace_to_payload",
    "unit_id",
    "units_per_minute",
    "write_results",
]
