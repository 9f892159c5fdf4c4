"""Queue-unit execution: the worker side of the pull queue.

A worker is any process that can import ``repro`` and see the shared
work directory. ``python -m repro queue worker`` (:func:`run_queue_worker`
here) pulls claimable unit files from a
:class:`~repro.runner.queue.WorkQueue` until told to stop, executes each
unit's spec(s) with :func:`~repro.runner.pool.execute_spec`, and reports
one result file per unit (:func:`~repro.runner.queue.write_results`)::

    results/unit-<id>.json   {"format": 1, "results": [{"key", "spec",
                              "payload", "salt"}]}

Every record is content-addressed: ``key`` is the executed
``RunSpec.key()`` and ``payload`` the pure-JSON result — exactly the
bytes :func:`~repro.runner.pool.execute_spec` would produce anywhere,
so queue results are bit-identical to local execution.
"""

from __future__ import annotations

import os
import socket
import threading
import time

from ..errors import ReproError
from .cache import default_salt
from .queue import (
    DEFAULT_HEARTBEAT,
    DEFAULT_POLL,
    ClaimedUnit,
    WorkerStats,
    WorkQueue,
    write_results,
)


def _default_worker_id() -> str:
    return f"{socket.gethostname()}:{os.getpid()}"


def _silent(text: str) -> None:
    pass


def _process_unit(queue: WorkQueue, unit: ClaimedUnit, worker_id: str) -> str | None:
    """Execute one claimed unit: run, report, clean up.

    Returns ``None`` on success. Any :class:`Exception` out of the spec
    itself — a :class:`~repro.errors.ReproError`, or a plain bug like a
    ``TypeError`` in the simulator — is *reported* (``failed/`` file,
    returned as text) rather than raised: such errors are deterministic,
    so releasing the unit would just poison the next claimant, and the
    orchestrator surfaces them to the submitter like a local backend
    would. Only interrupts (``KeyboardInterrupt``/``SystemExit``)
    release the unit back into the queue, so an interrupted worker
    leaves nothing orphaned.
    """
    from .pool import execute_spec  # circular at import time only

    try:
        records = []
        for spec in unit.specs:
            payload = execute_spec(spec)
            records.append(
                {
                    "key": spec.key(),
                    "spec": spec.to_dict(),
                    "payload": payload,
                    # Stamped so a reused work dir can never serve a
                    # result computed by a different simulator version
                    # (the orchestrator discards salt mismatches and
                    # re-runs).
                    "salt": default_salt(),
                }
            )
        write_results(queue.result_path(unit.id), records)
        error = None
    except Exception as exc:
        error = (
            str(exc)
            if isinstance(exc, ReproError)
            else f"{type(exc).__name__}: {exc}"
        )
        if len(unit.specs) > 1:
            error = f"{spec.label()}: {error}"
        queue.report_failure(unit.id, worker_id, error)
    except BaseException:
        queue.release(unit)
        raise
    queue.complete(unit)
    return error


def run_queue_worker(
    work_dir: str | os.PathLike,
    worker_id: str | None = None,
    idle_timeout: float | None = None,
    max_units: int | None = None,
    poll: float = DEFAULT_POLL,
    heartbeat: float = DEFAULT_HEARTBEAT,
    log=None,
) -> int:
    """Pull and execute queue units until stopped; returns units processed.

    The claim/run/report loop behind ``repro queue worker``: claim a
    unit by atomic rename, execute its spec(s), write its result file
    (one record per spec) — or its failure report, when a spec itself
    raises — and repeat. The loop ends when

    * a ``stop`` sentinel appears in the work directory,
    * ``max_units`` units have been executed, or
    * the queue has been empty for ``idle_timeout`` seconds
      (``None`` = wait for work forever).

    The worker writes its :class:`~repro.runner.queue.WorkerStats` before
    its first claim, so ``/v1/stats`` lists it from the start. One
    heartbeat thread lives as long as the worker. Every ``heartbeat``
    seconds it touches the current unit's claim, so a slow unit is never
    recovered from a live worker, and rewrites the stats if they
    changed, which every exit does too.

    ``log`` is an optional ``callable(str)`` for per-unit progress lines
    (the CLI passes a stderr printer; library callers default silent).
    """
    queue = WorkQueue(work_dir).ensure()
    worker_id = worker_id if worker_id is not None else _default_worker_id()
    emit = log if log is not None else _silent
    stats = WorkerStats(queue, worker_id)
    stats.write()
    current: list[ClaimedUnit | None] = [None]  # the unit being executed
    stop = threading.Event()

    def beat() -> None:
        while not stop.wait(heartbeat):
            unit = current[0]
            if unit is not None:
                queue.heartbeat(unit)
            stats.write()

    thread = threading.Thread(target=beat, daemon=True, name="queue-heartbeat")
    thread.start()
    done = 0
    idle_since = time.monotonic()
    try:
        while True:
            if queue.stop_requested():
                emit(f"worker {worker_id}: stop requested, exiting ({done} done)")
                break
            if max_units is not None and done >= max_units:
                break
            unit = queue.claim_next(worker_id)
            if unit is None:
                if (
                    idle_timeout is not None
                    and time.monotonic() - idle_since >= idle_timeout
                ):
                    emit(f"worker {worker_id}: idle for {idle_timeout:g}s, exiting")
                    break
                time.sleep(poll)
                continue
            label = unit.specs[0].label()
            if len(unit.specs) > 1:
                label += f" +{len(unit.specs) - 1} more"
            emit(f"worker {worker_id}: claimed {unit.id[:12]} ({label})")
            current[0] = unit
            error = _process_unit(queue, unit, worker_id)
            current[0] = None
            done += 1
            stats.record(points=len(unit.specs), failed=error is not None)
            if error is not None:
                emit(f"worker {worker_id}: unit {unit.id[:12]} failed: {error}")
            else:
                emit(f"worker {worker_id}: done {unit.id[:12]} ({done} total)")
            idle_since = time.monotonic()
    finally:
        stop.set()
        thread.join()
        stats.write()
    return done
