"""Pluggable plan-execution backends.

:class:`~repro.runner.pool.SweepRunner` owns the *policy* of a sweep —
dedupe, cache lookup, reassembly — and delegates the *mechanics* of
executing the pending points to a :class:`Backend`:

* :class:`LocalPoolBackend` — the default: inline for one point or one
  job, a persistent ``ProcessPoolExecutor`` otherwise. Everything stays
  in this process tree.
* :class:`~repro.runner.queue.QueueBackend` — the off-process path,
  built by :meth:`repro.session.Session.remote` (``--work-dir`` on the
  CLI): pending points become claimable unit files in a work directory
  and any number of ``repro queue worker`` processes pull them;
  heartbeaten claims detect crashed workers and their units are
  re-enqueued (see :mod:`repro.runner.queue`).

All backends yield ``(key, spec, payload)`` triples as points complete;
results are a pure function of the spec, so every backend produces
bit-identical payloads — the invariant the ``queue-smoke`` CI job pins.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor, as_completed
from typing import Iterator, Protocol

from .plan import RunSpec


class Backend(Protocol):
    """Executes a batch of unique, cache-missed plan points."""

    def run(
        self, pending: list[tuple[str, RunSpec]]
    ) -> Iterator[tuple[str, RunSpec, dict]]:
        """Yield ``(key, spec, payload)`` for every pending point.

        Order is unspecified (workers race); the runner reassembles by
        key. Implementations must yield exactly one triple per input.
        """
        ...

    def close(self) -> None:
        """Release worker resources (idempotent)."""
        ...


class LocalPoolBackend:
    """In-process execution: inline, or across a ``ProcessPoolExecutor``.

    The pool is created lazily and persists across plans, so a multi-plan
    run (``figures`` submits one plan per figure) pays worker spin-up
    once — this matters on spawn-start platforms, where every worker
    re-imports the package.
    """

    def __init__(self, jobs: int = 1) -> None:
        self.jobs = max(1, int(jobs))
        self._executor: ProcessPoolExecutor | None = None

    def _pool(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(max_workers=self.jobs)
        return self._executor

    def run(
        self, pending: list[tuple[str, RunSpec]]
    ) -> Iterator[tuple[str, RunSpec, dict]]:
        from .pool import execute_spec  # circular at import time only

        if self.jobs == 1 or len(pending) <= 1:
            for key, spec in pending:
                yield key, spec, execute_spec(spec)
            return
        futures = {
            self._pool().submit(execute_spec, spec): (key, spec)
            for key, spec in pending
        }
        for future in as_completed(futures):
            key, spec = futures[future]
            yield key, spec, future.result()

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown()
            self._executor = None

