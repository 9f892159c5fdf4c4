"""Plan execution: dedupe, cache lookup, execution backend, reassembly.

:class:`SweepRunner` is the single entry point every sweep goes through
(figure runners, ``compare_mechanisms``, the ``sweep`` CLI, benchmarks):

1. the plan's specs are deduplicated by content key — plans routinely
   contain identical points (the in-order Fig. 8 calibration submits
   its reference and its measurement as the same spec), and with a
   cache attached the dedupe extends across calls and processes;
2. each unique point is looked up in the optional
   :class:`~repro.runner.cache.ResultCache`;
3. a missed sim point without base cycles whose ``with_base=True``
   *twin* is known — in the plan, in the cache — is derived from the
   twin's payload (:func:`~repro.runner.cache.without_base`) instead
   of simulated; the base pass is an all-hit replay that adds two
   fields and changes nothing else;
4. the remaining points run through the pluggable
   :class:`~repro.runner.backend.Backend` —
   :class:`~repro.runner.backend.LocalPoolBackend` executes
   :func:`execute_spec` inline or across a ``ProcessPoolExecutor``,
   :class:`~repro.runner.queue.QueueBackend` enqueues them for
   ``repro queue worker`` processes. Workers rebuild everything from
   the spec, so results are a pure function of the spec and
   bit-identical for every ``jobs`` setting and every backend;
5. results are reassembled in plan order.

Determinism: the workload builders seed their RNGs from ``spec.seed``
alone and the simulator is single-threaded per run, so scheduling order
can never leak into results — the property the result cache, the
serial-vs-parallel equality tests and the local-vs-queue CI gate rely
on.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from ..sim.soc import RunResult
from ..workloads import build_workload, trace_stats
from ..workloads.base import TraceStats
from ..workloads.registry import elem_bytes
from .backend import Backend, LocalPoolBackend
from .cache import (
    ResultCache,
    materialise,
    result_to_payload,
    trace_to_payload,
    without_base,
)
from .plan import RunSpec
from .progress import NullProgress


@lru_cache(maxsize=64)
def _workload_for(
    workload: str,
    scale: float,
    elem_bytes_: int,
    seed: int,
    workload_args: tuple,
):
    """Process-local memo over the pure workload builders.

    Plans routinely pair the same workload with many systems (a figures
    plan runs every mechanism over each workload), and builders are pure
    functions of these arguments, so the lowered program is shared.
    Programs are immutable once built — every consumer (engines,
    prefetchers, trace stats) only reads them.
    """
    return build_workload(
        workload,
        scale=scale,
        elem_bytes=elem_bytes_,
        seed=seed,
        **dict(workload_args),
    )


def execute_spec(spec: RunSpec) -> dict:
    """Run one spec and return its JSON payload (the worker entry point).

    Module-level so it pickles under every multiprocessing start method.
    The platform side is rebuilt entirely from ``spec.system`` — the
    declarative :class:`~repro.spec.SystemSpec` — so results are a pure
    function of the spec and bit-identical for every ``jobs`` setting.
    """
    program = _workload_for(
        spec.workload,
        spec.scale,
        elem_bytes(spec.dtype),
        spec.seed,
        spec.workload_args,
    )
    if spec.kind == "trace":
        return trace_to_payload(trace_stats(program))
    system = spec.system.build(program)
    result = system.run_with_base() if spec.with_base else system.run()
    return result_to_payload(result)


@dataclass
class PlanReport:
    """What one :meth:`SweepRunner.run_plan` call actually did."""

    total: int = 0
    unique: int = 0
    cache_hits: int = 0
    submitted: int = 0  # points simulated
    derived: int = 0  # points derived from their with_base twin
    elapsed: float = 0.0


def _with_derived(
    stream: Iterable[tuple[str, RunSpec, dict]],
    ready: list[tuple[str, RunSpec, dict]],
    after: dict[str, tuple[str, RunSpec]],
) -> Iterator[tuple[str, RunSpec, dict, str]]:
    """The backend's results interleaved with the derived points.

    Yields ``(key, spec, payload, source)``, ``source`` being ``"run"``
    or ``"derived"``: first the points whose twin was known before the
    plan ran, then each simulated point followed by its derived twin.
    """
    for key, spec, twin_payload in ready:
        yield key, spec, without_base(twin_payload), "derived"
    for key, spec, payload in stream:
        yield key, spec, payload, "run"
        if key in after:
            twin_key, twin = after[key]
            yield twin_key, twin, without_base(payload), "derived"


class SweepRunner:
    """Executes plans of :class:`RunSpec` points with caching + a backend.

    Attributes:
        jobs: worker processes; 1 executes inline in this process
            (shorthand for the default :class:`LocalPoolBackend`).
        backend: the execution backend for cache-missed points; pass a
            :class:`~repro.runner.queue.QueueBackend` (what
            :meth:`~repro.session.Session.remote` and the CLI's
            ``--work-dir`` build) to run them in ``repro queue worker``
            processes.
        cache: optional on-disk result cache shared across plans/runs.
        submitted / derived / cache_hits: cumulative counters over the
            runner's lifetime — points simulated, derived from their
            ``with_base`` twin, and served from the cache (the warm-run
            tests assert ``submitted == 0``).
        last_report: per-plan breakdown of the most recent call.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: ResultCache | None = None,
        progress=None,
        backend: Backend | None = None,
    ) -> None:
        self.backend = backend if backend is not None else LocalPoolBackend(jobs=jobs)
        self.jobs = getattr(self.backend, "jobs", max(1, int(jobs)))
        self.cache = cache
        self.progress = progress if progress is not None else NullProgress()
        self.submitted = 0
        self.derived = 0
        self.cache_hits = 0
        self.last_report: PlanReport | None = None

    def close(self) -> None:
        """Release backend resources (idempotent; runner stays usable)."""
        self.backend.close()

    def __enter__(self) -> "SweepRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def run(self, spec: RunSpec) -> RunResult | TraceStats:
        """Execute a single point (one-element plan)."""
        return self.run_plan([spec])[0]

    def run_plan(self, specs: Sequence[RunSpec]) -> list[RunResult | TraceStats]:
        """Execute a plan; returns results aligned with ``specs``."""
        start = time.time()
        specs = list(specs)
        unique: dict[str, RunSpec] = {}
        for spec in specs:
            unique.setdefault(spec.key(), spec)

        payloads: dict[str, dict] = {}
        pending: list[tuple[str, RunSpec]] = []
        for key, spec in unique.items():
            hit = self.cache.get(spec) if self.cache is not None else None
            if hit is not None:
                payloads[key] = hit
            else:
                pending.append((key, spec))

        hits = len(unique) - len(pending)
        submit, ready, after = self._split_twins(pending, payloads)
        self.progress.plan_started(len(specs), len(unique), hits)
        done = hits
        counts = {"run": 0, "derived": 0}
        try:
            stream = self.backend.run(submit) if submit else ()
            for key, spec, payload, source in _with_derived(stream, ready, after):
                payloads[key] = payload
                self._store(spec, payload)
                counts[source] += 1
                done += 1
                self.progress.point_done(spec.label(), source, done, len(unique))
        except BaseException:
            # A failed plan still accounts for what it did: the streamed
            # results are cached (a retry resumes warm), the cumulative
            # counters and last_report carry the partial counts, and the
            # observer gets plan_failed so a live progress line is
            # cleared before the traceback prints over it.
            self._account(len(specs), len(unique), hits, counts, start)
            # getattr: pre-plan_failed observers (custom classes not
            # derived from NullProgress) must not turn the real error
            # into an AttributeError.
            plan_failed = getattr(self.progress, "plan_failed", None)
            if plan_failed is not None:
                plan_failed(done, len(unique), self.last_report.elapsed)
            raise

        report = self._account(len(specs), len(unique), hits, counts, start)
        self.progress.plan_finished(report.submitted, hits, report.elapsed)
        return [materialise(payloads[spec.key()]) for spec in specs]

    def _split_twins(
        self, pending: list[tuple[str, RunSpec]], payloads: dict[str, dict]
    ) -> tuple[list, list, dict]:
        """Split cache-missed points into simulated and derived ones.

        A sim point without base cycles is derived from its
        ``with_base=True`` twin (see :func:`without_base`) whenever the
        twin is known: already in ``payloads``, in the cache, or pending
        in this plan. Returns ``(submit, ready, after)``: the points to
        simulate in plan order, ``(key, spec, twin payload)`` for the
        points derivable now, and twin key -> ``(key, spec)`` for the
        points derived when their twin lands.
        """
        pending_keys = {key for key, _ in pending}
        submit: list[tuple[str, RunSpec]] = []
        ready: list[tuple[str, RunSpec, dict]] = []
        after: dict[str, tuple[str, RunSpec]] = {}
        for key, spec in pending:
            if spec.kind != "sim" or spec.with_base:
                submit.append((key, spec))
                continue
            twin = replace(spec, with_base=True)
            twin_key = twin.key()
            known = payloads.get(twin_key)
            if known is None and twin_key in pending_keys:
                after[twin_key] = (key, spec)
                continue
            if known is None and self.cache is not None:
                known = self.cache.get(twin)
            if known is None:
                submit.append((key, spec))
            else:
                ready.append((key, spec, known))
        return submit, ready, after

    def _account(
        self, total: int, unique: int, hits: int, counts: dict, start: float
    ) -> PlanReport:
        self.submitted += counts["run"]
        self.derived += counts["derived"]
        self.cache_hits += hits
        self.last_report = PlanReport(
            total=total,
            unique=unique,
            cache_hits=hits,
            submitted=counts["run"],
            derived=counts["derived"],
            elapsed=time.time() - start,
        )
        return self.last_report

    def _store(self, spec: RunSpec, payload: dict) -> None:
        if self.cache is not None:
            self.cache.put(spec, payload)
