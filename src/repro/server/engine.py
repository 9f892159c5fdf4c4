"""SweepEngine: submissions, cache dedupe, drain threads, status.

The orchestration core of ``repro serve``, deliberately free of any
HTTP: everything here is plain-Python callable (and unit-testable)
state over the same primitives every other front door uses —

* a submission is parsed into :class:`~repro.runner.RunSpec` points
  (:func:`parse_submission`), content-addressed into a sweep id, and
  persisted to the :class:`~repro.server.ledger.SweepLedger` before it
  is acknowledged;
* the :class:`~repro.runner.ResultCache` is scanned point-by-point —
  points whose entries are present are done before any worker hears
  about the sweep, and a fully-cached submission never touches the
  queue at all (the "second identical POST enqueues nothing"
  guarantee); each entry is read and verified once, by
  :meth:`SweepEngine.results`;
* the misses drain through an ordinary :class:`~repro.session.Session`
  over the :class:`~repro.runner.QueueBackend` on a background thread
  per sweep — the exact orchestration a ``Session.remote`` sweep runs,
  crash recovery and salt verification included, so any ``repro queue
  worker`` drains server sweeps unchanged;
* progress is *derived*, never journalled: :meth:`SweepEngine.poll`
  watches the cache for outstanding points and turns each
  landing into an event (the SSE feed), and :meth:`SweepEngine.status`
  asks the work queue which points its claimed units hold. A restarted
  daemon reloads the ledger and resumes from what the filesystem
  already says (:meth:`SweepEngine.start`).

Concurrency model: submissions, status reads and :meth:`poll` run on
the server's event-loop thread; only the sweep *drains* run on
threads. Shared sweep state is guarded by one lock, and subscriber
callbacks fire outside it.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from ..errors import ConfigError, ReproError
from ..resultset import RESULT_FORMATS, ResultSet
from ..runner.cache import ResultCache, materialise
from ..runner.plan import Plan, RunSpec, parse_specs
from ..runner.progress import NullProgress
from ..runner.queue import DEFAULT_POLL, QueueBackend, WorkQueue, units_per_minute
from ..session import Grid, Session, resolve_cache_dir
from .ledger import SweepLedger, SweepRecord

__all__ = ["SweepEngine", "SweepState", "parse_submission"]


def parse_submission(document) -> tuple[list[RunSpec], dict]:
    """Turn a ``POST /v1/sweeps`` body into (specs, meta).

    Exactly one point source is required: ``grid`` (declarative
    :class:`~repro.session.Grid` axes — values may be scalars or
    lists), ``plan`` (a wire-format :class:`~repro.runner.Plan`
    document, the ``repro plan export`` output), or ``specs`` (a bare
    list of spec dicts). Anything malformed is a
    :class:`~repro.errors.ConfigError` — a 400, never a traceback.
    """
    if not isinstance(document, dict):
        raise ConfigError(
            f"submission body must be a JSON object, got "
            f"{type(document).__name__}"
        )
    meta = document.get("meta", {})
    if not isinstance(meta, dict):
        raise ConfigError("submission 'meta' must be an object")
    sources = [k for k in ("grid", "plan", "specs") if k in document]
    if len(sources) != 1:
        raise ConfigError(
            "submission needs exactly one of 'grid', 'plan' or 'specs' "
            f"(got {', '.join(sources) or 'none'})"
        )
    source = sources[0]
    if source == "grid":
        axes = document["grid"]
        if not isinstance(axes, dict) or not axes:
            raise ConfigError("submission 'grid' must be a non-empty object")
        specs = Grid(**axes).specs()
    elif source == "plan":
        specs = list(Plan.from_dict(document["plan"]).specs)
    else:
        raw = document["specs"]
        if not isinstance(raw, list) or not raw:
            raise ConfigError("submission 'specs' must be a non-empty list")
        specs = parse_specs(raw, what="submission spec")
    if not specs:
        raise ConfigError("submission expands to zero points")
    return specs, dict(meta)


class _EngineStopped(Exception):
    """Internal: a drain thread interrupted by engine shutdown."""


@dataclass
class SweepState:
    """In-memory progress of one ledgered sweep."""

    record: SweepRecord
    unique: list[tuple[str, RunSpec]]  # (spec.key(), spec), submission order
    done: set = field(default_factory=set)  # spec keys present in the cache
    cached: set = field(default_factory=set)  # of those, present at submit
    finished: bool = False
    error: str | None = None
    thread: threading.Thread | None = None


class SweepEngine:
    """Sweep-as-a-service orchestration over cache + queue + Session."""

    def __init__(
        self,
        work_dir: str | os.PathLike,
        cache_dir: str | os.PathLike | None = None,
        lease_timeout: float | None = None,
        queue_timeout: float | None = None,
        poll_interval: float = DEFAULT_POLL,
    ) -> None:
        self.work_dir = Path(work_dir)
        self.queue = WorkQueue(self.work_dir).ensure()
        self.ledger = SweepLedger(self.work_dir / "server")
        self.cache_dir = resolve_cache_dir(cache_dir)
        self.cache = ResultCache(self.cache_dir)
        self.lease_timeout = lease_timeout
        self.queue_timeout = queue_timeout
        self.poll_interval = float(poll_interval)
        self.started_at = time.time()
        self._lock = threading.Lock()
        self._states: dict[str, SweepState] = {}
        self._subscribers: dict[str, list] = {}
        self._stop = threading.Event()
        self._points_seen = 0
        self._points_cached = 0
        #: Every drain's progress observer (the server's wakes its poll).
        self.progress = NullProgress()

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> int:
        """Reload the ledger and resume every unfinished sweep.

        Returns how many sweeps went back into flight. Fully-cached
        records become immediately-done states; records with a
        persisted error stay failed (a resubmission retries them);
        everything else re-scans the cache and re-enqueues its misses
        — enqueues are content-addressed and idempotent, so units
        still queued or claimed from before the restart are simply
        waited on, not duplicated.
        """
        resumed = 0
        for record in self.ledger.load_all():
            with self._lock:
                if record.id in self._states:
                    continue
                state = self._make_state(record)
                self._states[record.id] = state
                self._activate(state, fresh=False)
                if not state.finished:
                    resumed += 1
        return resumed

    def shutdown(self, timeout: float = 2.0) -> None:
        """Interrupt drain threads; safe to call repeatedly.

        Drains abort *without* recording an error (the sweep is not
        failed — the daemon is going away), so a restarted engine
        resumes them as pending. Threads stuck executing (not polling)
        are daemons and die with the process.
        """
        self._stop.set()
        with self._lock:
            threads = [s.thread for s in self._states.values() if s.thread]
        for thread in threads:
            thread.join(timeout)

    # -- submission ----------------------------------------------------------

    def submit(self, specs, meta: dict | None = None) -> tuple[str, bool]:
        """Accept one sweep; returns (sweep id, created-new-record).

        Idempotent by content address: resubmitting the same specs maps
        onto the existing sweep — an active one
        is simply reported, a finished one is re-checked against the
        cache (all present: nothing is enqueued; evicted or previously
        failed: the misses drain again). ``meta`` is recorded on first
        submission only.
        """
        record = SweepRecord.create(specs, meta)
        with self._lock:
            state = self._states.get(record.id)
            created = state is None
            if created:
                state = self._make_state(record)
                self.ledger.save(record)
                self._states[record.id] = state
                self._activate(state, fresh=True)
            elif state.finished:
                self._activate(state, fresh=True)
        return record.id, created

    def _make_state(self, record: SweepRecord) -> SweepState:
        unique: list[tuple[str, RunSpec]] = []
        seen = set()
        for spec in record.specs:
            key = spec.key()
            if key not in seen:
                seen.add(key)
                unique.append((key, spec))
        return SweepState(record=record, unique=unique)

    def _activate(self, state: SweepState, fresh: bool) -> None:
        """(Re-)scan the cache and set the sweep in motion.

        Called under the lock. ``fresh`` marks a client submission (the
        scan counts toward the server's hit-rate stats and clears any
        previous failure); a ledger reload keeps a persisted error as a
        failed terminal state instead of silently retrying.

        The scan tests presence only, as :meth:`poll` does: every entry
        is read and verified once, by :meth:`results`, which re-drains
        one that turns out missing or invalid.
        """
        done = set()
        for key, spec in state.unique:
            if self.cache.path_for(spec).exists():
                done.add(key)
        state.done = done
        state.cached = set(done)
        if fresh:
            self._points_seen += len(state.unique)
            self._points_cached += len(done)
        if len(done) == len(state.unique):
            state.finished = True
            state.error = None
            self._clear_record_error(state)
            return
        if not fresh and state.record.error:
            state.finished = True
            state.error = state.record.error
            return
        state.finished = False
        state.error = None
        self._clear_record_error(state)
        self._start_drain(state)

    def _clear_record_error(self, state: SweepState) -> None:
        if state.record.error is not None:
            state.record.error = None
            try:
                self.ledger.save(state.record)
            except OSError:  # pragma: no cover - unwritable ledger
                pass

    # -- draining ------------------------------------------------------------

    def _start_drain(self, state: SweepState) -> None:
        thread = threading.Thread(
            target=self._drain,
            args=(state,),
            daemon=True,
            name=f"sweep-{state.record.id[:8]}",
        )
        state.thread = thread
        thread.start()

    def _interruptible_sleep(self, seconds: float) -> None:
        if self._stop.wait(seconds):
            raise _EngineStopped

    def _drain(self, state: SweepState) -> None:
        """One sweep's worker thread: a Session over the queue backend.

        Results stream into the cache as units land (the
        standard incremental fold), which is exactly what
        :meth:`poll` watches — this thread owns *execution*, never
        status. A spec failure out of the queue records the error on
        the state and the ledger; an engine shutdown aborts silently
        so a restart resumes the sweep as pending.
        """
        try:
            if self._stop.is_set():
                return
            backend = QueueBackend(
                self.work_dir,
                lease_timeout=self.lease_timeout,
                timeout=self.queue_timeout,
            )
            backend._sleep = self._interruptible_sleep
            session = Session(cache=self.cache, backend=backend, progress=self.progress)
            try:
                session.sweep([spec for _, spec in state.unique])
            finally:
                session.close()
        except _EngineStopped:
            return
        except Exception as exc:
            message = (
                str(exc)
                if isinstance(exc, ReproError)
                else f"{type(exc).__name__}: {exc}"
            )
            with self._lock:
                state.error = message
                state.record.error = message
                try:
                    self.ledger.save(state.record)
                except OSError:  # pragma: no cover - unwritable ledger
                    pass
        finally:
            state.thread = None

    # -- progress ------------------------------------------------------------

    def poll(self) -> int:
        """Fold newly-landed cache entries into sweep state; emit events.

        The single place progress is observed: every active sweep's
        outstanding points are checked against the cache (a
        stat per point), each landing becomes a ``point`` event, and a
        sweep whose last point landed — or whose drain thread recorded
        an error — becomes terminal with a ``done``/``failed`` event.
        Returns the number of events dispatched.
        """
        events: list[tuple[str, dict]] = []
        with self._lock:
            for sid, state in self._states.items():
                if state.finished:
                    continue
                for key, spec in state.unique:
                    if key in state.done:
                        continue
                    if self.cache.path_for(spec).exists():
                        state.done.add(key)
                        events.append((sid, self._point_event(state, spec)))
                if len(state.done) == len(state.unique):
                    state.finished = True
                    state.error = None
                    self._clear_record_error(state)
                    events.append((sid, self._terminal_event(state)))
                elif state.error is not None and state.thread is None:
                    state.finished = True
                    events.append((sid, self._terminal_event(state)))
            dispatch = [
                (callback, event)
                for sid, event in events
                for callback in self._subscribers.get(sid, ())
            ]
        for callback, event in dispatch:
            callback(event)
        return len(events)

    def _point_event(self, state: SweepState, spec: RunSpec) -> dict:
        return {
            "event": "point",
            "sweep": state.record.id,
            "key": spec.key(),
            "label": spec.label(),
            "done": len(state.done),
            "total": len(state.unique),
        }

    def _terminal_event(self, state: SweepState) -> dict:
        if state.error is not None:
            return {
                "event": "failed",
                "sweep": state.record.id,
                "error": state.error,
                "done": len(state.done),
                "total": len(state.unique),
            }
        return {
            "event": "done",
            "sweep": state.record.id,
            "done": len(state.done),
            "total": len(state.unique),
        }

    def subscribe(self, sweep: str, callback) -> tuple[list[dict], object]:
        """Attach a live event listener; returns (replay, unsubscribe).

        ``replay`` holds one ``point`` event per already-landed point
        (submission order) plus the terminal event when the sweep is
        already over — taken under the same lock that registers the
        listener, so a point lands either in the replay or on the
        callback, never both, never neither.
        """
        with self._lock:
            state = self._states.get(sweep)
            if state is None:
                raise ConfigError(f"unknown sweep id {sweep!r}")
            replay = []
            landed = 0
            for key, spec in state.unique:
                if key in state.done:
                    landed += 1
                    replay.append(
                        {
                            "event": "point",
                            "sweep": state.record.id,
                            "key": key,
                            "label": spec.label(),
                            "done": landed,
                            "total": len(state.unique),
                        }
                    )
            if state.finished:
                replay.append(self._terminal_event(state))
            self._subscribers.setdefault(sweep, []).append(callback)

        def unsubscribe() -> None:
            with self._lock:
                listeners = self._subscribers.get(sweep, [])
                if callback in listeners:
                    listeners.remove(callback)
                if not listeners:
                    self._subscribers.pop(sweep, None)

        return replay, unsubscribe

    # -- read side -----------------------------------------------------------

    def sweep_ids(self) -> list[str]:
        with self._lock:
            return sorted(self._states)

    def status(self, sweep: str) -> dict:
        """Status document of one sweep (the ``GET /v1/sweeps/{id}`` body)."""
        with self._lock:
            state = self._states.get(sweep)
            if state is None:
                raise ConfigError(f"unknown sweep id {sweep!r}")
            return self._status_locked(state)

    def _status_locked(self, state: SweepState) -> dict:
        """One sweep's status document.

        ``running`` counts the sweep's undone points that a claimed unit
        holds and ``queued`` its other undone points; both are 0 once the
        sweep is finished or failed.
        """
        total = len(state.unique)
        done = len(state.done)
        queued = running = 0
        if state.error is not None and state.thread is None:
            phase = "failed"
        elif state.finished:
            phase = "cached" if len(state.cached) == total else "done"
        else:
            claimed = self.queue.claimed_keys()
            running = sum(
                1 for key, _ in state.unique if key in claimed and key not in state.done
            )
            queued = total - done - running
            phase = "running" if running or done > len(state.cached) else "queued"
        return {
            "id": state.record.id,
            "state": phase,
            "created_at": state.record.created_at,
            "meta": state.record.meta,
            "error": state.error,
            "points": {
                "total": len(state.record.specs),
                "unique": total,
                "done": done,
                "cached_at_submit": len(state.cached),
                "queued": queued,
                "running": running,
            },
        }

    def results(self, sweep: str, fmt: str = "json") -> str:
        """The finished sweep as rendered ResultSet text.

        Rebuilt from the cache in submission order — the same
        materialisation path a warm local sweep takes, so the JSON
        flavour is byte-identical to ``Session.sweep(...).to_json()``
        of the same points. This is where every entry is read and
        verified, once per unique point however often the submission
        lists it: a point whose entry is missing (evicted by a racing
        ``cache gc``) or invalid (corrupt, or another spec's) flips the
        sweep back to pending, no longer counts as cached at submit,
        re-drains and raises, so the caller re-polls rather than getting
        a partial result set.
        """
        if fmt not in RESULT_FORMATS:
            raise ConfigError(
                f"unknown result format '{fmt}' "
                f"(known: {', '.join(RESULT_FORMATS)})"
            )
        with self._lock:
            state = self._states.get(sweep)
            if state is None:
                raise ConfigError(f"unknown sweep id {sweep!r}")
            if not (state.finished and state.error is None):
                raise ConfigError(
                    f"sweep {sweep} has no results yet "
                    f"(state: {self._status_locked(state)['state']})"
                )
            materialised = {}
            for key, spec in state.unique:
                payload = self.cache.get(spec)
                if payload is None:
                    # An invalid entry would read as landed to poll()
                    # at once; removed, poll waits for the re-drain.
                    self.cache.path_for(spec).unlink(missing_ok=True)
                    state.done.discard(key)
                    state.cached.discard(key)
                    state.finished = False
                    self._start_drain(state)
                    raise ConfigError(
                        f"sweep {sweep}: point {spec.label()} is missing "
                        "from the cache or invalid — re-draining; poll "
                        "status again"
                    )
                materialised[key] = materialise(payload)
            entries = [(spec, materialised[spec.key()]) for spec in state.record.specs]
        return ResultSet(entries).render(fmt)

    # -- stats ---------------------------------------------------------------

    def stats(self) -> dict:
        """The ``GET /v1/stats`` document: server, cache, queue, workers."""
        queue_status = self.queue.status(self.lease_timeout)
        workers = [
            {
                "worker": s.get("worker"),
                "units": int(s.get("units", 0)),
                "points": int(s.get("points", 0)),
                "failures": int(s.get("failures", 0)),
                "units_per_min": round(units_per_minute(s), 2),
                "last_done_at": s.get("last_done_at"),
            }
            for s in self.queue.worker_stats()
        ]
        with self._lock:
            by_phase: dict[str, int] = {}
            for state in self._states.values():
                phase = self._status_locked(state)["state"]
                by_phase[phase] = by_phase.get(phase, 0) + 1
            seen, cached = self._points_seen, self._points_cached
        return {
            "server": {
                "uptime_s": round(time.time() - self.started_at, 3),
                "work_dir": str(self.work_dir),
                "sweeps": {"total": sum(by_phase.values()), **by_phase},
            },
            "cache": {
                "dir": str(self.cache_dir),
                "points_submitted": seen,
                "points_cached_at_submit": cached,
                "hit_rate": round(cached / seen, 4) if seen else None,
            },
            "queue": queue_status.to_dict(),
            "workers": workers,
        }
