"""Pull-based filesystem work queue: units, claims, streamed results.

The off-process execution model, beside the in-process pool: the
submitter *enqueues* cache-missed points as claimable unit files, and
any number of ``repro queue worker`` processes — started before, during
or after the sweep, on any machine sharing the work directory — *pull*
units at their own pace. A dead worker strands nothing: the claim is a
lease whose mtime must be heartbeaten, and an expired claim re-deals
the unit.

Layout of a work directory (every transition is an atomic write or
rename, so any number of workers and submitters can share it)::

    work_dir/
        queue/unit-<id>.json     claimable units (a "specs" list of
                                 wire-format specs)
        claimed/unit-<id>.json   claimed units (renamed out of queue/);
                                 the file's mtime is the heartbeat
        results/unit-<id>.json   worker result files (one record/spec)
        failed/unit-<id>.json    spec-failure reports (worker error text)
        workers/<id>.json        per-worker throughput stats
        stop                     sentinel: workers drain and exit

The unit id is a content address (sha256 of its points' keys, joined
by newlines; a one-point unit hashes its one key), so enqueues are
idempotent and two submitters wanting the same points share one unit.
A unit file without a ``"specs"`` list (one that an older version
wrote with a single ``"spec"``) does not parse, and is quarantined into
``failed/`` like any unreadable unit.

The protocol:

* **claim** — a worker renames ``queue/u`` to ``claimed/u``; the rename
  is atomic, so exactly one claimant wins. The claim is the lease: the
  worker stamps its mtime on claiming and touches it every
  ``heartbeat`` seconds while executing.
* **report** — the worker writes ``results/u`` (a result file with one
  record per spec, written by :func:`write_results`, validated by
  :func:`load_results` on the way back and stamped with the worker's
  code-fingerprint salt, so a stale result in a reused work directory
  is discarded and re-run instead of served),
  then removes its claim. A spec that *fails* — a
  :class:`~repro.errors.ReproError` out of the simulator — is reported
  through ``failed/u`` instead: the worker stays alive for other units
  and the orchestrator raises the error, exactly like a local run
  would. Corrupt unit files are quarantined the same way rather than
  poisoning every worker that claims them.
* **recover** — the orchestrator (:class:`QueueBackend`) watches the
  units it is waiting on; a claimed unit whose claim file has not been
  touched for ``lease_timeout`` seconds belonged to a crashed (or
  wedged) worker and is renamed back into ``queue/`` for the next
  claimant. Results are a pure function of the spec, so the rare
  double-execution after a *slow* worker is recovered produces
  bit-identical bytes.

:class:`QueueBackend` plugs the queue into the standard
:class:`~repro.runner.backend.Backend` seam: a
:meth:`repro.session.Session.remote` session (``repro sweep --work-dir
DIR`` on the CLI) streams results back as they land, folding each into
the submitter's :class:`~repro.runner.cache.ResultCache` incrementally —
so a crashed *orchestrator* also resumes warm. Unless its caller names a
batch, the backend sizes each plan's units with :func:`unit_size`; a
retried plan waits on the units its earlier run left rather than
regrouping their points. It re-scans for results at once after a
landing and with a doubling sleep after an empty scan.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path

from ..errors import ConfigError, SimulationError
from ..spec import parse_json
from .cache import atomic_write_json, default_salt
from .plan import PLAN_FORMAT, RunSpec

#: Seconds without a heartbeat before a claimed unit is considered
#: abandoned and re-enqueued. Overridable per-backend and through the
#: environment (the CI crash-recovery job shortens it).
LEASE_TIMEOUT_ENV = "REPRO_QUEUE_LEASE_TIMEOUT"
DEFAULT_LEASE_TIMEOUT = 30.0

#: How often pollers (orchestrator and idle workers) re-scan, seconds.
DEFAULT_POLL = 0.2

#: The orchestrator's sleep after an empty result scan, seconds; each
#: further empty scan doubles it, up to ``poll``.
FIRST_SCAN_SLEEP = 0.02

#: :func:`unit_size`'s bounds: at most UNIT_POINTS points per unit (the
#: per-unit protocol stays near 5% of a unit of ~5 ms points), and at
#: least MIN_UNITS units (a crash re-runs at most an eighth of the
#: plan). The measurements behind them are in docs/performance.md.
UNIT_POINTS = 8
MIN_UNITS = 8

#: How often a busy worker touches its claim, seconds. Must be well
#: under the lease timeout or healthy-but-slow workers get recovered.
DEFAULT_HEARTBEAT = 1.0


def default_lease_timeout() -> float:
    raw = os.environ.get(LEASE_TIMEOUT_ENV)
    if raw is None:
        return DEFAULT_LEASE_TIMEOUT
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(
            f"${LEASE_TIMEOUT_ENV} must be a number of seconds, got {raw!r}"
        ) from None
    if value <= 0:
        raise ConfigError(f"${LEASE_TIMEOUT_ENV} must be > 0, got {value:g}")
    return value


def unit_id(specs) -> str:
    """Content address of the unit holding ``specs``, in unit order.

    Stable across submitters. A one-point unit hashes that point's key
    alone, so its id does not depend on how many points units hold.
    """
    joined = "\n".join(spec.key() for spec in specs)
    return hashlib.sha256(joined.encode()).hexdigest()[:32]


def unit_size(points: int) -> int:
    """Points per unit for a sweep of ``points`` whose caller names no batch.

    Up to :data:`UNIT_POINTS` per unit, while leaving at least
    :data:`MIN_UNITS` units; fewer than 16 points go one per unit.
    """
    return min(UNIT_POINTS, max(1, points // MIN_UNITS))


def units_per_minute(stats: dict) -> float:
    """Recent throughput of one worker-stats document, in units/min.

    Measured over the span of the retained completion timestamps (the
    last :attr:`WorkerStats.TIMESTAMPS` units), so the number keeps
    reflecting *current* pace on long sweeps. Fewer than two recorded
    completions — or a clock that went backwards — reads as 0.0 rather
    than a spurious rate.
    """
    timestamps = [
        t for t in stats.get("timestamps", []) if isinstance(t, (int, float))
    ]
    if len(timestamps) < 2:
        return 0.0
    span = timestamps[-1] - timestamps[0]
    if span <= 0:
        return 0.0
    return 60.0 * (len(timestamps) - 1) / span


def write_results(path: str | os.PathLike, records: list[dict]) -> Path:
    """Atomically write a worker result file (temp file + rename)."""
    return atomic_write_json(path, {"format": PLAN_FORMAT, "results": records})


def load_results(path: str | os.PathLike) -> list[dict]:
    """Read and validate one worker result file.

    Any malformation — unreadable file, bad JSON, wrong format version,
    a record whose ``key`` does not match its ``spec`` — raises
    :class:`~repro.errors.ConfigError`: merging a corrupt record would
    poison the cache under a wrong content address.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read result file {path}: {exc}") from None
    document = parse_json(text, f"result file {path}")
    version = document.get("format")
    if version != PLAN_FORMAT:
        raise ConfigError(
            f"{path}: unsupported result format {version!r} "
            f"(this reader understands format {PLAN_FORMAT})"
        )
    records = document.get("results")
    if not isinstance(records, list):
        raise ConfigError(f"{path}: 'results' must be a list")
    for i, record in enumerate(records):
        if not isinstance(record, dict) or not {
            "key", "spec", "payload"
        } <= set(record):
            raise ConfigError(
                f"{path}: result #{i} must be an object with "
                "'key', 'spec' and 'payload'"
            )
        try:
            spec = RunSpec.from_dict(record["spec"])
        except (ConfigError, TypeError) as exc:
            raise ConfigError(f"{path}: result #{i} spec: {exc}") from None
        if spec.key() != record["key"]:
            raise ConfigError(
                f"{path}: result #{i} key does not match its spec — "
                "corrupt or mismatched result file"
            )
        if not isinstance(record["payload"], dict):
            raise ConfigError(f"{path}: result #{i} payload must be an object")
    return records


@dataclass(frozen=True)
class ClaimedUnit:
    """A unit a worker has exclusive ownership of (its claim)."""

    id: str
    specs: tuple[RunSpec, ...]


@dataclass
class QueueStatus:
    """One scan of a work directory (``repro queue status``).

    The scan reads every queued unit file: a unit counts one toward
    ``queued`` and each of its specs toward ``queued_points`` (the
    outstanding work ``repro queue status`` reports), and an unreadable
    unit — a zero-byte file left by an interrupted enqueue, or one in an
    older unit format — is quarantined into ``failed/`` and counted in
    ``corrupt`` instead of ``queued``.
    """

    queued: int = 0
    claimed: int = 0
    expired: int = 0  # claimed units whose heartbeat has lapsed
    results: int = 0
    failed: int = 0  # spec-failure reports awaiting their orchestrator
    stopping: bool = False
    queued_points: int = 0  # specs across queued units
    corrupt: int = 0  # units quarantined by this scan

    def to_dict(self) -> dict:
        """The scan as a JSON-ready dict.

        The machine-readable contract behind ``repro queue status
        --json`` and the server's ``/v1/stats`` — both consume this
        method, so scripts (dashboards, external schedulers) never have
        to scrape the human-formatted status text.
        """
        return asdict(self)


class WorkQueue:
    """The on-disk queue protocol: enqueue, claim, heartbeat, report, recover.

    Pure mechanism — no policy. Both sides of the protocol
    (:class:`QueueBackend` submitting, :func:`~repro.runner.worker.
    run_queue_worker` consuming) speak through this class, so the
    directory layout and atomicity rules live in exactly one place.
    """

    def __init__(self, work_dir: str | os.PathLike) -> None:
        self.root = Path(work_dir)
        self.queue_dir = self.root / "queue"
        self.claimed_dir = self.root / "claimed"
        self.results_dir = self.root / "results"
        self.failed_dir = self.root / "failed"
        self.workers_dir = self.root / "workers"
        self.stop_path = self.root / "stop"

    def ensure(self) -> "WorkQueue":
        for directory in (
            self.queue_dir,
            self.claimed_dir,
            self.results_dir,
            self.failed_dir,
        ):
            directory.mkdir(parents=True, exist_ok=True)
        return self

    # -- paths ---------------------------------------------------------------

    def queued_path(self, uid: str) -> Path:
        return self.queue_dir / f"unit-{uid}.json"

    def claimed_path(self, uid: str) -> Path:
        return self.claimed_dir / f"unit-{uid}.json"

    def result_path(self, uid: str) -> Path:
        return self.results_dir / f"unit-{uid}.json"

    def failed_path(self, uid: str) -> Path:
        return self.failed_dir / f"unit-{uid}.json"

    @staticmethod
    def unit_ids(directory: Path) -> list[str]:
        """The ids of the ``unit-*.json`` files in ``directory``, sorted.

        One ``os.listdir``, not ``Path.glob``: on an 80-unit queue the
        glob costs ~7x more, and every claim scans the queue.
        """
        try:
            names = os.listdir(directory)
        except FileNotFoundError:
            return []
        return sorted(
            name[len("unit-") : -len(".json")]
            for name in names
            if name.startswith("unit-") and name.endswith(".json")
        )

    # -- submitter side ------------------------------------------------------

    def enqueue(self, *specs: RunSpec) -> str:
        """Make ``specs`` claimable as one unit (idempotent); returns its id.

        Several points per unit amortise the per-unit filesystem
        protocol (claim rename and result file) — the right trade when
        points are much cheaper than the protocol. A unit that is
        already queued, claimed, or reported is left alone: the id is a
        content address, so a second submitter wanting the same points
        simply waits on the first one's unit (differently-grouped
        overlapping units re-execute at worst — results are a pure
        function of the spec).
        """
        if not specs:
            raise ConfigError("cannot enqueue an empty unit")
        uid = unit_id(specs)
        if not (
            self.queued_path(uid).exists()
            or self.claimed_path(uid).exists()
            or self.result_path(uid).exists()
        ):
            atomic_write_json(
                self.queued_path(uid),
                {
                    "format": PLAN_FORMAT,
                    "unit": uid,
                    "specs": [spec.to_dict() for spec in specs],
                },
            )
        return uid

    def withdraw(self, uid: str) -> None:
        """Remove a still-unclaimed unit (abandoned sweep cleanup)."""
        self.queued_path(uid).unlink(missing_ok=True)

    def forget(self, uid: str) -> None:
        """Drop every trace of a consumed unit (result already read)."""
        for path in (
            self.result_path(uid),
            self.failed_path(uid),
            self.queued_path(uid),
            self.claimed_path(uid),
        ):
            path.unlink(missing_ok=True)

    def _units_in(self, directory: Path):
        """Yield ``(uid, specs)`` for each unit in ``directory`` that parses.

        A unit that moves on or will not parse mid-scan is skipped: this
        only reads (workers and the status scan quarantine corrupt
        units).
        """
        for uid in self.unit_ids(directory):
            try:
                yield uid, self._load_unit(directory / f"unit-{uid}.json", uid)
            except ConfigError:
                continue

    def outstanding(self):
        """Yield ``(uid, keys)`` for each queued, claimed or landed unit.

        ``keys`` are the cache keys of the unit's points, in unit order.
        """
        for directory in (self.queue_dir, self.claimed_dir):
            for uid, specs in self._units_in(directory):
                yield uid, [spec.key() for spec in specs]
        for uid in self.unit_ids(self.results_dir):
            try:
                records = load_results(self.result_path(uid))
            except ConfigError:
                continue
            yield uid, [record["key"] for record in records]

    def claimed_keys(self) -> set[str]:
        """The cache keys of the points in claimed units: those executing."""
        return {
            spec.key()
            for _, specs in self._units_in(self.claimed_dir)
            for spec in specs
        }

    def recover_expired(self, lease_timeout: float, uids=None) -> list[str]:
        """Re-enqueue claimed units whose claim stopped heartbeating.

        ``uids`` restricts the scan to the units one orchestrator is
        waiting on (``None`` scans everything — the ``status`` CLI).
        Returns the recovered unit ids.
        """
        recovered = []
        now = time.time()
        if uids is None:
            uids = self.unit_ids(self.claimed_dir)
        for uid in uids:
            claimed = self.claimed_path(uid)
            try:
                beat = claimed.stat().st_mtime
            except OSError:
                continue  # not claimed (anymore)
            if now - beat < lease_timeout:
                continue
            try:
                os.replace(claimed, self.queued_path(uid))
            except OSError:
                continue  # completed or re-claimed under us
            recovered.append(uid)
        return recovered

    # -- worker side ---------------------------------------------------------

    def claim_next(self, worker_id: str) -> ClaimedUnit | None:
        """Claim one queued unit via atomic rename, or ``None`` if idle.

        Units are tried in name order. Exactly one claimant wins each
        unit; losers skip to the next file. The winner re-stamps the
        claim's mtime (a rename keeps the enqueue time), which starts
        its heartbeat. A corrupt unit file is quarantined as a failure
        report (and skipped) rather than raised: one bad file must not
        kill every worker that claims it.
        """
        for uid in self.unit_ids(self.queue_dir):
            target = self.claimed_path(uid)
            try:
                os.replace(self.queued_path(uid), target)
                os.utime(target)
            except OSError:
                continue  # lost the race for this unit, or recovery took it
            try:
                specs = self._load_unit(target, uid)
            except ConfigError as exc:
                if not target.exists():
                    # recover_expired() re-enqueued the claim before its
                    # mtime was re-stamped: a lost race, not a corrupt
                    # unit.
                    continue
                self.report_failure(uid, worker_id, str(exc))
                target.unlink(missing_ok=True)
                continue
            return ClaimedUnit(id=uid, specs=specs)
        return None

    def heartbeat(self, unit: ClaimedUnit) -> None:
        """Refresh the claim's mtime (ignores a claim recovered from us)."""
        try:
            os.utime(self.claimed_path(unit.id))
        except OSError:
            pass

    def release(self, unit: ClaimedUnit) -> None:
        """Return a claimed unit to the queue (interrupted worker)."""
        try:
            os.replace(self.claimed_path(unit.id), self.queued_path(unit.id))
        except OSError:
            pass

    def complete(self, unit: ClaimedUnit) -> None:
        """Drop the claim after the result file is in place."""
        self.claimed_path(unit.id).unlink(missing_ok=True)

    def report_failure(self, uid: str, worker_id: str, error: str) -> None:
        """Record that a unit's spec itself failed (executed, raised).

        The report is the unit's terminal state for this attempt: the
        orchestrator consumes it and raises the error to the submitter,
        exactly like a local run surfacing the exception — while the
        reporting worker stays alive for other units. Like results, the
        report is salt-stamped so a stale report in a reused work dir
        is discarded instead of aborting a new sweep with an obsolete
        error.
        """
        atomic_write_json(
            self.failed_path(uid),
            {
                "unit": uid,
                "worker": worker_id,
                "error": error,
                "salt": default_salt(),
            },
        )

    def _load_unit(self, path: Path, uid: str) -> tuple[RunSpec, ...]:
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot read unit file {path}: {exc}") from None
        document = parse_json(text, f"unit file {path}")
        version = document.get("format")
        if version != PLAN_FORMAT:
            raise ConfigError(
                f"{path}: unsupported unit format {version!r} "
                f"(this reader understands format {PLAN_FORMAT})"
            )
        raw = document.get("specs")
        if not isinstance(raw, list) or not raw:
            raise ConfigError(f"{path}: 'specs' must be a non-empty list")
        try:
            specs = tuple(RunSpec.from_dict(d) for d in raw)
        except (ConfigError, KeyError, TypeError) as exc:
            raise ConfigError(f"{path}: unit spec: {exc}") from None
        if unit_id(specs) != uid:
            raise ConfigError(
                f"{path}: unit id does not match its spec — corrupt or "
                "misplaced unit file"
            )
        return specs

    # -- worker throughput ---------------------------------------------------

    def worker_stats_path(self, worker_id: str) -> Path:
        """Stats file for one worker id (sanitised to a safe filename)."""
        safe = re.sub(r"[^A-Za-z0-9._-]", "_", worker_id)[:120]
        return self.workers_dir / f"{safe}.json"

    def worker_stats(self) -> list[dict]:
        """Every worker's recorded stats, sorted by worker id.

        Unreadable files are skipped (a worker may be mid-rewrite on a
        filesystem without atomic rename); consumers get only documents
        that parsed.
        """
        if not self.workers_dir.is_dir():
            return []
        stats = []
        for path in sorted(self.workers_dir.glob("*.json")):
            try:
                doc = json.loads(path.read_text(encoding="utf-8"))
            except (OSError, ValueError):
                continue
            if isinstance(doc, dict) and doc.get("worker"):
                stats.append(doc)
        return sorted(stats, key=lambda d: str(d.get("worker")))

    # -- introspection -------------------------------------------------------

    def stop_requested(self) -> bool:
        return self.stop_path.exists()

    def status(self, lease_timeout: float | None = None) -> QueueStatus:
        """One scan of the work directory.

        Besides counting files, the scan reads every queued unit,
        counting its specs into ``queued_points`` — and quarantines any
        unit that will not parse (a zero-byte file from an interrupted
        enqueue, truncated JSON, a mismatched id, an older unit format)
        through the same :meth:`report_failure` path a worker uses for
        corrupt claims, so a broken unit is diagnosed here instead of
        by whichever worker claims it.
        """
        lease_timeout = (
            lease_timeout if lease_timeout is not None else default_lease_timeout()
        )
        now = time.time()
        expired = 0
        claimed = self.unit_ids(self.claimed_dir)
        for uid in claimed:
            try:
                beat = self.claimed_path(uid).stat().st_mtime
            except OSError:
                continue
            if now - beat >= lease_timeout:
                expired += 1
        queued = 0
        queued_points = 0
        corrupt = 0
        for uid in self.unit_ids(self.queue_dir):
            path = self.queued_path(uid)
            try:
                specs = self._load_unit(path, uid)
            except ConfigError as exc:
                if not path.exists():
                    continue  # claimed under us mid-scan: not ours to judge
                self.report_failure(uid, "status-scan", str(exc))
                path.unlink(missing_ok=True)
                corrupt += 1
                continue
            queued += 1
            queued_points += len(specs)
        return QueueStatus(
            queued=queued,
            claimed=len(claimed),
            expired=expired,
            results=len(self.unit_ids(self.results_dir)),
            failed=len(self.unit_ids(self.failed_dir)),
            stopping=self.stop_requested(),
            queued_points=queued_points,
            corrupt=corrupt,
        )


class WorkerStats:
    """One worker's ``workers/<id>.json``, kept in memory and written whole.

    Unit/point/failure counts and the last :data:`TIMESTAMPS` completion
    times, for ``/v1/stats``. The worker writes it once when it starts,
    so it is listed before its first claim; after that its heartbeat
    thread and its exit write it, so a unit costs no stats I/O.
    """

    #: Completion timestamps retained — enough to estimate a recent rate
    #: without the file growing with the sweep.
    TIMESTAMPS = 64

    def __init__(self, queue: WorkQueue, worker_id: str) -> None:
        self.path = queue.worker_stats_path(worker_id)
        self._lock = threading.Lock()
        self._changed = True  # a new worker's first write lists it
        self._document = {
            "worker": worker_id,
            "started_at": time.time(),
            "units": 0,
            "points": 0,
            "failures": 0,
            "timestamps": [],
        }

    def record(self, points: int = 1, failed: bool = False) -> None:
        """Fold one finished unit into the counters."""
        now = time.time()
        with self._lock:
            doc = self._document
            doc["units"] += 1
            doc["points"] += max(1, int(points))
            doc["failures"] += bool(failed)
            doc["timestamps"] = doc["timestamps"][1 - self.TIMESTAMPS :] + [now]
            doc["last_done_at"] = now
            self._changed = True

    def write(self) -> None:
        """Write a copy of the document if it changed since the last write."""
        with self._lock:
            if not self._changed:
                return
            self._changed = False
            document = dict(self._document)  # timestamps are never mutated
        try:
            atomic_write_json(self.path, document)
        except OSError:  # pragma: no cover - stats never take a worker down
            pass


def _group_label(group) -> str:
    """Human-readable name for one unit's (key, spec) group."""
    first = group[0][1].label()
    if len(group) == 1:
        return first
    return f"{first} (+{len(group) - 1} more)"


class QueueBackend:
    """Orchestrator side of the queue: enqueue, watch, recover, stream.

    A :class:`~repro.runner.backend.Backend` whose workers are *pulled*,
    not dealt: ``run`` enqueues every pending point, then streams each
    result back the moment its file lands — the runner folds it into the
    cache immediately, so a sweep interrupted at point N resumes with N
    warm hits. Crashed workers are detected by claim expiry and their
    units silently re-enqueued; an interrupted sweep withdraws its
    still-unclaimed units so nothing is orphaned in the queue.

    Attributes:
        work_dir: the shared work directory (required — this is the
            rendezvous point with the workers).
        lease_timeout: seconds without a heartbeat before recovery
            (default ``$REPRO_QUEUE_LEASE_TIMEOUT`` or 30).
        poll: the longest sleep between result scans, seconds. An
            empty scan sleeps :data:`FIRST_SCAN_SLEEP` (or ``poll`` if
            shorter), doubling each further empty scan up to ``poll``.
        timeout: overall seconds to wait per plan before raising
            :class:`~repro.errors.SimulationError` (``None`` waits
            forever — a queue with no workers blocks by design).
        batch: points per queue unit, or ``None`` to size units from
            each plan with :func:`unit_size`. Batching amortises the
            claim/result filesystem protocol over ``batch`` points —
            worthwhile when points are cheap relative to the protocol —
            at the cost of coarser work distribution and recovery (a
            crashed worker re-runs its whole batch, and a failing spec
            fails its unit, so the unit's other points are not
            streamed). Units already in the queue whose points are all
            pending — left by an interrupted or killed run of the same
            plan — are waited on as they are, not regrouped.
    """

    def __init__(
        self,
        work_dir: str | os.PathLike,
        lease_timeout: float | None = None,
        poll: float = DEFAULT_POLL,
        timeout: float | None = None,
        batch: int | None = None,
    ) -> None:
        if work_dir is None:
            raise ConfigError("the queue backend needs a work directory")
        self.queue = WorkQueue(work_dir)
        self.lease_timeout = (
            float(lease_timeout)
            if lease_timeout is not None
            else default_lease_timeout()
        )
        if self.lease_timeout <= 0:
            raise ConfigError(f"lease timeout must be > 0, got {self.lease_timeout:g}")
        self.poll = float(poll)
        self.timeout = timeout
        if batch is not None and batch < 1:
            raise ConfigError(f"queue batch must be >= 1, got {batch}")
        self.batch = batch
        # Indirection so tests can interrupt the orchestrator's poll
        # loop without touching the module-global time.sleep that the
        # workers share.
        self._sleep = time.sleep

    # Progress sizing: parallelism is however many workers attach, which
    # this process cannot know; report the serial width.
    @property
    def jobs(self) -> int:
        return 1

    def run(self, pending):
        queue = self.queue.ensure()
        pending = list(pending)
        # waiting maps each unit id to its (key, spec) group in unit
        # order: first the units adopted from an earlier run, then the
        # rest in groups of `batch`.
        waiting = self._adopt(pending)
        adopted = {key for group in waiting.values() for key, _ in group}
        rest = [(key, spec) for key, spec in pending if key not in adopted]
        batch = self.batch if self.batch is not None else unit_size(len(rest))
        for start in range(0, len(rest), batch):
            group = rest[start : start + batch]
            uid = queue.enqueue(*(spec for _, spec in group))
            waiting[uid] = group
        deadline = None if self.timeout is None else time.monotonic() + self.timeout
        # Lease recovery stats every outstanding unit, which is pure
        # overhead at poll frequency — lease expiry has lease_timeout
        # granularity, so a quarter of it is plenty (the first pass runs
        # immediately: a stale claim from a crashed previous run must
        # not wait).
        maintenance_every = max(self.poll, self.lease_timeout / 4)
        next_maintenance = time.monotonic()
        # The vanished-unit check lists four directories: at the first
        # empty scan, then once per `poll` of sleep, however short the
        # backed-off sleeps are.
        slept = self.poll
        discards: dict[str, int] = {}
        first_sleep = min(FIRST_SCAN_SLEEP, self.poll)
        sleep = first_sleep
        try:
            while waiting:
                progressed = False
                landed = set(queue.unit_ids(queue.results_dir))
                for uid in [u for u in waiting if u in landed]:
                    triples = self._consume(uid, waiting[uid], discards)
                    if triples is None:
                        continue
                    del waiting[uid]
                    progressed = True
                    yield from triples
                for uid in waiting.keys() & queue.unit_ids(queue.failed_dir):
                    self._raise_failure(uid, waiting[uid])
                if time.monotonic() >= next_maintenance:
                    queue.recover_expired(self.lease_timeout, uids=list(waiting))
                    next_maintenance = time.monotonic() + maintenance_every
                if waiting and not progressed:
                    if slept >= self.poll:
                        self._requeue_vanished(waiting)
                        slept = 0.0
                    if deadline is not None and time.monotonic() > deadline:
                        status = queue.status(self.lease_timeout)
                        raise SimulationError(
                            f"queue backend timed out after {self.timeout:g}s "
                            f"with {len(waiting)} unit(s) outstanding "
                            f"({status.queued} queued, {status.claimed} "
                            f"claimed) — are any 'repro queue worker' "
                            f"processes attached to {queue.root}?"
                        )
                    self._sleep(sleep)
                    slept += sleep
                    sleep = min(2 * sleep, self.poll)
                else:
                    sleep = first_sleep
        except BaseException:
            # An abandoned sweep must not leave claimable orphans: the
            # still-unclaimed units are withdrawn (claimed ones belong
            # to their workers, whose streamed results keep landing in
            # results/ for the retry to consume warm).
            for uid in waiting:
                queue.withdraw(uid)
            raise

    def _adopt(self, pending) -> dict[str, list[tuple[str, RunSpec]]]:
        """The queued, claimed or landed units whose points are all pending.

        A retried or resumed plan (an interrupted sweep, a restarted
        daemon) has fewer pending points than its first run, so sizing
        and grouping them afresh would give new unit ids: the old units
        would run anyway and their results sit in ``results/`` for
        good. Waiting on them instead runs each point once.
        """
        free = dict(pending)
        adopted: dict[str, list[tuple[str, RunSpec]]] = {}
        if not free:
            return adopted
        for uid, keys in self.queue.outstanding():
            if len(set(keys)) == len(keys) and all(key in free for key in keys):
                adopted[uid] = [(key, free.pop(key)) for key in keys]
                if not free:
                    break
        return adopted

    #: Consecutive same-unit salt discards before the sweep fails loudly
    #: instead of silently re-running forever against version-skewed
    #: workers.
    MAX_SALT_DISCARDS = 3

    def _consume(self, uid, group, discards):
        """Read, validate and clean up one unit's result file, if landed.

        Returns the unit's ``(key, spec, payload)`` triples in unit
        order, or ``None`` when the file is not (or no longer) there.
        A result stamped with a different code-fingerprint salt — a work
        directory reused across simulator versions — is discarded and
        its unit re-enqueued: serving it would launder a stale payload
        past the cache's own salt verification. A unit discarded
        :data:`MAX_SALT_DISCARDS` times means a live worker is running
        *different* code, which would loop forever — that is an error.
        """
        path = self.queue.result_path(uid)
        if not path.exists():
            return None
        try:
            records = load_results(path)
        except ConfigError:
            if not path.exists():
                # A concurrent orchestrator waiting on the same unit
                # consumed it between our scan and the read.
                return None
            raise
        by_key = {record["key"]: record for record in records}
        if len(by_key) != len(group) or any(key not in by_key for key, _ in group):
            raise SimulationError(
                f"{path} does not hold exactly the result(s) for "
                f"{_group_label(group)} — corrupt or misplaced result file"
            )
        if any(record.get("salt") != default_salt() for record in records):
            discards[uid] = discards.get(uid, 0) + 1
            if discards[uid] >= self.MAX_SALT_DISCARDS:
                raise SimulationError(
                    f"discarded {discards[uid]} results for "
                    f"{_group_label(group)} computed with a different "
                    "simulator version — a 'repro queue worker' running "
                    f"other code is attached to {self.queue.root}"
                )
            self.queue.forget(uid)
            self.queue.enqueue(*(spec for _, spec in group))
            return None
        triples = [(key, spec, by_key[key]["payload"]) for key, spec in group]
        self.queue.forget(uid)
        return triples

    def _raise_failure(self, uid: str, group) -> None:
        """Surface a worker's spec-failure report as the sweep's error.

        The report is consumed (so a retry re-attempts the unit) and the
        worker's error raised here — the queue equivalent of the
        exception a local backend would propagate directly. A report
        from a different simulator version (stale file in a reused work
        dir) is dropped instead: its error may no longer exist.
        """
        path = self.queue.failed_path(uid)
        try:
            report = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            if not path.exists():
                return  # consumed by a concurrent orchestrator
            report = {}
        if report.get("salt") != default_salt():
            path.unlink(missing_ok=True)
            return
        self.queue.forget(uid)
        raise SimulationError(
            f"{_group_label(group)} failed on worker "
            f"{report.get('worker', 'unknown')}: "
            f"{report.get('error', 'unreadable failure report')}"
        )

    def _requeue_vanished(self, waiting: dict) -> None:
        """Re-enqueue units that disappeared without producing a result.

        A concurrent orchestrator waiting on the same unit consumes the
        result file *and* the unit with it (``forget``); whoever is
        still waiting simply enqueues again. Benign races re-execute a
        point at worst — results are bit-identical by construction.

        Each directory is listed once, in the order a unit moves through
        them (``queue/``, ``claimed/``, then ``results/`` and
        ``failed/``): a unit that moves on between two listings shows up
        in the later one, so only a unit missing from all four has
        vanished.
        """
        queue = self.queue
        present: set[str] = set()
        for directory in (
            queue.queue_dir,
            queue.claimed_dir,
            queue.results_dir,
            queue.failed_dir,
        ):
            present.update(queue.unit_ids(directory))
        for uid, group in waiting.items():
            if uid not in present:
                queue.enqueue(*(spec for _, spec in group))

    def close(self) -> None:
        """Nothing to release: workers are independent processes."""
