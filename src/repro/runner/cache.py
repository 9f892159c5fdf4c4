"""Content-addressed on-disk result cache.

Every executed :class:`~repro.runner.plan.RunSpec` is memoised as one JSON
file under ``.repro-cache/``::

    .repro-cache/
        ab/
            ab3f...e1.json     # sha256(salt + "\\n" + spec.key())

The key covers the *full* spec (workload, mechanism, dtype, nsb, scale,
seed, overrides) plus a salt that by default embeds a content hash of
the ``repro`` package source: editing any simulator code — or bumping
:data:`CACHE_SALT`, or passing a custom salt — invalidates every prior
entry without touching the files, because lookups simply hash to fresh
paths. Payloads are pure JSON so the cache survives interpreter and
platform changes; a corrupt or truncated file (e.g. a killed writer on a
filesystem without atomic rename) degrades to a miss.

Writes are atomic (temp file + ``os.replace``) so concurrent sweep
processes sharing one cache directory can never observe half-written
entries.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

try:  # POSIX; the no-lock fallback keeps single-process use working
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None

from ..sim.soc import RunResult
from ..sim.stats import (
    BatchStats,
    LevelStats,
    PrefetchStats,
    RunStats,
    TrafficStats,
)
from ..utils import sanitize_nonfinite
from ..workloads.base import TraceStats
from .plan import RunSpec

#: Schema/version prefix of the cache salt. The effective default salt
#: also folds in a fingerprint of the ``repro`` package source (see
#: :func:`code_fingerprint`), so *any* code edit invalidates the cache —
#: conservative, but it can never serve results from a different
#: simulator than the one on disk. Bump this to orphan old entries even
#: when the code is unchanged (e.g. a payload schema change).
CACHE_SALT = "nvr-sim-v1"

DEFAULT_CACHE_DIR = ".repro-cache"

#: Age in seconds after which cache maintenance treats a ``.tmp`` file as
#: orphaned by a killed writer. A live ``put`` holds its temp file only
#: between one small write and its rename, so an hour-old one has no
#: owner left, and a younger one may belong to a writer in another
#: process that is about to rename it.
TMP_ORPHAN_AGE_S = 3600.0

_FINGERPRINT: str | None = None


#: Source files the simulator is made of: the Python modules and the C
#: source of the compiled kernels.
SOURCE_PATTERNS = ("*.py", "*.c")


def source_fingerprint(package_root: Path) -> str:
    """Content hash of every source file under ``package_root``."""
    digest = hashlib.sha256()
    paths = {
        path for pattern in SOURCE_PATTERNS for path in package_root.rglob(pattern)
    }
    for path in sorted(paths):
        digest.update(str(path.relative_to(package_root)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()[:16]


def code_fingerprint() -> str:
    """Content hash of every ``repro`` source file (memoised per process).

    Results are a pure function of (spec, simulator code); hashing the
    package source (see :func:`source_fingerprint`) makes the cache
    self-invalidating on code changes instead of trusting a
    manually-bumped version constant.
    """
    global _FINGERPRINT
    if _FINGERPRINT is None:
        _FINGERPRINT = source_fingerprint(Path(__file__).resolve().parents[1])
    return _FINGERPRINT


def default_salt() -> str:
    return f"{CACHE_SALT}:{code_fingerprint()}"


def _canonical_json(document) -> str:
    return json.dumps(document, separators=(",", ":"), sort_keys=True, allow_nan=False)


def atomic_write_json(path: str | os.PathLike, document: dict) -> Path:
    """Write ``document`` as canonical JSON via temp file + rename.

    Shared by cache entries and worker result files: concurrent readers
    can never observe a half-written file, a killed writer leaves only a
    ``.tmp`` orphan (swept by cache maintenance), and ``sort_keys`` makes
    the bytes independent of dict insertion order — so a payload rebuilt
    from JSON and a locally-computed one serialise identically. Non-finite
    floats become ``null`` (``allow_nan=False``): a locally-computed
    payload and one that round-tripped through a worker file must keep
    producing the same bytes, so NaN is normalised away before either is
    written.

    ``json.dumps`` runs the C encoder (``json.dump`` to a file never
    does: ~3.5x slower on a cache entry); :func:`sanitize_nonfinite` walks
    the tree only when a non-finite float makes the strict encode raise.
    """
    try:
        text = _canonical_json(document)
    except ValueError:
        text = _canonical_json(sanitize_nonfinite(document))
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.stem, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


_STATS_GROUPS = {
    "nsb": LevelStats,
    "l2": LevelStats,
    "prefetch": PrefetchStats,
    "traffic": TrafficStats,
    "batch": BatchStats,
}


def result_to_payload(result: RunResult) -> dict:
    """Serialise a :class:`RunResult` to a pure-JSON dict.

    Non-finite floats are normalised to ``None`` *here*, at payload
    construction, so the in-memory payload a cold run keeps and the one
    a warm run reads back from JSON (which cannot hold NaN) materialise
    identically.
    """
    d = {f.name: getattr(result, f.name) for f in fields(result) if f.name != "stats"}
    return sanitize_nonfinite(
        {"kind": "sim", "result": d, "stats": asdict(result.stats)}
    )


def without_base(payload: dict) -> dict:
    """The payload of a sim point's ``with_base=False`` twin.

    :meth:`~repro.sim.soc.System.run_with_base` is ``run()`` plus an
    all-hit replay that sets only ``base_cycles`` and
    ``stats.stall_cycles``, so dropping those two fields from a
    ``with_base=True`` payload gives, byte for byte, what simulating
    the point without the base pass returns. The input is not
    modified; the stats groups are shared with it.
    """
    return {
        **payload,
        "result": {**payload["result"], "base_cycles": None},
        "stats": {**payload["stats"], "stall_cycles": 0},
    }


def payload_to_result(payload: dict) -> RunResult:
    """Rebuild the :class:`RunResult` stored by :func:`result_to_payload`."""
    stats_d = dict(payload["stats"])
    groups = {name: cls(**stats_d.pop(name)) for name, cls in _STATS_GROUPS.items()}
    return RunResult(stats=RunStats(**groups, **stats_d), **payload["result"])


def trace_to_payload(stats: TraceStats) -> dict:
    """Serialise Table II trace statistics to a pure-JSON dict.

    Non-finite floats become ``None`` (see :func:`result_to_payload`).
    """
    return sanitize_nonfinite({"kind": "trace", "trace": asdict(stats)})


def payload_to_trace(payload: dict) -> TraceStats:
    return TraceStats(**payload["trace"])


def materialise(payload: dict) -> RunResult | TraceStats:
    """Turn a cached payload back into its runner return value."""
    if payload.get("kind") == "trace":
        return payload_to_trace(payload)
    return payload_to_result(payload)


@dataclass
class GCReport:
    """What one :meth:`ResultCache.gc` pass did (or would do)."""

    examined: int = 0
    total_bytes: int = 0
    removed: int = 0
    freed_bytes: int = 0
    kept: int = 0
    kept_bytes: int = 0
    dry_run: bool = field(default=False, compare=False)


class ResultCache:
    """On-disk memo of executed specs, keyed by content address.

    Every front door (a local ``Session``, the queue orchestrator folding
    worker results, ``repro serve``) writes the same entry for a point,
    so over one cache directory a point computed by any of them is a
    warm hit for all.
    """

    def __init__(
        self,
        root: str | os.PathLike = DEFAULT_CACHE_DIR,
        salt: str | None = None,
    ) -> None:
        self.root = Path(root)
        self.salt = salt if salt is not None else default_salt()
        # get() addresses entries by string concatenation: two pathlib
        # joins per lookup cost more than the read on a warm sweep.
        self._prefix = os.path.join(os.fspath(self.root), "")
        self.hits = 0
        self.misses = 0
        self.writes = 0

    # -- addressing ----------------------------------------------------------

    def key_for(self, spec: RunSpec) -> str:
        digest = hashlib.sha256()
        digest.update(self.salt.encode())
        digest.update(b"\n")
        digest.update(spec.key().encode())
        return digest.hexdigest()

    def path_for(self, spec: RunSpec) -> Path:
        return Path(self._entry_path(self.key_for(spec)))

    def _entry_path(self, key: str) -> str:
        return f"{self._prefix}{key[:2]}/{key}.json"

    # -- concurrency ---------------------------------------------------------

    @contextmanager
    def lock(self):
        """Exclusive inter-process lock over structural cache mutations.

        ``put``/``get`` stay lock-free (atomic rename makes them safe),
        but the operations that *scan then delete* — :meth:`gc` and
        :meth:`clear` — take it, so one of them fully precedes the
        other. The lock is an advisory ``flock`` on ``<root>/.lock``
        (waits, never fails); holders may call ``put`` freely but must
        not nest ``lock()``.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        with open(self.root / ".lock", "a", encoding="utf-8") as handle:
            if fcntl is not None:
                fcntl.flock(handle, fcntl.LOCK_EX)
            try:
                yield
            finally:
                if fcntl is not None:
                    fcntl.flock(handle, fcntl.LOCK_UN)

    # -- access --------------------------------------------------------------

    def get(self, spec: RunSpec) -> dict | None:
        """Cached payload for ``spec``, or ``None``; never raises.

        The stored ``salt`` and ``spec`` must match the requesting spec:
        the path already hashes both, but a cache directory copied
        between code versions — or an entry hand-copied to the
        wrong path — would otherwise be served silently. A mismatched
        entry degrades to a miss, exactly like a corrupt one.

        A hit costs one read of the entry's bytes and one decode; the
        stored spec is compared with the dict the spec built once at
        construction.
        """
        path = self._entry_path(self.key_for(spec))
        try:
            with open(path, "rb") as handle:
                entry = json.loads(handle.read())
            payload = entry["payload"]
            if entry["salt"] != self.salt or entry["spec"] != spec._dict:
                raise ValueError("entry does not match the requesting spec")
        except (OSError, ValueError, KeyError, TypeError):
            self.misses += 1
            return None
        try:
            # Touch the entry so LRU eviction (gc) sees hits even on
            # filesystems mounted noatime.
            os.utime(path)
        except OSError:
            pass
        self.hits += 1
        return payload

    def put(self, spec: RunSpec, payload: dict) -> Path:
        """Atomically store ``payload`` for ``spec``; returns the path."""
        entry = {"salt": self.salt, "spec": spec.to_dict(), "payload": payload}
        path = atomic_write_json(self.path_for(spec), entry)
        self.writes += 1
        return path

    # -- maintenance ---------------------------------------------------------

    def entries(self) -> list[Path]:
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob("??/*.json"))

    def __len__(self) -> int:
        return len(self.entries())

    def size_bytes(self) -> int:
        return sum(p.stat().st_size for p in self.entries())

    def clear(self) -> int:
        """Delete every entry; returns how many were removed.

        Also sweeps ``.tmp`` files orphaned by killed writers (mkstemp
        leaves them behind when a process dies between write and rename);
        see :meth:`_sweep_tmp_files` for which ones count as orphaned.
        """
        removed = 0
        with self.lock():
            for path in self.entries():
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
            self._sweep_tmp_files()
        return removed

    def _sweep_tmp_files(self) -> None:
        """Delete the ``.tmp`` files older than :data:`TMP_ORPHAN_AGE_S`.

        ``put`` takes no lock, so a younger temp file may be another
        process's write in flight: deleting it would fail that writer's
        rename and its sweep.
        """
        cutoff = time.time() - TMP_ORPHAN_AGE_S
        for path in self.root.glob("??/*.tmp"):
            try:
                if path.stat().st_mtime < cutoff:
                    path.unlink()
            except OSError:
                pass

    def gc(self, max_bytes: int, dry_run: bool = False) -> "GCReport":
        """Size-bounded LRU eviction: shrink the cache to ``max_bytes``.

        Entries are ranked by last access (``get`` touches entries on
        hit, so warm results survive) and the least-recently-used are
        deleted oldest-first until the remaining payload fits. With
        ``dry_run=True`` nothing is deleted — the report describes what
        *would* go. Orphaned ``.tmp`` files (see :meth:`_sweep_tmp_files`)
        are swept as a side effect of a real (non-dry) collection.

        The scan-and-delete pass holds the cache :meth:`lock`, so it
        never interleaves with a concurrent :meth:`clear` (or another
        gc): one of the two fully precedes the other.
        """
        if max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        with self.lock():
            entries = []
            for path in self.entries():
                try:
                    stat = path.stat()
                except OSError:
                    continue
                entries.append((max(stat.st_atime, stat.st_mtime), path, stat.st_size))
            entries.sort()  # least recently accessed first
            total = sum(size for _, _, size in entries)
            report = GCReport(examined=len(entries), total_bytes=total, dry_run=dry_run)
            for _, path, size in entries:
                if total <= max_bytes:
                    break
                if not dry_run:
                    try:
                        path.unlink()
                    except OSError:
                        continue
                total -= size
                report.removed += 1
                report.freed_bytes += size
            report.kept = report.examined - report.removed
            report.kept_bytes = report.total_bytes - report.freed_bytes
            if not dry_run:
                self._sweep_tmp_files()
        return report
