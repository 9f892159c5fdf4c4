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
import re
import tempfile
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path

try:  # POSIX; the no-lock fallback keeps single-process use working
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None

from ..errors import ConfigError
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

_FINGERPRINT: str | None = None


def code_fingerprint() -> str:
    """Content hash of every ``repro`` source file (memoised per process).

    Results are a pure function of (spec, simulator code); hashing the
    package source makes the cache self-invalidating on code changes
    instead of trusting a manually-bumped version constant.
    """
    global _FINGERPRINT
    if _FINGERPRINT is None:
        package_root = Path(__file__).resolve().parents[1]
        digest = hashlib.sha256()
        for path in sorted(package_root.rglob("*.py")):
            digest.update(str(path.relative_to(package_root)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _FINGERPRINT = digest.hexdigest()[:16]
    return _FINGERPRINT


def default_salt() -> str:
    return f"{CACHE_SALT}:{code_fingerprint()}"


#: Directory (under the cache root) holding per-tenant namespaces.
TENANTS_DIR = "tenants"

#: Tenant names double as directory names and salt components, so they
#: are restricted to a filesystem- and header-safe alphabet (the server
#: reads them straight out of ``X-Repro-Tenant``).
_TENANT_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")


def validate_tenant(name: str) -> str:
    """Check a tenant name against the allowed alphabet; returns it.

    Raises :class:`~repro.errors.ConfigError` on anything that could
    escape the per-tenant directory or smuggle separators into the salt
    (path components, whitespace, a leading dot).
    """
    if not isinstance(name, str) or not _TENANT_RE.match(name):
        raise ConfigError(
            f"invalid tenant name {name!r}: use 1-64 characters from "
            "[A-Za-z0-9._-], not starting with '.' or '-'"
        )
    return name


def tenant_salt(tenant: str, base: str | None = None) -> str:
    """The cache salt of one tenant's namespace.

    Suffixing the (code-fingerprinted) base salt keeps every tenant
    namespace self-invalidating on code changes *and* disjoint from
    every other tenant — two tenants caching the same spec produce
    different content addresses, so neither can read (or evict via
    content-address collision) the other's entries.
    """
    base = base if base is not None else default_salt()
    return f"{base}:tenant:{validate_tenant(tenant)}"


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
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.stem, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(
                sanitize_nonfinite(document),
                handle,
                separators=(",", ":"),
                sort_keys=True,
                allow_nan=False,
            )
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
    d = asdict(result)
    d.pop("stats")
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

    With ``tenant`` set, the cache becomes that tenant's *namespace*
    within the same cache directory: entries live under
    ``<root>/tenants/<tenant>/`` and are addressed with
    :func:`tenant_salt` (the base salt plus a tenant suffix). The
    directory split makes per-tenant accounting and eviction (``repro
    cache gc --tenant``) a plain directory scan; the salt split makes
    the namespaces cryptographically disjoint even if entries are
    copied between directories. A cache without a tenant is the default
    namespace — the one local ``Session`` runs read and write — so
    server results for the default tenant stay bit-identical warm hits
    for local sweeps of the same specs.
    """

    def __init__(
        self,
        root: str | os.PathLike = DEFAULT_CACHE_DIR,
        salt: str | None = None,
        tenant: str | None = None,
    ) -> None:
        self.base_root = Path(root)
        self.base_salt = salt if salt is not None else default_salt()
        self.tenant = validate_tenant(tenant) if tenant is not None else None
        if self.tenant is None:
            self.root = self.base_root
            self.salt = self.base_salt
        else:
            self.root = self.base_root / TENANTS_DIR / self.tenant
            self.salt = tenant_salt(self.tenant, self.base_salt)
        self.hits = 0
        self.misses = 0
        self.writes = 0

    # -- tenancy -------------------------------------------------------------

    def for_tenant(self, tenant: str | None) -> "ResultCache":
        """A sibling cache addressing ``tenant``'s namespace (or the default).

        The returned cache shares this cache's directory root and base
        salt but nothing else — hit/miss counters are per-instance.
        """
        if tenant == self.tenant:
            return self
        return ResultCache(self.base_root, salt=self.base_salt, tenant=tenant)

    def tenants(self) -> list[str]:
        """Tenant namespaces present under this cache's directory root."""
        tenants_root = self.base_root / TENANTS_DIR
        if not tenants_root.is_dir():
            return []
        return sorted(
            p.name
            for p in tenants_root.iterdir()
            if p.is_dir() and _TENANT_RE.match(p.name)
        )

    # -- addressing ----------------------------------------------------------

    def key_for(self, spec: RunSpec) -> str:
        digest = hashlib.sha256()
        digest.update(self.salt.encode())
        digest.update(b"\n")
        digest.update(spec.key().encode())
        return digest.hexdigest()

    def path_for(self, spec: RunSpec) -> Path:
        key = self.key_for(spec)
        return self.root / key[:2] / f"{key}.json"

    # -- concurrency ---------------------------------------------------------

    @contextmanager
    def lock(self):
        """Exclusive inter-process lock over structural cache mutations.

        ``put``/``get`` stay lock-free (atomic rename makes them safe),
        but operations that *scan then delete or bulk-insert* — ``gc``,
        ``clear``, and :func:`~repro.runner.sync.pull_cache` folding a
        remote tier in — must not interleave: a gc pass racing a pull
        could collect the freshly pulled entries it never saw get
        touched. The lock is an advisory ``flock`` on ``<root>/.lock``
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
        """
        path = self.path_for(spec)
        try:
            with open(path, encoding="utf-8") as handle:
                entry = json.load(handle)
            payload = entry["payload"]
            if entry["salt"] != self.salt or entry["spec"] != spec.to_dict():
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
        leaves them behind when a process dies between write and rename).
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
        for path in self.root.glob("??/*.tmp"):
            try:
                path.unlink()
            except OSError:
                pass

    def gc(self, max_bytes: int, dry_run: bool = False) -> "GCReport":
        """Size-bounded LRU eviction: shrink the cache to ``max_bytes``.

        Entries are ranked by last access (``get`` touches entries on
        hit, so warm results survive) and the least-recently-used are
        deleted oldest-first until the remaining payload fits. With
        ``dry_run=True`` nothing is deleted — the report describes what
        *would* go. Orphaned ``.tmp`` files are swept as a side effect
        of a real (non-dry) collection.

        The scan-and-delete pass holds the cache :meth:`lock`, so a
        concurrent ``repro cache pull`` (which locks for its bulk
        insert) can never land fresh entries between the scan and the
        unlink — one of the two fully precedes the other.
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
