"""Durable sweep ledger: one JSON record per submitted sweep.

The daemon's restart story. Every accepted ``POST /v1/sweeps`` writes a
record under ``<work>/server/sweeps/`` before the submission is
acknowledged::

    <work>/server/sweeps/<sweep_id>.json

A record stores identity, not progress: the submitted specs (in
submission order — result order is part of the contract) and any
terminal error. Progress is *derived* — which points are in the cache,
which units are queued or claimed — so a restarted daemon reloads the
records, re-scans cache and queue, and resumes every sweep exactly
where the filesystem says it is, with nothing to replay and no journal
to compact.

The sweep id is a content address over the ordered spec keys, so
resubmitting an identical sweep maps onto the same record — the POST is
idempotent by construction, and the second submission reports whatever
the first one already cached.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

from ..errors import ConfigError
from ..runner.cache import atomic_write_json
from ..runner.plan import RunSpec
from ..spec import parse_json

#: Version stamp of the ledger record layout.
LEDGER_FORMAT = 1


def sweep_id(specs) -> str:
    """Content address of one submission: its ordered spec keys.

    Submission order is folded in (not a sorted set): the results
    endpoint returns points in submission order, so two submissions
    that differ only in order are different sweeps — while a truly
    identical resubmission lands on the same id and therefore the same
    ledger record.
    """
    digest = hashlib.sha256()
    for spec in specs:
        digest.update(b"\n")
        digest.update(spec.key().encode())
    return digest.hexdigest()[:24]


@dataclass
class SweepRecord:
    """One submitted sweep, as persisted (identity, not progress)."""

    id: str
    specs: list[RunSpec]
    meta: dict = field(default_factory=dict)
    created_at: float = 0.0
    error: str | None = None

    @classmethod
    def create(cls, specs, meta: dict | None = None) -> "SweepRecord":
        specs = list(specs)
        if not specs:
            raise ConfigError("a sweep needs at least one point")
        return cls(
            id=sweep_id(specs),
            specs=specs,
            meta=dict(meta or {}),
            created_at=time.time(),
        )

    def to_dict(self) -> dict:
        return {
            "format": LEDGER_FORMAT,
            "id": self.id,
            "created_at": self.created_at,
            "meta": self.meta,
            "specs": [spec.to_dict() for spec in self.specs],
            "error": self.error,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SweepRecord":
        if not isinstance(d, dict):
            raise ConfigError(f"sweep record must be a dict, got {type(d).__name__}")
        version = d.get("format")
        if version != LEDGER_FORMAT:
            raise ConfigError(
                f"unsupported sweep record format {version!r} "
                f"(this reader understands format {LEDGER_FORMAT})"
            )
        # Records written before cache namespaces were removed carry a
        # "tenant" key; null is the default namespace, which still reloads.
        if d.get("tenant") is not None:
            raise ConfigError(
                f"sweep record names tenant {d['tenant']!r}: tenant "
                "namespaces were removed"
            )
        raw_specs = d.get("specs")
        if not isinstance(raw_specs, list) or not raw_specs:
            raise ConfigError("sweep record 'specs' must be a non-empty list")
        try:
            specs = [RunSpec.from_dict(s) for s in raw_specs]
        except (ConfigError, KeyError, TypeError) as exc:
            raise ConfigError(f"sweep record spec: {exc}") from None
        record = cls(
            id=str(d.get("id", "")),
            specs=specs,
            meta=dict(d.get("meta") or {}),
            created_at=float(d.get("created_at", 0.0)),
            error=d.get("error"),
        )
        if record.id != sweep_id(record.specs):
            raise ConfigError(
                "sweep record id does not match its specs — "
                "corrupt or hand-edited ledger file"
            )
        return record


class SweepLedger:
    """The on-disk ledger: atomic per-sweep records under one directory."""

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)
        self.sweeps_dir = self.root / "sweeps"

    def path_for(self, sweep: str) -> Path:
        return self.sweeps_dir / f"{sweep}.json"

    def save(self, record: SweepRecord) -> Path:
        """Persist (or overwrite — e.g. clearing an error) one record."""
        return atomic_write_json(self.path_for(record.id), record.to_dict())

    def load(self, sweep: str) -> SweepRecord:
        """Read one record; :class:`ConfigError` if missing or corrupt."""
        path = self.path_for(sweep)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"no sweep record {sweep}: {exc}") from None
        return SweepRecord.from_dict(parse_json(text, f"sweep record {path}"))

    def load_all(self) -> list[SweepRecord]:
        """Every readable record, oldest first (daemon startup reload).

        An unreadable or corrupt record is skipped, not fatal: one bad
        file must not keep the daemon from resuming every other sweep.
        """
        if not self.sweeps_dir.is_dir():
            return []
        records = []
        for path in sorted(self.sweeps_dir.glob("*.json")):
            try:
                document = json.loads(path.read_text(encoding="utf-8"))
                records.append(SweepRecord.from_dict(document))
            except (OSError, ValueError, ConfigError):
                continue
        records.sort(key=lambda r: (r.created_at, r.id))
        return records
