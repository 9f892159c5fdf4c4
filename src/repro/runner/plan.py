"""Sweep plans: declarative simulation points and their expansion.

A :class:`RunSpec` is the unit of work of the whole reproduction: one
(workload, dtype, scale, seed) trace paired with a full
:class:`~repro.spec.SystemSpec` platform description. Every figure
runner, the ``sweep``/``ablate`` CLIs and the benchmarks express their
work as a flat list of specs — a *plan* — and hand it to
:class:`~repro.runner.pool.SweepRunner`, which deduplicates, caches and
parallelises the execution.

Specs serialise to canonical JSON (:meth:`RunSpec.key`), including every
object-valued override — memory hierarchies, NVR tuning, executor
widths — so that

* they pickle cheaply across worker processes,
* the key content-addresses the on-disk result cache, and
* identical points submitted by different figures collapse to one run.

The ``mechanism``/``nsb``/``memory``/``nvr``/``executor`` constructor
arguments are conveniences: ``__post_init__`` folds them into one
canonical ``system`` field, so two specs describing the same platform
compare (and hash) equal however they were written.

:class:`Plan` wraps a spec list in a versioned wire format
(``to_json``/``from_json``), so compiled plans can leave the process:
``repro plan export`` writes one, ``repro sweep --spec`` executes one,
and ``repro serve`` accepts one as a sweep body.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from ..core.controller import NVRConfig
from ..errors import ConfigError
from ..sim.memory.cache import CacheConfig
from ..sim.memory.hierarchy import MemoryConfig
from ..sim.npu.executor import ExecutorConfig
from ..spec import SystemSpec, canonical_json, parse_json
from ..utils import KIB
from ..workloads.registry import elem_bytes

Scalar = bool | int | float | str


def shape_l2(size_kib: int) -> CacheConfig:
    """Shape an L2 of ``size_kib`` with power-of-two sets (Fig. 9 sweep)."""
    size_bytes = size_kib * KIB
    n_lines = size_bytes // 64
    assoc = 8
    while n_lines % assoc or (n_lines // assoc) & (n_lines // assoc - 1):
        assoc += 1
        if assoc > n_lines:
            raise ConfigError(f"cannot shape a {size_kib} KiB L2")
    return CacheConfig(
        size_bytes=size_bytes,
        assoc=assoc,
        line_bytes=64,
        hit_latency=18,
        mshr_entries=64,
        name="l2",
    )


@dataclass(frozen=True)
class RunSpec:
    """One point of a sweep plan.

    ``kind`` selects the worker: ``"sim"`` runs the full simulator and
    yields a :class:`~repro.sim.soc.RunResult`; ``"trace"`` only lowers
    the workload and yields its :class:`~repro.workloads.base.TraceStats`
    (the Table II path).

    The platform side lives in ``system``; pass either a ready
    :class:`~repro.spec.SystemSpec` or the convenience arguments
    (``mechanism``, ``nsb``, ``memory``, ``nvr``, ``executor``) — never
    both.
    """

    workload: str
    mechanism: str | None = None  # default "nvr"; None detects conflicts
    dtype: str = "fp16"
    nsb: bool | None = None  # default False; None detects conflicts
    scale: float = 1.0
    seed: int = 0
    with_base: bool = False
    memory: MemoryConfig | None = None
    nvr: NVRConfig | None = None
    executor: ExecutorConfig | None = None
    workload_args: tuple[tuple[str, Scalar], ...] = ()
    kind: str = "sim"
    system: SystemSpec | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("sim", "trace"):
            raise ConfigError(f"unknown spec kind '{self.kind}'")
        # Validate here, in the submitting process, so a bad dtype is a
        # ConfigError at plan build time rather than a KeyError re-raised
        # out of a worker future.
        elem_bytes(self.dtype)
        for key, value in self.workload_args:
            if not isinstance(value, (bool, int, float, str)):
                raise ConfigError(
                    f"workload arg '{key}' must be a scalar, got "
                    f"{type(value).__name__}"
                )
        # Canonical types and argument order, so equal points (scale=1 vs
        # scale=1.0, nsb=1 vs nsb=True) hash to equal content keys.
        # workload_args values are deliberately NOT coerced: they are
        # forwarded verbatim to the builders, so their type is part of
        # the point's identity.
        object.__setattr__(self, "scale", float(self.scale))
        object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(self, "with_base", bool(self.with_base))
        object.__setattr__(self, "workload_args", tuple(sorted(self.workload_args)))
        # Fold the convenience platform arguments into one canonical
        # SystemSpec, then clear them: the spec's identity (equality,
        # key(), pickle payload) lives in `system` alone.
        if self.system is not None:
            if (
                self.memory is not None
                or self.nvr is not None
                or self.executor is not None
            ):
                raise ConfigError(
                    "pass the platform either as system= or as "
                    "memory=/nvr=/executor= overrides, not both"
                )
            # mechanism/nsb may be omitted or repeated consistently —
            # but an *explicit conflicting* value must not be silently
            # overwritten by the system's (hence the None sentinels).
            if self.mechanism is not None and self.mechanism != self.system.mechanism:
                raise ConfigError(
                    f"mechanism='{self.mechanism}' conflicts with "
                    f"system.mechanism='{self.system.mechanism}'"
                )
            if self.nsb is not None and bool(self.nsb) != self.system.nsb:
                raise ConfigError(
                    f"nsb={bool(self.nsb)} conflicts with "
                    f"system.nsb={self.system.nsb} (set nsb on the "
                    "SystemSpec instead)"
                )
        else:
            object.__setattr__(
                self,
                "system",
                SystemSpec(
                    mechanism=(self.mechanism if self.mechanism is not None else "nvr"),
                    nsb=bool(self.nsb) if self.nsb is not None else False,
                    memory=self.memory,
                    nvr=self.nvr,
                    executor=self.executor,
                ),
            )
        object.__setattr__(self, "mechanism", self.system.mechanism)
        object.__setattr__(self, "nsb", self.system.nsb)
        object.__setattr__(self, "memory", None)
        object.__setattr__(self, "nvr", None)
        object.__setattr__(self, "executor", None)
        # The spec is frozen, so its dict and content key can never go
        # stale — compute them once here rather than re-serialising the
        # nested system dict at every dedupe/cache/hash call site. The
        # dict stays private: ResultCache.get compares stored entries
        # against it, and to_dict() hands callers a fresh one.
        spec_dict = self.to_dict()
        object.__setattr__(self, "_dict", spec_dict)
        object.__setattr__(self, "_key", canonical_json(spec_dict))

    # -- identity ------------------------------------------------------------

    def to_dict(self) -> dict:
        """Plain-scalar dict (JSON round-trippable via :meth:`from_dict`)."""
        return {
            "workload": self.workload,
            "dtype": self.dtype,
            "scale": self.scale,
            "seed": self.seed,
            "with_base": self.with_base,
            "workload_args": [list(pair) for pair in self.workload_args],
            "kind": self.kind,
            "system": self.system.to_dict(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RunSpec":
        d = dict(d)
        d["workload_args"] = tuple((k, v) for k, v in d.get("workload_args", ()))
        if "system" in d:
            d["system"] = SystemSpec.from_dict(d["system"])
        return cls(**d)

    def key(self) -> str:
        """Canonical serialisation — the cache's content address."""
        return self._key

    def __hash__(self) -> int:
        # The generated frozen-dataclass hash would raise on the
        # (non-frozen) config objects inside `system`; the canonical key
        # already is the spec's identity.
        return hash(self._key)

    def label(self) -> str:
        """Short human-readable form for progress lines."""
        if self.kind == "trace":
            return f"trace:{self.workload} x{self.scale:g} s{self.seed}"
        text = (
            f"{self.workload}/{self.system.label()}/{self.dtype}"
            f" x{self.scale:g} s{self.seed}"
        )
        if self.workload_args:
            text += " " + ",".join(f"{k}={v}" for k, v in self.workload_args)
        return text


def parse_specs(specs_d: list, what: str = "plan spec") -> list[RunSpec]:
    """Parse spec dicts that come from outside the program.

    The one place plan files and server submissions turn into specs:
    anything malformed — a non-object entry, an unknown or missing
    field, a value of the wrong type — is a :class:`ConfigError` naming
    the entry by index, never a bare ``TypeError``/``ValueError``.
    """
    specs = []
    for i, spec_d in enumerate(specs_d):
        if not isinstance(spec_d, dict):
            raise ConfigError(f"{what} #{i} must be an object")
        try:
            specs.append(RunSpec.from_dict(spec_d))
        except ConfigError as exc:
            raise ConfigError(f"{what} #{i}: {exc}") from None
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{what} #{i} is malformed: {exc}") from None
    return specs


#: Wire-format version of plan and result files. Bump on incompatible
#: layout changes; readers reject other versions instead of mis-parsing
#: them.
PLAN_FORMAT = 1


@dataclass
class Plan:
    """A wire-format sweep plan: an ordered list of :class:`RunSpec` points.

    The unit that leaves the process: ``to_json``/``from_json`` round-trip
    every spec (via its canonical :class:`~repro.spec.SystemSpec` dict),
    so a plan compiled on one machine can be shipped to another and
    executed bit-identically. ``meta`` carries free-form provenance
    (source command, scale); it never contributes to any content
    address.
    """

    specs: list[RunSpec] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.specs)

    def unique_specs(self) -> list[RunSpec]:
        """The deduplicated points, sorted by content key.

        Sorting by key makes the order a function of plan *content* —
        two plans listing the same points in different orders dedupe
        identically.
        """
        unique = {spec.key(): spec for spec in self.specs}
        return [unique[key] for key in sorted(unique)]

    # -- wire format ---------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "format": PLAN_FORMAT,
            "meta": self.meta,
            "specs": [spec.to_dict() for spec in self.specs],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Plan":
        if not isinstance(d, dict):
            raise ConfigError(f"plan must be a dict, got {type(d).__name__}")
        version = d.get("format")
        if version != PLAN_FORMAT:
            raise ConfigError(
                f"unsupported plan format {version!r} "
                f"(this reader understands format {PLAN_FORMAT})"
            )
        unknown = sorted(set(d) - {"format", "meta", "specs"})
        if unknown:
            raise ConfigError(f"unknown plan field(s): {', '.join(unknown)}")
        specs_d = d.get("specs")
        if not isinstance(specs_d, list):
            raise ConfigError("plan 'specs' must be a list")
        meta = d.get("meta", {})
        if not isinstance(meta, dict):
            raise ConfigError("plan 'meta' must be an object")
        return cls(specs=parse_specs(specs_d), meta=meta)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=1, sort_keys=True, allow_nan=False)

    @classmethod
    def from_json(cls, text: str) -> "Plan":
        return cls.from_dict(parse_json(text, "plan"))

    def save(self, path: str | os.PathLike) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json() + "\n", encoding="utf-8")
        return path

    @classmethod
    def load(cls, path: str | os.PathLike) -> "Plan":
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot read plan file {path}: {exc}") from None
        try:
            return cls.from_json(text)
        except ConfigError as exc:
            raise ConfigError(f"{path}: {exc}") from None
