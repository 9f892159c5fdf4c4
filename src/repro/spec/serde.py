"""Canonical dict serialisation for the simulator's config objects.

Every knob the simulator exposes — :class:`~repro.sim.memory.hierarchy.
MemoryConfig` (with its nested cache/DRAM/CPU-traffic configs),
:class:`~repro.core.controller.NVRConfig` and
:class:`~repro.sim.npu.executor.ExecutorConfig` — round-trips through a
plain-scalar dict here, so a full system description can be content-
addressed, JSON-dumped, diffed, and rebuilt bit-identically in a worker
process or on another machine.

Canonical form rules:

* every field of the dataclass appears, defaults included — two configs
  are equal iff their dicts are equal, with no "absent means default"
  ambiguity;
* values are JSON scalars (``bool | int | float | str``) or nested
  canonical dicts / ``None``;
* :func:`canonical_json` fixes key order and separators, so
  :func:`stable_hash` is reproducible across interpreter runs and
  platforms (the golden-hash tests pin this).

``from_dict`` directions re-run each config's ``__post_init__``
validation, so a hand-edited JSON spec fails with the same
:class:`~repro.errors.ConfigError` a hand-built config would.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import fields, is_dataclass
from typing import Any, TypeVar, cast

from ..core.controller import NVRConfig
from ..errors import ConfigError
from ..sim.memory.cache import CacheConfig
from ..sim.memory.dram import DRAMConfig
from ..sim.memory.hierarchy import CPUTrafficConfig, MemoryConfig
from ..sim.npu.executor import ExecutorConfig

SCALAR_TYPES = (bool, int, float, str)

_T = TypeVar("_T")


def scalar_dict(config: object) -> dict:
    """Flat dataclass -> dict of scalars, with every field present."""
    assert is_dataclass(config), config
    out: dict = {}
    for f in fields(config):
        value = getattr(config, f.name)
        if value is not None and not isinstance(value, SCALAR_TYPES):
            raise ConfigError(
                f"{type(config).__name__}.{f.name} is not a scalar "
                f"({type(value).__name__}); cannot serialise"
            )
        out[f.name] = value
    return out


def from_scalar_dict(cls: type[_T], d: dict) -> _T:
    """Rebuild a flat config dataclass, rejecting unknown keys.

    Unknown keys are a hard error rather than ignored: a typo'd field in
    a JSON spec that silently falls back to the default would corrupt the
    content address of every run derived from it.
    """
    if not isinstance(d, dict):
        raise ConfigError(f"{cls.__name__} spec must be a dict, got {d!r}")
    known = {f.name for f in fields(cast(Any, cls))}
    unknown = sorted(set(d) - known)
    if unknown:
        raise ConfigError(
            f"unknown {cls.__name__} field(s): {', '.join(unknown)} "
            f"(known: {', '.join(sorted(known))})"
        )
    return cls(**d)


# -- per-config entry points -------------------------------------------------


def nvr_config_to_dict(config: NVRConfig) -> dict:
    return scalar_dict(config)


def nvr_config_from_dict(d: dict) -> NVRConfig:
    return from_scalar_dict(NVRConfig, d)


def executor_config_to_dict(config: ExecutorConfig) -> dict:
    return scalar_dict(config)


def executor_config_from_dict(d: dict) -> ExecutorConfig:
    return from_scalar_dict(ExecutorConfig, d)


def memory_config_to_dict(config: MemoryConfig) -> dict:
    """Serialise the full hierarchy, nested configs included."""
    return {
        "l2": scalar_dict(config.l2),
        "dram": scalar_dict(config.dram),
        "nsb": scalar_dict(config.nsb) if config.nsb is not None else None,
        "cpu_traffic": (
            scalar_dict(config.cpu_traffic)
            if config.cpu_traffic is not None
            else None
        ),
    }


def memory_config_from_dict(d: dict) -> MemoryConfig:
    if not isinstance(d, dict):
        raise ConfigError(f"memory spec must be a dict, got {d!r}")
    unknown = sorted(set(d) - {"l2", "dram", "nsb", "cpu_traffic"})
    if unknown:
        raise ConfigError(f"unknown MemoryConfig field(s): {', '.join(unknown)}")
    kwargs: dict = {}
    if d.get("l2") is not None:
        kwargs["l2"] = from_scalar_dict(CacheConfig, d["l2"])
    if d.get("dram") is not None:
        kwargs["dram"] = from_scalar_dict(DRAMConfig, d["dram"])
    if d.get("nsb") is not None:
        kwargs["nsb"] = from_scalar_dict(CacheConfig, d["nsb"])
    if d.get("cpu_traffic") is not None:
        kwargs["cpu_traffic"] = from_scalar_dict(CPUTrafficConfig, d["cpu_traffic"])
    return MemoryConfig(**kwargs)


# -- wire format -------------------------------------------------------------


def parse_json(text: str, what: str = "spec") -> dict:
    """Parse a wire-format JSON object, mapping failures to ConfigError.

    Plan files and worker result files travel between machines as JSON;
    a truncated upload or a hand-edit must surface as the same
    :class:`~repro.errors.ConfigError` a bad config value would, not as
    a raw ``JSONDecodeError`` traceback.
    """
    try:
        value = json.loads(text)
    except ValueError as exc:
        raise ConfigError(f"{what} is not valid JSON: {exc}") from None
    if not isinstance(value, dict):
        raise ConfigError(f"{what} must be a JSON object, got {type(value).__name__}")
    return value


# -- hashing -----------------------------------------------------------------


def canonical_json(d: object) -> str:
    """The one true serialisation: sorted keys, no whitespace.

    ``allow_nan=False`` makes a non-finite float a hard error here: a
    NaN inside a hashed spec would canonicalise to a literal that no
    strict parser round-trips, so it must be rejected at the source
    (specs carry no non-finite scalars by construction).
    """
    return json.dumps(d, sort_keys=True, allow_nan=False, separators=(",", ":"))


def stable_hash(d: object) -> str:
    """Platform- and process-stable content hash of a canonical dict."""
    return hashlib.sha256(canonical_json(d).encode()).hexdigest()
