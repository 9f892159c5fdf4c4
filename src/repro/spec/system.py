"""The declarative system description: :class:`SystemSpec`.

A :class:`SystemSpec` is *everything about the simulated platform except
the workload*: which mechanism runs over which memory hierarchy, with
which NVR and executor tuning. It is pure data — frozen, comparable,
JSON round-trippable via :meth:`to_dict`/:meth:`from_dict`, and stably
hashable — so a full sensitivity-study point can flow through the sweep
runner's plan → dedupe → cache → pool pipeline exactly like a scalar
knob.

Construction validates the combination, not just the parts
(the checks :func:`repro.api.make_system` used to skip):

* the mechanism must be registered;
* ``nvr`` tuning is only accepted by mechanisms that declare
  ``uses_nvr_config`` (silently ignoring it used to make depth sweeps
  of 'inorder' look flat);
* the ``nsb`` convenience toggle conflicts with a ``memory`` override
  that already configures an NSB — one of them must own the buffer.

``build(program)`` turns the description into a live
:class:`~repro.sim.soc.System`, resolving the mechanism (and through it
the executor mode) through the registries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..core.controller import NVRConfig
from ..errors import ConfigError
from ..registry import MECHANISMS, MechanismDef
from ..sim.memory.hierarchy import MemoryConfig
from ..sim.npu.executor import ExecutorConfig
from . import serde

if TYPE_CHECKING:
    from ..sim.npu.program import SparseProgram
    from ..sim.soc import System


@dataclass(frozen=True)
class SystemSpec:
    """Declarative, serialisable description of one simulated platform.

    Attributes:
        mechanism: registered mechanism name (``repro.registry.MECHANISMS``).
        nsb: convenience toggle for the paper's default 16 KiB NSB; only
            valid when ``memory`` does not already configure one.
        memory: full hierarchy override; ``None`` keeps the paper's
            defaults (256 KiB L2, no NSB).
        nvr: NVR tuning override; only for ``uses_nvr_config`` mechanisms.
        executor: issue-width / OoO-window / preload-granule override.
    """

    mechanism: str = "nvr"
    nsb: bool = False
    memory: MemoryConfig | None = None
    nvr: NVRConfig | None = None
    executor: ExecutorConfig | None = None
    # Derived canonical identity, computed once in __post_init__; not
    # part of the public constructor, repr, or equality.
    _key: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "nsb", bool(self.nsb))
        mdef = self.mechanism_def()  # raises ConfigError on unknown names
        for name, value, cls in (
            ("memory", self.memory, MemoryConfig),
            ("nvr", self.nvr, NVRConfig),
            ("executor", self.executor, ExecutorConfig),
        ):
            if value is not None and not isinstance(value, cls):
                raise ConfigError(
                    f"SystemSpec.{name} must be a {cls.__name__}, got "
                    f"{type(value).__name__}"
                )
        if self.nvr is not None and not mdef.uses_nvr_config:
            raise ConfigError(
                f"mechanism '{self.mechanism}' does not take an nvr config "
                "(only NVR-family mechanisms are tuned by NVRConfig)"
            )
        if self.nsb and self.memory is not None and self.memory.nsb is not None:
            raise ConfigError(
                "nsb=True conflicts with a memory override that already "
                "configures an NSB — size the buffer on the MemoryConfig "
                "or use the toggle, not both"
            )
        # Canonicalise: equal platforms must be equal specs — same
        # equality, hash and content key — however they were written.
        # The nsb toggle folds into the memory config, explicit
        # all-defaults configs fold to None, and the stored nsb flag is
        # (re)derived from the folded memory.
        memory = self.memory if self.memory is not None else MemoryConfig()
        if self.nsb and memory.nsb is None:
            memory = memory.with_nsb(True)
        if memory == MemoryConfig():
            memory = None
        object.__setattr__(self, "memory", memory)
        object.__setattr__(self, "nsb", memory is not None and memory.nsb is not None)
        if self.nvr == NVRConfig():
            object.__setattr__(self, "nvr", None)
        if self.executor == ExecutorConfig():
            object.__setattr__(self, "executor", None)
        # Frozen content — compute the canonical key once.
        object.__setattr__(self, "_key", serde.canonical_json(self.to_dict()))

    # -- resolution ----------------------------------------------------------

    def mechanism_def(self) -> MechanismDef:
        return MECHANISMS.get(self.mechanism)

    def resolved_memory(self) -> MemoryConfig:
        """The effective hierarchy (the nsb toggle is already folded)."""
        return self.memory if self.memory is not None else MemoryConfig()

    def build(self, program: SparseProgram) -> System:
        """Instantiate a live :class:`~repro.sim.soc.System`."""
        from ..sim.soc import System  # soc ← spec would cycle the other way

        mdef = self.mechanism_def()
        return System(
            program=program,
            memory=self.resolved_memory(),
            prefetcher_factory=mdef.factory(self.nvr),
            mode=mdef.mode,
            executor=(self.executor if self.executor is not None else ExecutorConfig()),
        )

    # -- identity ------------------------------------------------------------

    def to_dict(self) -> dict:
        """Canonical plain-scalar dict (see :mod:`repro.spec.serde`).

        The ``nsb`` toggle does not appear: construction folds it into
        the memory config, so the flag is derived state. (Hand-written
        dicts may still say ``"nsb": true`` with no memory override —
        :meth:`from_dict` accepts it.)
        """
        return {
            "mechanism": self.mechanism,
            "memory": (
                serde.memory_config_to_dict(self.memory)
                if self.memory is not None
                else None
            ),
            "nvr": (
                serde.nvr_config_to_dict(self.nvr)
                if self.nvr is not None
                else None
            ),
            "executor": (
                serde.executor_config_to_dict(self.executor)
                if self.executor is not None
                else None
            ),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SystemSpec":
        if not isinstance(d, dict):
            raise ConfigError(f"system spec must be a dict, got {d!r}")
        unknown = sorted(set(d) - {"mechanism", "nsb", "memory", "nvr", "executor"})
        if unknown:
            raise ConfigError(f"unknown SystemSpec field(s): {', '.join(unknown)}")
        return cls(
            mechanism=d.get("mechanism", "nvr"),
            nsb=d.get("nsb", False),
            memory=(
                serde.memory_config_from_dict(d["memory"])
                if d.get("memory") is not None
                else None
            ),
            nvr=(
                serde.nvr_config_from_dict(d["nvr"])
                if d.get("nvr") is not None
                else None
            ),
            executor=(
                serde.executor_config_from_dict(d["executor"])
                if d.get("executor") is not None
                else None
            ),
        )

    def key(self) -> str:
        """Canonical JSON serialisation of the full description."""
        return self._key

    def stable_hash(self) -> str:
        """Content hash, stable across interpreter runs and platforms."""
        return serde.stable_hash(self.to_dict())

    def __hash__(self) -> int:
        # The generated frozen-dataclass hash would raise on the
        # (non-frozen) config dataclasses; hash the canonical form.
        return hash(self._key)

    def label(self) -> str:
        """Compact human-readable form for progress lines and tables."""
        parts = [self.mechanism]
        memory = self.memory
        if self.nsb or (memory is not None and memory.nsb is not None):
            parts.append("nsb")
        text = "/".join(parts)
        if memory is not None:
            l2_kib = memory.l2.size_bytes // 1024
            if l2_kib != 256:
                text += f" l2={l2_kib}K"
            if memory.nsb is not None and memory.nsb.size_bytes != 16 * 1024:
                text += f" nsb={memory.nsb.size_bytes // 1024}K"
        if self.nvr is not None:
            text += f" nvr(d{self.nvr.depth_tiles},w{self.nvr.vector_width})"
        if self.executor is not None:
            text += f" iw{self.executor.issue_width}"
        return text
