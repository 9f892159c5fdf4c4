"""Plug-in registries: the extension points of the simulator.

Three axes of the system are open for extension without touching
:mod:`repro.api`:

* **mechanisms** (this module's :data:`MECHANISMS`) — a named pairing of
  a prefetcher factory with an execution-engine mode, the unit the
  paper's Fig. 5 bars compare;
* **executor modes** (:data:`repro.sim.npu.executor.ENGINES`) — the
  execution models themselves (in-order, ideal OoO, explicit preload);
* **workloads** (:data:`repro.workloads.registry.WORKLOAD_BUILDERS`) —
  the Table II trace builders.

All three are instances of the same :class:`Registry`, so registering a
new scenario is one call (or decorator) next to its implementation::

    from repro.registry import MECHANISMS, MechanismDef
    MECHANISMS.register(
        "mypf", MechanismDef("mypf", MyPrefetcher, mode="inorder")
    )

and every consumer — :func:`repro.api.make_system`, the sweep runner,
the CLI choices — picks it up, because they all resolve names through
the registry at call time.

One caveat for parallel sweeps: worker processes rebuild everything by
re-importing ``repro`` and resolving the pickled spec's names, so a
registration must happen at *import time* of a module the workers also
import. On Linux the default ``fork`` start method inherits the parent's
registrations for free; on spawn platforms (macOS/Windows), register in
your package's ``__init__`` rather than in a script body, or run with
``jobs=1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

from .errors import ConfigError, ReproError
from .prefetch import (
    DecoupledVectorRunahead,
    IndirectMemoryPrefetcher,
    NullPrefetcher,
    Prefetcher,
    StreamPrefetcher,
)


class Registry:
    """A named ``str -> definition`` mapping with decorator registration.

    Lookup failures raise the registry's error class with the known names
    listed, so a typo in a mechanism/mode/workload name is always a
    one-line diagnosis. Iteration order is registration order.
    """

    def __init__(self, kind: str, error: type[ReproError] = ConfigError) -> None:
        self.kind = kind
        self.error = error
        self._entries: dict[str, object] = {}

    # -- registration --------------------------------------------------------

    def register(self, name: str, value=None, *, replace: bool = False):
        """Register ``value`` under ``name``; usable as a decorator.

        Duplicate names raise unless ``replace=True`` — silently shadowing
        a built-in mechanism is almost always a bug in an extension.
        """
        if value is None:
            return lambda v: self.register(name, v, replace=replace)
        if name in self._entries and not replace:
            raise self.error(
                f"{self.kind} '{name}' is already registered "
                "(pass replace=True to override)"
            )
        self._entries[name] = value
        return value

    def unregister(self, name: str) -> None:
        """Remove an entry (tests and throwaway extensions)."""
        self._entries.pop(name, None)

    # -- lookup --------------------------------------------------------------

    def get(self, name: str):
        try:
            return self._entries[name]
        except KeyError:
            raise self.error(
                f"unknown {self.kind} '{name}' "
                f"(known: {', '.join(self._entries)})"
            ) from None

    def names(self) -> tuple[str, ...]:
        return tuple(self._entries)

    # -- mapping protocol ----------------------------------------------------

    def __getitem__(self, name: str):
        return self.get(name)

    def __contains__(self, name: object) -> bool:
        return name in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def keys(self):
        return self._entries.keys()

    def items(self):
        return self._entries.items()

    def __repr__(self) -> str:
        return f"Registry({self.kind!r}, {list(self._entries)})"


@dataclass(frozen=True)
class MechanismDef:
    """One Fig. 5 bar: a prefetcher factory bound to an engine mode.

    Attributes:
        name: registry key (also the CLI spelling).
        prefetcher: zero-arg factory — or, when ``uses_nvr_config``,
            a one-arg factory taking ``NVRConfig | None``.
        mode: execution-engine name resolved through
            :data:`repro.sim.npu.executor.ENGINES`.
        uses_nvr_config: whether the mechanism is tuned by an
            :class:`~repro.core.controller.NVRConfig`; passing one to any
            other mechanism is a :class:`~repro.errors.ConfigError`.
    """

    name: str
    prefetcher: Callable[..., Prefetcher]
    mode: str = "inorder"
    uses_nvr_config: bool = False

    def factory(self, nvr_config=None) -> Callable[[], Prefetcher]:
        """A fresh-prefetcher-per-run factory, with config validation."""
        if nvr_config is not None and not self.uses_nvr_config:
            raise ConfigError(
                f"mechanism '{self.name}' does not take an nvr_config "
                "(only NVR-family mechanisms are tuned by NVRConfig)"
            )
        if self.uses_nvr_config:
            builder = self.prefetcher
            return lambda: builder(nvr_config)
        return self.prefetcher


#: Mechanism registry: the paper's six Fig. 5 bars plus 'preload',
#: Gemmini's native explicit-DMA operating mode (the Sec. II baseline
#: whose over-fetch motivates Figs. 1b/7).
MECHANISMS = Registry("mechanism")

# The NVR prefetcher lives in repro.core; import it here (not at module
# top) only to keep the registration block self-contained and readable.
from .core.nvr import NVRPrefetcher  # noqa: E402

MECHANISMS.register("inorder", MechanismDef("inorder", NullPrefetcher))
MECHANISMS.register("ooo", MechanismDef("ooo", NullPrefetcher, mode="ooo"))
MECHANISMS.register("stream", MechanismDef("stream", StreamPrefetcher))
MECHANISMS.register("imp", MechanismDef("imp", IndirectMemoryPrefetcher))
MECHANISMS.register("dvr", MechanismDef("dvr", DecoupledVectorRunahead))
MECHANISMS.register("nvr", MechanismDef("nvr", NVRPrefetcher, uses_nvr_config=True))
MECHANISMS.register("preload", MechanismDef("preload", NullPrefetcher, mode="preload"))

#: The paper figures' bar order (excludes the preload baseline).
MECHANISM_ORDER: tuple[str, ...] = (
    "inorder",
    "ooo",
    "stream",
    "imp",
    "dvr",
    "nvr",
)
