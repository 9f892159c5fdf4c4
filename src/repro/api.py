"""Top-level convenience API.

Wraps workload building, mechanism selection and system construction into
two calls::

    from repro import run_workload, compare_mechanisms

    result = run_workload("gcn", mechanism="nvr")
    table = compare_mechanisms("ds", dtype="int8", nsb=True)

Every knob the experiments sweep (dtype, NSB, scale, seed, runahead
depth/width, memory geometry, issue width) is exposed as a keyword
argument, and every knob is spec-able: mechanism names resolve through
:data:`repro.registry.MECHANISMS`, and object-valued overrides
(``memory=``, ``nvr_config=``, ``executor=``) are folded into a
serialisable :class:`~repro.spec.SystemSpec`.

Both calls build :class:`~repro.runner.RunSpec` points and run them
through a :class:`~repro.session.Session` — the process-wide
:func:`repro.session.default_session` unless ``compare_mechanisms`` is
handed one as ``session=`` — so single points and sweeps alike
deduplicate and memoise in the on-disk result cache: a repeated
``run_workload`` call is a warm hit, exactly like a sweep point. For
anything beyond one-off calls (shared worker pools, scratch caches,
grids), use a ``Session`` directly.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .core import NVRConfig
from .registry import MECHANISM_ORDER, MECHANISMS
from .sim.memory.hierarchy import MemoryConfig
from .sim.npu.executor import ExecutorConfig
from .sim.npu.program import SparseProgram
from .sim.soc import RunResult, System
from .spec import SystemSpec
from .workloads import WORKLOAD_ORDER
from .workloads.registry import DTYPE_BYTES

if TYPE_CHECKING:
    from .session import Session

WORKLOADS: tuple[str, ...] = WORKLOAD_ORDER

__all__ = [
    "DTYPE_BYTES",
    "MECHANISMS",
    "MECHANISM_ORDER",
    "WORKLOADS",
    "compare_mechanisms",
    "make_system",
    "run_workload",
]


def make_system(
    program: SparseProgram,
    mechanism: str = "nvr",
    nsb: bool = False,
    memory: MemoryConfig | None = None,
    nvr_config: NVRConfig | None = None,
    executor: ExecutorConfig | None = None,
) -> System:
    """Wire a lowered program to a mechanism and memory hierarchy.

    Incompatible combinations raise :class:`~repro.errors.ConfigError`
    rather than being silently resolved: an ``nvr_config`` for a mechanism that
    does not use one, or ``nsb=True`` alongside a ``memory`` override
    that already configures an NSB.
    """
    spec = SystemSpec(
        mechanism=mechanism,
        nsb=nsb,
        memory=memory,
        nvr=nvr_config,
        executor=executor,
    )
    return spec.build(program)


def run_workload(
    workload: str,
    mechanism: str = "nvr",
    dtype: str = "fp16",
    nsb: bool = False,
    scale: float = 1.0,
    seed: int = 0,
    with_base: bool = False,
    memory: MemoryConfig | None = None,
    nvr_config: NVRConfig | None = None,
    executor: ExecutorConfig | None = None,
    **workload_kwargs,
) -> RunResult:
    """Build one Table II workload and run it under one mechanism.

    Args:
        workload: DS, GAT, GCN, GSABT, H2O, MK, SCN or ST.
        mechanism: any registered mechanism (inorder, ooo, stream, imp,
            dvr, nvr, preload, ...).
        dtype: int8 / fp16 / int32 (the Fig. 5 panels).
        nsb: enable the 16 KiB Non-blocking Speculative Buffer.
        scale: trace size multiplier (1.0 = evaluation default).
        with_base: also run a perfect-memory pass to fill
            ``result.base_cycles`` (the Fig. 5 base/stall split).

    Executes through :func:`~repro.session.default_session`, so the point
    is content-addressed and memoised in the on-disk result cache —
    repeating the call (examples, notebooks) is a warm hit. The
    ``workload_kwargs`` are part of that content address and must be
    scalars (a :class:`~repro.errors.ConfigError` otherwise).
    """
    from .runner import RunSpec
    from .session import default_session

    spec = RunSpec(
        workload,
        mechanism=mechanism,
        dtype=dtype,
        nsb=nsb,
        scale=scale,
        seed=seed,
        with_base=with_base,
        memory=memory,
        nvr=nvr_config,
        executor=executor,
        workload_args=tuple(workload_kwargs.items()),
    )
    return default_session().run(spec)


_SPEC_FIELDS = ("dtype", "nsb", "scale", "seed", "with_base")


def compare_mechanisms(
    workload: str,
    mechanisms: tuple[str, ...] = MECHANISM_ORDER,
    session: Session | None = None,
    memory: MemoryConfig | None = None,
    nvr_config: NVRConfig | None = None,
    executor: ExecutorConfig | None = None,
    **kwargs,
) -> dict[str, RunResult]:
    """Run one workload under several mechanisms; returns name -> result.

    Submits the mechanism sweep through ``session`` (default: the
    process-wide :func:`~repro.session.default_session`), so points
    deduplicate, execute across its worker processes and memoise in its
    cache — pass a ``Session`` to share those with a larger sweep.

    Object-valued overrides are first-class plan content: ``memory=``
    and ``executor=`` apply to every mechanism, while ``nvr_config=``
    tunes exactly the mechanisms that declare ``uses_nvr_config``
    (passing it alongside baselines is how the paper's sensitivity
    sweeps are expressed). Remaining keyword arguments are forwarded to
    the workload builder and must be scalars — they are part of each
    point's content address.
    """
    from .errors import ConfigError
    from .runner import RunSpec
    from .session import default_session

    if nvr_config is not None and not any(
        MECHANISMS.get(m).uses_nvr_config for m in mechanisms
    ):
        raise ConfigError(
            "nvr_config was passed but none of the compared mechanisms "
            f"({', '.join(mechanisms)}) uses one — the sweep would "
            "silently ignore it"
        )
    spec_kwargs = {k: kwargs.pop(k) for k in _SPEC_FIELDS if k in kwargs}
    workload_args = tuple(kwargs.items())
    specs = [
        RunSpec(
            workload,
            mechanism=m,
            memory=memory,
            nvr=nvr_config if MECHANISMS.get(m).uses_nvr_config else None,
            executor=executor,
            workload_args=workload_args,
            **spec_kwargs,
        )
        for m in mechanisms
    ]
    session = session or default_session()
    results = session.sweep(specs).results
    return dict(zip(mechanisms, results))
