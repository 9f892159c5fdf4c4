"""Session + Grid: the one experiment object behind every entry point.

A :class:`Session` owns the execution policy of a set of experiments —
result cache, backend, worker count, progress — exactly once, and it is
the only execution handle: :func:`repro.api.run_workload` and
:func:`repro.api.compare_mechanisms` run on the process-wide
:func:`default_session` unless handed one, the CLI builds one per
invocation from the shared flags, and every figure runner takes one as
``session=`` so a whole report shares a single cache and worker pool::

    from repro import Grid, Session

    with Session(jobs=4) as session:
        point = session.run("gcn", mechanism="nvr", scale=0.3)
        rs = session.sweep(
            Grid(
                workload=["gcn", "ds"],
                mechanism=["inorder", "nvr"],
                dtype=["int8", "fp16"],
                scale=0.3,
            )
        )
        print(rs.pivot("workload", "mechanism").to_markdown())

:class:`Grid` is the only sweep builder: every keyword is an axis
(scalar or sequence), and the cartesian product expands deterministically
— in axis declaration order, workload-major for the canonical axes — to
:class:`~repro.runner.RunSpec` points. Besides the spec axes
(``workload``/``mechanism``/``dtype``/``nsb``/``scale``/``seed``/
``with_base``/``kind`` and the object-valued
``memory``/``nvr``/``executor`` overrides) it accepts derived platform
axes (``l2_kib``, ``nsb_kib``, ``cpu_traffic``, ``nvr_depth``,
``nvr_width``, ``nvr_fuzz``, ``issue_width``, ``ooo_window``); any other
keyword sweeps a workload argument (``topk_ratio=[2, 4, 8]``). Grid
expansion is pinned by the golden hashes in
``tests/golden_spec_keys.json`` — the same discipline as the spec
serialisation format.

``session.sweep`` returns a :class:`~repro.resultset.ResultSet`;
``session.run`` executes a single point through the same dedupe/cache
path, so repeated point runs (examples, notebooks) are warm hits like
sweeps.

The default cache directory honours the ``REPRO_CACHE_DIR`` environment
variable (falling back to ``.repro-cache/``), so examples, tests and CI
jobs can share one cache without threading a path everywhere.
"""

from __future__ import annotations

import argparse
import itertools
import os
from typing import Iterator

from .core.controller import NVRConfig
from .core.nsb import nsb_config
from .errors import ConfigError
from .resultset import ResultSet
from .runner import (
    Backend,
    DEFAULT_CACHE_DIR,
    Plan,
    PlanReport,
    QueueBackend,
    ResultCache,
    RunSpec,
    SweepRunner,
    shape_l2,
)
from .runner.progress import NullProgress, Progress
from .runner.queue import DEFAULT_POLL
from .sim.memory.hierarchy import MemoryConfig, default_l2_config
from .sim.npu.executor import ExecutorConfig

__all__ = [
    "Grid",
    "Session",
    "add_session_arguments",
    "default_session",
    "resolve_cache_dir",
    "session_from_args",
    "set_default_session",
]

#: Environment override for the default cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def resolve_cache_dir(explicit: str | os.PathLike | None = None) -> str | os.PathLike:
    """Explicit path > ``$REPRO_CACHE_DIR`` > ``.repro-cache/``."""
    if explicit is not None:
        return explicit
    return os.environ.get(CACHE_DIR_ENV) or DEFAULT_CACHE_DIR


# ---------------------------------------------------------------------------
# Grid — declarative cartesian sweep builder
# ---------------------------------------------------------------------------

#: Axes forwarded to RunSpec verbatim (in canonical expansion order).
_SPEC_AXES: tuple[str, ...] = (
    "workload",
    "mechanism",
    "dtype",
    "nsb",
    "scale",
    "seed",
    "with_base",
    "kind",
    "memory",
    "nvr",
    "executor",
)

#: Derived axes: grid name -> config field (the memory axes shape a
#: whole MemoryConfig, so they are listed by name only).
_MEMORY_AXES = ("l2_kib", "nsb_kib", "cpu_traffic")
_NVR_AXES = {
    "nvr_depth": "depth_tiles",
    "nvr_width": "vector_width",
    "nvr_fuzz": "fuzz_vectors",
}
_EXECUTOR_AXES = {"issue_width": "issue_width", "ooo_window": "ooo_window"}


def _tuple(value) -> tuple:
    """Normalise an axis: scalars become one-element tuples."""
    if isinstance(value, (list, tuple)):
        return tuple(value)
    return (value,)


class Grid:
    """A declarative cartesian sweep: every keyword is an axis.

    Expansion is deterministic: axes expand in declaration order (later
    axes vary fastest), so ``Grid(workload=ws, mechanism=ms)`` is
    workload-major like the paper figures' bar order. Derived platform
    axes combine into one config override per point (``l2_kib`` +
    ``nsb_kib`` become a single
    :class:`~repro.sim.memory.hierarchy.MemoryConfig`); combining a
    derived axis with its object-valued override (``memory=`` with
    ``l2_kib=``) is a :class:`~repro.errors.ConfigError`, and so is an
    axis value no spec can hold (``scale="x"``), named by its point.
    """

    def __init__(self, **axes) -> None:
        if "workload" not in axes:
            raise ConfigError("a Grid needs at least a workload axis")
        for override, derived in (
            ("memory", _MEMORY_AXES),
            ("nvr", _NVR_AXES),
            ("executor", _EXECUTOR_AXES),
        ):
            clashes = sorted(set(axes) & set(derived))
            if override in axes and clashes:
                raise ConfigError(
                    f"pass the {override} axis either as {override}= or as "
                    f"{', '.join(clashes)}, not both"
                )
        self._axes: dict[str, tuple] = {
            name: _tuple(value) for name, value in axes.items()
        }
        for name, values in self._axes.items():
            if not values:
                raise ConfigError(f"grid axis '{name}' has no values")

    @property
    def axes(self) -> dict[str, tuple]:
        """The declared axes (name -> value tuple), in declaration order."""
        return dict(self._axes)

    def __len__(self) -> int:
        size = 1
        for values in self._axes.values():
            size *= len(values)
        return size

    def __iter__(self) -> Iterator[RunSpec]:
        return iter(self.specs())

    def __repr__(self) -> str:
        shape = " x ".join(f"{name}[{len(v)}]" for name, v in self._axes.items())
        return f"Grid({shape} = {len(self)} points)"

    def _spec_for(self, point: dict) -> RunSpec:
        kwargs = {name: point.pop(name) for name in _SPEC_AXES if name in point}
        if any(name in point for name in _MEMORY_AXES):
            l2_kib = point.pop("l2_kib", None)
            nsb_kib = point.pop("nsb_kib", None)
            memory = MemoryConfig(
                l2=default_l2_config() if l2_kib is None else shape_l2(l2_kib),
                nsb=None if nsb_kib is None else nsb_config(size_kib=nsb_kib),
            )
            if point.pop("cpu_traffic", False):
                memory = memory.with_cpu_traffic()
            kwargs["memory"] = memory
        nvr = {
            field: point.pop(name) for name, field in _NVR_AXES.items() if name in point
        }
        if nvr:
            kwargs["nvr"] = NVRConfig(**nvr)
        executor = {
            field: point.pop(name)
            for name, field in _EXECUTOR_AXES.items()
            if name in point
        }
        if executor:
            kwargs["executor"] = ExecutorConfig(**executor)
        return RunSpec(workload_args=tuple(point.items()), **kwargs)

    def specs(self) -> list[RunSpec]:
        """Expand to :class:`~repro.runner.RunSpec` points, deterministically."""
        names = list(self._axes)
        specs = []
        for combo in itertools.product(*self._axes.values()):
            point = dict(zip(names, combo))
            try:
                specs.append(self._spec_for(dict(point)))
            except (ConfigError, TypeError, ValueError) as exc:
                raise ConfigError(f"grid point {point}: {exc}") from None
        return specs

    def plan(self, **meta) -> Plan:
        """The expansion as a wire-format :class:`~repro.runner.Plan`."""
        return Plan(specs=self.specs(), meta={"source": "grid", **meta})


# ---------------------------------------------------------------------------
# Session — cache + backend + jobs, owned once
# ---------------------------------------------------------------------------


class Session:
    """Owns execution policy (cache, backend, jobs, progress) once.

    Args:
        jobs: worker processes (1 = inline serial execution).
        cache: ``None``/``True`` for the default on-disk cache (under
            :func:`resolve_cache_dir`), ``False`` to disable caching, or
            a ready :class:`~repro.runner.ResultCache`.
        cache_dir: directory for the default cache (ignored when
            ``cache`` is an object or ``False``).
        backend: a ready :class:`~repro.runner.Backend`, or ``None``
            for the local pool of ``jobs`` workers. A session whose
            points run in ``repro queue worker`` processes is built by
            :meth:`remote`.
        progress: ``True`` for live progress lines, ``False``/``None``
            for silence, or a progress object.

    The underlying :class:`~repro.runner.SweepRunner` is built lazily on
    first use, so constructing a Session is free. Use the session as a
    context manager (or call :meth:`close`) to release worker processes.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: ResultCache | bool | None = None,
        cache_dir: str | os.PathLike | None = None,
        backend: Backend | None = None,
        progress=None,
    ) -> None:
        self._runner: SweepRunner | None = None
        self._jobs = max(1, int(jobs))
        self._cache = cache
        self._cache_dir = cache_dir
        self._backend = backend
        self._progress = progress

    # -- plumbing ------------------------------------------------------------

    def _build_cache(self) -> ResultCache | None:
        if isinstance(self._cache, ResultCache):
            return self._cache
        if self._cache is False:
            return None
        return ResultCache(resolve_cache_dir(self._cache_dir))

    @property
    def runner(self) -> SweepRunner:
        """The lazily-built :class:`~repro.runner.SweepRunner`."""
        if self._runner is None:
            progress = self._progress
            if progress is None or progress is False:
                progress = NullProgress()
            elif progress is True:
                progress = Progress()
            self._runner = SweepRunner(
                jobs=self._jobs,
                cache=self._build_cache(),
                progress=progress,
                backend=self._backend,
            )
        return self._runner

    @property
    def cache(self) -> ResultCache | None:
        return self.runner.cache

    @property
    def jobs(self) -> int:
        return self.runner.jobs if self._runner is not None else self._jobs

    @property
    def submitted(self) -> int:
        """Points simulated over the session's lifetime."""
        return self.runner.submitted

    @property
    def derived(self) -> int:
        """Points derived from their ``with_base`` twin, not simulated."""
        return self.runner.derived

    @property
    def cache_hits(self) -> int:
        """Points served from the cache over the session's lifetime."""
        return self.runner.cache_hits

    @property
    def last_report(self) -> PlanReport | None:
        return self.runner.last_report

    def close(self) -> None:
        """Release owned worker resources (idempotent; session stays usable).

        Safe from any teardown context — ``__del__``, ``atexit``, a
        daemon's shutdown path: every failure mode of releasing an
        already-gone resource (a pool whose processes died with the
        interpreter, a module torn down mid-exit) is swallowed rather
        than raised, because close-on-teardown has no caller that can
        act on the error.
        """
        # getattr: a Session whose __init__ raised (an unknown keyword)
        # is still finalised by __del__, before _runner exists.
        runner = getattr(self, "_runner", None)
        if runner is None:
            return
        try:
            runner.close()
        except Exception:  # repro: ignore[RPR005] teardown has no caller to act
            pass

    def __del__(self) -> None:
        # Interpreter shutdown may have already dismantled the modules
        # close() touches; a Session left to the garbage collector must
        # never surface that as an "Exception ignored in __del__" noise.
        try:
            self.close()
        except BaseException:  # repro: ignore[RPR005] GC finalizer must not raise
            pass

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- remote execution ----------------------------------------------------

    @classmethod
    def remote(
        cls,
        work_dir: str | os.PathLike,
        *,
        lease_timeout: float | None = None,
        poll: float = DEFAULT_POLL,
        timeout: float | None = None,
        batch: int | None = None,
        cache: ResultCache | bool | None = None,
        cache_dir: str | os.PathLike | None = None,
        progress=None,
    ) -> "Session":
        """The queue session: its sweeps are executed by pull workers.

        This is the one way to build a session over the work queue (the
        CLI's ``--work-dir DIR`` builds it too). Cache-missed points are
        enqueued as claimable units under ``work_dir`` and executed by
        whatever ``repro queue worker`` processes watch that directory —
        on this machine or any other sharing the filesystem. Results
        stream back into the session cache as they land, and units whose
        worker crashes are re-enqueued after ``lease_timeout`` seconds
        without a heartbeat (default ``$REPRO_QUEUE_LEASE_TIMEOUT`` or
        30)::

            with Session.remote("sweep-work") as session:
                rs = session.sweep(grid)   # workers pull the points

        ``timeout`` bounds how long one plan waits overall (``None``
        waits forever — a queue with no workers blocks by design);
        ``poll`` is the longest sleep between result scans; ``batch``
        groups that many points per claimable unit, amortising the
        queue's per-unit filesystem protocol when points are cheap
        (default: sized from each plan, see
        :func:`~repro.runner.queue.unit_size`; must be >= 1 when given).
        Grid sweeps and every figure runner accept the returned session
        unchanged — the queue is just another backend behind the same
        front door.
        """
        backend = QueueBackend(
            work_dir,
            lease_timeout=lease_timeout,
            poll=poll,
            timeout=timeout,
            batch=batch,
        )
        return cls(cache=cache, cache_dir=cache_dir, backend=backend, progress=progress)

    # -- execution -----------------------------------------------------------

    def point_spec(
        self,
        workload: str,
        mechanism: str = "nvr",
        dtype: str = "fp16",
        nsb: bool = False,
        scale: float = 1.0,
        seed: int = 0,
        with_base: bool = False,
        memory=None,
        nvr=None,
        executor=None,
        kind: str = "sim",
        **workload_args,
    ) -> RunSpec:
        """Build the :class:`~repro.runner.RunSpec` for one point."""
        return RunSpec(
            workload,
            mechanism=mechanism,
            dtype=dtype,
            nsb=nsb,
            scale=scale,
            seed=seed,
            with_base=with_base,
            memory=memory,
            nvr=nvr,
            executor=executor,
            workload_args=tuple(workload_args.items()),
            kind=kind,
        )

    def run(self, point, /, **kwargs):
        """Execute a single point through the cache/dedupe path.

        ``point`` is either a ready :class:`~repro.runner.RunSpec` or a
        workload name plus :meth:`point_spec` keyword axes. Returns the
        :class:`~repro.sim.soc.RunResult` (or
        :class:`~repro.workloads.base.TraceStats` for ``kind="trace"``).
        """
        if isinstance(point, RunSpec):
            if kwargs:
                raise ConfigError(
                    "pass either a ready RunSpec or keyword axes, not both"
                )
            spec = point
        elif isinstance(point, str):
            spec = self.point_spec(point, **kwargs)
        else:
            raise ConfigError(
                f"run() takes a RunSpec or a workload name, got "
                f"{type(point).__name__}"
            )
        return self.runner.run(spec)

    def sweep(self, plan) -> ResultSet:
        """Execute a :class:`Grid`, :class:`~repro.runner.Plan` or spec list.

        Points deduplicate, hit the session cache and fan out over the
        session backend; the :class:`~repro.resultset.ResultSet` pairs
        every submitted spec with its result, in submission order.
        """
        if isinstance(plan, Grid):
            specs = plan.specs()
        elif isinstance(plan, Plan):
            specs = list(plan.specs)
        elif isinstance(plan, RunSpec):
            specs = [plan]
        else:
            specs = list(plan)
        results = self.runner.run_plan(specs)
        return ResultSet(list(zip(specs, results)))


# ---------------------------------------------------------------------------
# Default session
# ---------------------------------------------------------------------------

_DEFAULT_SESSION: Session | None = None


def default_session() -> Session:
    """The process-wide session behind the convenience API.

    Serial, cached under :func:`resolve_cache_dir`, silent. Built on
    first use; swap it with :func:`set_default_session` (tests,
    notebooks with a scratch cache).
    """
    global _DEFAULT_SESSION
    if _DEFAULT_SESSION is None:
        _DEFAULT_SESSION = Session()
    return _DEFAULT_SESSION


def set_default_session(session: Session | None) -> Session | None:
    """Replace the process-wide default session; returns the previous one."""
    global _DEFAULT_SESSION
    previous = _DEFAULT_SESSION
    _DEFAULT_SESSION = session
    return previous


# ---------------------------------------------------------------------------
# CLI integration — one shared parent parser for every subcommand
# ---------------------------------------------------------------------------


def add_session_arguments(parser: argparse.ArgumentParser) -> None:
    """Install the shared session flags on a parser (or parent parser).

    Every default is ``argparse.SUPPRESS``: unset flags simply do not
    appear in the namespace and :func:`session_from_args` fills the real
    defaults. That lets nested parsers (``repro cache`` and
    ``repro cache gc``) share the same flags without a set-at-one-level
    value being clobbered by the other level's default.
    """
    parser.add_argument(
        "--jobs",
        type=int,
        default=argparse.SUPPRESS,
        help="worker processes for sweep execution (default 1 = serial)",
    )
    parser.add_argument(
        "--work-dir",
        default=argparse.SUPPRESS,
        metavar="DIR",
        help="send cache-missed points to the work queue in DIR, as "
        "claimable units that 'repro queue worker' processes pull "
        "(up to 8 points per unit, at least 8 units per sweep); "
        "without it they run in this process (see --jobs)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        default=argparse.SUPPRESS,
        help="disable the on-disk result cache",
    )
    parser.add_argument(
        "--cache-dir",
        default=argparse.SUPPRESS,
        help=f"result cache directory (default $"
        f"{CACHE_DIR_ENV} or {DEFAULT_CACHE_DIR})",
    )


def session_from_args(args: argparse.Namespace, quiet: bool = False) -> Session:
    """Build the CLI's :class:`Session` from the shared flags.

    ``--work-dir`` selects the queue session (:meth:`Session.remote`);
    without it, points run on a local pool of ``--jobs`` workers.
    """
    common = {
        "cache": False if getattr(args, "no_cache", False) else None,
        "cache_dir": getattr(args, "cache_dir", None),
        "progress": not quiet,
    }
    work_dir = getattr(args, "work_dir", None)
    if work_dir is not None:
        return Session.remote(work_dir, **common)
    return Session(jobs=getattr(args, "jobs", 1), **common)
