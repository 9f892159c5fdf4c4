"""Fleets: pluggable worker herders over the queue's work-dir protocol.

The queue backend (:mod:`repro.runner.queue`) is crash-tolerant but says
nothing about worker *acquisition*: someone must start ``repro queue
worker`` processes against the shared work directory. This module is
that someone. A :class:`Fleet` owns a set of workers through a
:class:`FleetDriver` — the pluggable submission mechanism — and herds
them: dead workers are restarted (with exponential backoff and a
max-restart cap, so a worker that dies on arrival cannot fork-bomb a
cluster), and an optional autoscaler grows and shrinks the fleet
between ``--min``/``--max`` against the queue's depth.

Drivers speak one tiny protocol — ``submit``/``poll``/``stop`` over
JSON-serialisable :class:`WorkerHandle` s — and live in the
:data:`FLEET_DRIVERS` registry (the same plug-in pattern as
:data:`repro.registry.MECHANISMS`), so a new cluster is one small class:

* :class:`LocalDriver` — subprocess herder on this machine (``-n N``
  workers, stdout/err captured under ``<work_dir>/fleet/logs/``). Fully
  testable in-process; the ``fleet-smoke`` CI job drives it.
* :class:`SSHDriver` — fan-out over a host list file; each worker is a
  ``nohup``'d ``repro queue worker`` launched through ``ssh``, its
  output captured per host on the (shared) filesystem.
* :class:`SlurmDriver` — renders an sbatch array script from a template
  and submits it via ``sbatch``; liveness is polled through ``squeue``.

All three assume only what the queue already assumes: every worker can
see the work directory. Fleet state (driver name + config, worker
handles, restart counts) persists in ``<work_dir>/fleet/state.json``,
so ``repro fleet up`` / ``status`` / ``down`` compose across processes
— the process that tears a fleet down need not be the one that raised
it.
"""

from __future__ import annotations

import json
import os
import shlex
import signal
import string
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Protocol, Sequence

from ..errors import ConfigError
from ..registry import Registry
from .cache import atomic_write_json
from .queue import QueueStatus, WorkQueue

#: Worker liveness states reported by :meth:`FleetDriver.poll`.
RUNNING = "running"
EXITED = "exited"
UNKNOWN = "unknown"  # the driver could not reach the worker's machine

#: Default ceiling on crash restarts before the herder gives up on
#: replacing workers (a worker that dies on arrival is a config problem,
#: not a transient — restarting it forever would melt a cluster).
DEFAULT_MAX_RESTARTS = 5

#: Base of the exponential restart backoff, seconds: the k-th restart
#: waits ``backoff * 2**(k-1)`` after the previous one.
DEFAULT_RESTART_BACKOFF = 1.0


@dataclass(frozen=True)
class WorkerHandle:
    """One submitted worker, as the driver knows it.

    ``id`` is fleet-unique and human-legible (``local-4242-1``,
    ``nodeA:17``, ``slurm-991_0``); ``data`` is the driver's private,
    JSON-serialisable bookkeeping (pid, host, job id, log path) — it
    round-trips through the fleet state file so a *different* process
    can poll and stop workers it never submitted.
    """

    id: str
    data: dict

    def to_dict(self) -> dict:
        return {"id": self.id, "data": dict(self.data)}

    @classmethod
    def from_dict(cls, d: dict) -> "WorkerHandle":
        try:
            return cls(id=d["id"], data=dict(d["data"]))
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"malformed worker handle: {exc}") from None


class FleetDriver(Protocol):
    """The pluggable submission mechanism behind a :class:`Fleet`.

    Implementations are *mechanism only*: they start, observe and stop
    workers. Restart policy, backoff, autoscaling and state persistence
    live in :class:`Fleet`, so every driver gets them for free.
    """

    name: str

    def submit(self, count: int) -> list[WorkerHandle]:
        """Start ``count`` workers against the work directory."""
        ...

    def poll(self, handles: Sequence[WorkerHandle]) -> dict[str, str]:
        """Map each handle id to :data:`RUNNING`/:data:`EXITED`/:data:`UNKNOWN`."""
        ...

    def stop(self, handles: Sequence[WorkerHandle]) -> None:
        """Stop the given workers (interrupt first, escalate if needed)."""
        ...

    def config(self) -> dict:
        """JSON-serialisable kwargs that rebuild this driver (state file)."""
        ...


def _pid_alive(pid) -> bool:
    if not isinstance(pid, int) or pid <= 0:
        return False
    try:
        # An exited child of this process is a zombie until reaped, and
        # a zombie still answers kill 0: reap it first.
        if os.waitpid(pid, os.WNOHANG)[0] == pid:
            return False
    except ChildProcessError:
        pass  # not our child
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - exists, not ours
        return True
    return True


def _run_command(command: Sequence[str]) -> str:
    """Run one submission-plumbing command, returning its stdout.

    A non-zero exit is a :class:`~repro.errors.ConfigError` carrying the
    command and its stderr — ssh/sbatch failures are operator input
    problems (bad host, missing binary), not simulator bugs. A missing
    binary reads the same way instead of a raw ``FileNotFoundError``.
    """
    try:
        proc = subprocess.run(
            list(command), capture_output=True, text=True, check=False
        )
    except FileNotFoundError:
        raise ConfigError(
            f"'{command[0]}' is not available on this machine "
            f"(needed by: {' '.join(command)})"
        ) from None
    if proc.returncode != 0:
        raise ConfigError(
            f"command failed ({proc.returncode}): {' '.join(command)}\n"
            f"{proc.stderr.strip()}"
        )
    return proc.stdout


def _worker_cli_args(work_dir: Path, worker_args: Sequence[str]) -> list[str]:
    return ["queue", "worker", "--work-dir", str(work_dir), *worker_args]


class LocalDriver:
    """Subprocess herder: ``-n N`` ``repro queue worker`` children.

    Workers are started in their own sessions (``start_new_session``) so
    a Ctrl-C aimed at the herder does not take the whole fleet with it,
    and each worker's stdout/stderr is captured under
    ``<work_dir>/fleet/logs/<worker-id>.log``. Handles submitted by
    *this* process are polled through their ``Popen`` (which also reaps
    them); handles restored from a state file fall back to pid liveness
    probes.

    ``command`` overrides the worker argv wholesale — the herder tests
    use throwaway sleeper processes instead of real workers.
    """

    name = "local"

    def __init__(
        self,
        work_dir: str | os.PathLike,
        worker_args: Sequence[str] = (),
        command: Sequence[str] | None = None,
    ) -> None:
        self.work_dir = Path(work_dir)
        self.worker_args = list(worker_args)
        self._command = list(command) if command is not None else None
        self.log_dir = self.work_dir / "fleet" / "logs"
        self._procs: dict[str, subprocess.Popen] = {}
        self._seq = 0

    def config(self) -> dict:
        cfg: dict = {"worker_args": list(self.worker_args)}
        if self._command is not None:
            cfg["command"] = list(self._command)
        return cfg

    def _argv(self) -> list[str]:
        if self._command is not None:
            return list(self._command)
        return [
            sys.executable,
            "-m",
            "repro",
            *_worker_cli_args(self.work_dir, self.worker_args),
        ]

    def submit(self, count: int) -> list[WorkerHandle]:
        self.log_dir.mkdir(parents=True, exist_ok=True)
        handles = []
        for _ in range(count):
            self._seq += 1
            wid = f"local-{os.getpid()}-{self._seq}"
            log_path = self.log_dir / f"{wid}.log"
            with open(log_path, "ab") as log:
                proc = subprocess.Popen(
                    self._argv(),
                    stdout=log,
                    stderr=subprocess.STDOUT,
                    start_new_session=True,
                )
            self._procs[wid] = proc
            handles.append(
                WorkerHandle(wid, {"pid": proc.pid, "log": str(log_path)})
            )
        return handles

    def poll(self, handles: Sequence[WorkerHandle]) -> dict[str, str]:
        states = {}
        for handle in handles:
            proc = self._procs.get(handle.id)
            if proc is not None:
                states[handle.id] = RUNNING if proc.poll() is None else EXITED
            else:
                states[handle.id] = (
                    RUNNING if _pid_alive(handle.data.get("pid")) else EXITED
                )
        return states

    def _signal(self, handle: WorkerHandle, signum: int) -> None:
        pid = handle.data.get("pid")
        if isinstance(pid, int) and pid > 0:
            try:
                os.kill(pid, signum)
            except OSError:
                pass

    def stop(self, handles: Sequence[WorkerHandle], grace: float = 5.0) -> None:
        """Interrupt the workers; SIGKILL whatever outlives ``grace``.

        SIGINT gives a worker its ``KeyboardInterrupt`` path — it
        releases its claimed unit back to the queue before exiting, so
        a stopped fleet orphans nothing (a SIGKILLed straggler's unit
        is recovered by lease expiry instead).
        """
        for handle in handles:
            self._signal(handle, signal.SIGINT)
        deadline = time.monotonic() + grace
        remaining = list(handles)
        while remaining and time.monotonic() < deadline:
            states = self.poll(remaining)
            remaining = [h for h in remaining if states.get(h.id) == RUNNING]
            if remaining:
                time.sleep(0.05)
        for handle in remaining:
            self._signal(handle, signal.SIGKILL)
        for handle in handles:
            proc = self._procs.pop(handle.id, None)
            if proc is not None:
                try:
                    proc.wait(timeout=5)
                except subprocess.TimeoutExpired:  # pragma: no cover
                    pass

    def kill(self, handle: WorkerHandle) -> None:
        """SIGKILL one worker — the herder's crash-injection test hook."""
        self._signal(handle, signal.SIGKILL)


def parse_hosts_file(path: str | os.PathLike) -> list[tuple[str, int]]:
    """Parse an SSH fleet host list: one ``host [slots]`` per line.

    Blank lines and ``#`` comments are ignored; ``slots`` (default 1) is
    how many workers the host runs. Returns ``(host, slots)`` pairs in
    file order — submission round-robins across hosts so a small fleet
    spreads before any host doubles up.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read hosts file {path}: {exc}") from None
    hosts = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        slots = 1
        if len(parts) == 2:
            try:
                slots = int(parts[1])
            except ValueError:
                raise ConfigError(
                    f"{path}:{lineno}: slot count must be an integer, "
                    f"got {parts[1]!r}"
                ) from None
        elif len(parts) != 1:
            raise ConfigError(
                f"{path}:{lineno}: expected 'host [slots]', got {raw!r}"
            )
        if slots < 1:
            raise ConfigError(f"{path}:{lineno}: slot count must be >= 1")
        hosts.append((parts[0], slots))
    if not hosts:
        raise ConfigError(f"hosts file {path} lists no hosts")
    return hosts


class SSHDriver:
    """Fan-out over a host list: one ``nohup``'d worker per slot via ssh.

    The work directory must be a *shared* filesystem path valid on every
    host — the same assumption the queue protocol itself makes. Worker
    output is captured per host under ``<work_dir>/fleet/logs/`` (on
    that shared filesystem), and the remote worker command defaults to
    the installed ``repro`` console script (override with
    ``remote_cmd`` when the remote environment needs activation, e.g.
    ``"source venv/bin/activate && repro"``).

    ``run`` injects the command executor (tests capture the exact ssh
    argv without a network).
    """

    name = "ssh"

    def __init__(
        self,
        work_dir: str | os.PathLike,
        hosts_file: str | os.PathLike | None = None,
        hosts: Sequence[tuple[str, int]] | None = None,
        worker_args: Sequence[str] = (),
        remote_cmd: str = "repro",
        ssh_cmd: Sequence[str] = ("ssh", "-o", "BatchMode=yes"),
        run=None,
    ) -> None:
        if hosts is None:
            if hosts_file is None:
                raise ConfigError(
                    "the ssh fleet driver needs a hosts file "
                    "(repro fleet --hosts FILE; one 'host [slots]' per line)"
                )
            hosts = parse_hosts_file(hosts_file)
        self.work_dir = Path(work_dir)
        self.hosts = [(str(h), int(s)) for h, s in hosts]
        self.hosts_file = str(hosts_file) if hosts_file is not None else None
        self.worker_args = list(worker_args)
        self.remote_cmd = remote_cmd
        self.ssh_cmd = list(ssh_cmd)
        self._run = run if run is not None else _run_command
        self._used: dict[str, int] = {host: 0 for host, _ in self.hosts}

    def config(self) -> dict:
        return {
            "hosts": [list(pair) for pair in self.hosts],
            "hosts_file": self.hosts_file,
            "worker_args": list(self.worker_args),
            "remote_cmd": self.remote_cmd,
            "ssh_cmd": list(self.ssh_cmd),
        }

    @property
    def capacity(self) -> int:
        return sum(slots for _, slots in self.hosts)

    def _next_host(self) -> str:
        """Least-loaded host with a free slot, in file order."""
        best = None
        for host, slots in self.hosts:
            used = self._used[host]
            if used >= slots:
                continue
            if best is None or used < self._used[best]:
                best = host
        if best is None:
            raise ConfigError(
                f"ssh fleet is at capacity ({self.capacity} slot(s) across "
                f"{len(self.hosts)} host(s)) — grow the hosts file to grow "
                "the fleet"
            )
        return best

    def submit(self, count: int) -> list[WorkerHandle]:
        log_dir = self.work_dir / "fleet" / "logs"
        handles = []
        for _ in range(count):
            host = self._next_host()
            self._used[host] += 1
            slot = self._used[host]
            log_path = log_dir / f"{host}-{slot}.log"
            worker = " ".join(
                [self.remote_cmd]
                + [shlex.quote(a) for a in _worker_cli_args(
                    self.work_dir, self.worker_args
                )]
            )
            remote = (
                f"mkdir -p {shlex.quote(str(log_dir))} && "
                f"nohup {worker} >> {shlex.quote(str(log_path))} 2>&1 "
                f"& echo $!"
            )
            out = self._run([*self.ssh_cmd, host, remote])
            try:
                pid = int(out.strip().splitlines()[-1])
            except (ValueError, IndexError):
                raise ConfigError(
                    f"ssh worker launch on {host} did not echo a pid "
                    f"(got {out.strip()!r})"
                ) from None
            handles.append(
                WorkerHandle(
                    f"{host}:{pid}",
                    {"host": host, "pid": pid, "log": str(log_path)},
                )
            )
        return handles

    def poll(self, handles: Sequence[WorkerHandle]) -> dict[str, str]:
        states = {}
        for handle in handles:
            host, pid = handle.data.get("host"), handle.data.get("pid")
            # `kill -0` succeeds iff the pid is alive; the trailing echo
            # keeps ssh's own exit code 0 either way, so only a transport
            # failure surfaces as an error (-> UNKNOWN, not EXITED: an
            # unreachable host must not trigger a restart storm).
            probe = f"kill -0 {int(pid)} 2>/dev/null && echo up || echo down"
            try:
                out = self._run([*self.ssh_cmd, str(host), probe])
            except ConfigError:
                states[handle.id] = UNKNOWN
                continue
            states[handle.id] = RUNNING if out.strip().endswith("up") else EXITED
        return states

    def stop(self, handles: Sequence[WorkerHandle]) -> None:
        for handle in handles:
            host, pid = handle.data.get("host"), handle.data.get("pid")
            try:
                self._run([*self.ssh_cmd, str(host), f"kill -INT {int(pid)}"])
            except ConfigError:
                continue  # already gone, or host unreachable
            self._used[str(host)] = max(0, self._used.get(str(host), 1) - 1)


#: The built-in sbatch array template. ``$`` placeholders are
#: :class:`string.Template` substitutions; a custom template
#: (``--sbatch-template``) must keep ``$worker_cmd`` and ``$array_spec``
#: and may add partition/account/time directives freely.
DEFAULT_SBATCH_TEMPLATE = """\
#!/bin/bash
#SBATCH --job-name=$job_name
#SBATCH --array=$array_spec
#SBATCH --output=$log_dir/slurm-%A_%a.log
$worker_cmd
"""


class SlurmDriver:
    """Batch-scheduler submission: one sbatch array task per worker.

    ``submit(n)`` renders the template to
    ``<work_dir>/fleet/sbatch-<seq>.sh`` and submits it with ``sbatch
    --parsable``; ``poll`` asks ``squeue`` which array tasks still
    exist (pending counts as running — the scheduler owns the wait);
    ``stop`` is ``scancel`` per array task. ``run`` injects the command
    executor for tests, exactly like :class:`SSHDriver`.
    """

    name = "slurm"

    def __init__(
        self,
        work_dir: str | os.PathLike,
        sbatch_template: str | os.PathLike | None = None,
        worker_args: Sequence[str] = (),
        remote_cmd: str = "repro",
        run=None,
    ) -> None:
        self.work_dir = Path(work_dir)
        self.sbatch_template = (
            str(sbatch_template) if sbatch_template is not None else None
        )
        self.worker_args = list(worker_args)
        self.remote_cmd = remote_cmd
        self._run = run if run is not None else _run_command
        self._seq = 0

    def config(self) -> dict:
        return {
            "sbatch_template": self.sbatch_template,
            "worker_args": list(self.worker_args),
            "remote_cmd": self.remote_cmd,
        }

    def _template_text(self) -> str:
        if self.sbatch_template is None:
            return DEFAULT_SBATCH_TEMPLATE
        try:
            return Path(self.sbatch_template).read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(
                f"cannot read sbatch template {self.sbatch_template}: {exc}"
            ) from None

    def render(self, count: int) -> str:
        """The sbatch script text for ``count`` array tasks."""
        log_dir = self.work_dir / "fleet" / "logs"
        worker = " ".join(
            [self.remote_cmd]
            + [shlex.quote(a) for a in _worker_cli_args(
                self.work_dir, self.worker_args
            )]
        )
        try:
            return string.Template(self._template_text()).substitute(
                job_name="repro-fleet",
                array_spec=f"0-{count - 1}",
                log_dir=str(log_dir),
                worker_cmd=worker,
            )
        except (KeyError, ValueError) as exc:
            raise ConfigError(
                f"sbatch template {self.sbatch_template}: bad placeholder "
                f"({exc}) — known: $job_name $array_spec $log_dir $worker_cmd"
            ) from None

    def submit(self, count: int) -> list[WorkerHandle]:
        fleet_dir = self.work_dir / "fleet"
        log_dir = fleet_dir / "logs"
        log_dir.mkdir(parents=True, exist_ok=True)
        self._seq += 1
        script = fleet_dir / f"sbatch-{self._seq:03d}.sh"
        script.write_text(self.render(count), encoding="utf-8")
        out = self._run(["sbatch", "--parsable", str(script)])
        job = out.strip().split(";")[0]
        if not job:
            raise ConfigError("sbatch --parsable returned no job id")
        return [
            WorkerHandle(f"slurm-{job}_{task}", {"job": job, "task": task})
            for task in range(count)
        ]

    @staticmethod
    def _live_tasks(squeue_out: str) -> set[int]:
        """Array task indices ``squeue`` still lists (any state).

        Pending arrays print compactly (``991_[2-5]``); running tasks
        print one row each (``991_3``). Both count as live.
        """
        tasks: set[int] = set()
        for line in squeue_out.splitlines():
            ident = line.split()[0] if line.split() else ""
            if "_" not in ident:
                continue
            suffix = ident.split("_", 1)[1]
            if suffix.startswith("[") and suffix.endswith("]"):
                for part in suffix[1:-1].split(","):
                    part = part.split("%", 1)[0]  # throttle suffix
                    if "-" in part:
                        lo, _, hi = part.partition("-")
                        try:
                            tasks.update(range(int(lo), int(hi) + 1))
                        except ValueError:
                            continue
                    else:
                        try:
                            tasks.add(int(part))
                        except ValueError:
                            continue
            else:
                try:
                    tasks.add(int(suffix))
                except ValueError:
                    continue
        return tasks

    def poll(self, handles: Sequence[WorkerHandle]) -> dict[str, str]:
        by_job: dict[str, list[WorkerHandle]] = {}
        for handle in handles:
            by_job.setdefault(str(handle.data.get("job")), []).append(handle)
        states: dict[str, str] = {}
        for job, job_handles in by_job.items():
            try:
                out = self._run(["squeue", "-h", "-j", job, "-o", "%i %T"])
            except ConfigError:
                for handle in job_handles:
                    states[handle.id] = UNKNOWN
                continue
            live = self._live_tasks(out)
            for handle in job_handles:
                task = handle.data.get("task")
                states[handle.id] = RUNNING if task in live else EXITED
        return states

    def stop(self, handles: Sequence[WorkerHandle]) -> None:
        for handle in handles:
            job, task = handle.data.get("job"), handle.data.get("task")
            try:
                self._run(["scancel", f"{job}_{task}"])
            except ConfigError:
                continue


#: Fleet driver registry: `repro fleet --driver` choices. Register a
#: new cluster's driver here (same Registry as mechanisms/engines).
FLEET_DRIVERS = Registry("fleet driver")
FLEET_DRIVERS.register("local", LocalDriver)
FLEET_DRIVERS.register("ssh", SSHDriver)
FLEET_DRIVERS.register("slurm", SlurmDriver)


def make_driver(name: str, work_dir: str | os.PathLike, **kwargs) -> FleetDriver:
    """Build a registered driver (``ConfigError`` lists known names)."""
    cls = FLEET_DRIVERS.get(name)
    return cls(work_dir, **kwargs)


@dataclass(frozen=True)
class AutoscalerPolicy:
    """Pure grow/shrink decision against one queue-status scan.

    Demand is outstanding work — queued units plus claimed ones (every
    claimed unit is a worker mid-execution; expired leases are already
    counted inside ``claimed``). The target worker count is demand
    clamped into ``[min_workers, max_workers]``: an idle queue drains
    the fleet to the floor, a deep one grows it to the ceiling, and one
    worker per outstanding unit is the point of diminishing returns in
    between.
    """

    min_workers: int
    max_workers: int

    def __post_init__(self) -> None:
        if self.min_workers < 0:
            raise ConfigError(
                f"min workers must be >= 0, got {self.min_workers}"
            )
        if self.max_workers < max(1, self.min_workers):
            raise ConfigError(
                f"max workers must be >= max(1, min), got "
                f"min={self.min_workers} max={self.max_workers}"
            )

    def target(self, status: QueueStatus, current: int) -> int:
        demand = status.queued + status.claimed
        return max(self.min_workers, min(self.max_workers, demand))


@dataclass
class FleetStatus:
    """One observation of a fleet: per-worker states + the queue scan."""

    workers: dict[str, str]
    queue: QueueStatus
    size: int
    restarts: int
    gave_up: bool

    @property
    def running(self) -> int:
        return sum(1 for state in self.workers.values() if state == RUNNING)


class Fleet:
    """A herd of queue workers: submit, watch, restart, scale, stop.

    The fleet's *nominal size* starts at :meth:`up`'s count. Each
    :meth:`tick` polls the driver, drops exited workers, and refills the
    deficit — immediately for autoscaler growth, behind an exponential
    backoff (``restart_backoff * 2**(k-1)``, one worker per window) for
    crash replacements, giving up entirely after ``max_restarts``
    replacements so a worker that always dies on arrival cannot spin a
    cluster. With ``min_workers``/``max_workers`` set, an
    :class:`AutoscalerPolicy` retargets the nominal size against queue
    depth each tick, stopping surplus workers when the queue drains.

    ``clock`` injects time for the backoff tests; ``log`` is an optional
    ``callable(str)`` for herder event lines (the CLI passes a stderr
    printer).
    """

    def __init__(
        self,
        work_dir: str | os.PathLike,
        driver: FleetDriver,
        min_workers: int | None = None,
        max_workers: int | None = None,
        max_restarts: int = DEFAULT_MAX_RESTARTS,
        restart_backoff: float = DEFAULT_RESTART_BACKOFF,
        clock=time.monotonic,
        log=None,
    ) -> None:
        self.queue = WorkQueue(work_dir)
        self.driver = driver
        if (min_workers is None) != (max_workers is None):
            raise ConfigError(
                "autoscaling needs both min and max worker bounds"
            )
        self.policy = (
            AutoscalerPolicy(min_workers, max_workers)
            if min_workers is not None
            else None
        )
        self.max_restarts = int(max_restarts)
        self.restart_backoff = float(restart_backoff)
        self.clock = clock
        self.log = log if log is not None else (lambda text: None)
        self.workers: list[WorkerHandle] = []
        self.size = 0
        self.restarts = 0
        self.gave_up = False
        self._owed_restarts = 0
        self._next_restart_at = 0.0
        self._chaos_armed = False
        self._herd_stop: threading.Event | None = None
        self._herd_thread: threading.Thread | None = None

    # -- state persistence ---------------------------------------------------

    @property
    def state_path(self) -> Path:
        return self.queue.root / "fleet" / "state.json"

    def save_state(self) -> None:
        atomic_write_json(
            self.state_path,
            {
                "driver": self.driver.name,
                "driver_config": self.driver.config(),
                "workers": [handle.to_dict() for handle in self.workers],
                "size": self.size,
                "restarts": self.restarts,
            },
        )

    @classmethod
    def attach(cls, work_dir: str | os.PathLike, **kwargs) -> "Fleet":
        """Rebuild a fleet from ``<work_dir>/fleet/state.json``.

        The driver is reconstructed from its persisted name and config,
        so ``repro fleet status``/``down`` work from any process that
        sees the work directory — not just the one that ran ``up``.
        """
        path = Path(work_dir) / "fleet" / "state.json"
        try:
            state = json.loads(path.read_text(encoding="utf-8"))
        except OSError:
            raise ConfigError(
                f"no fleet state under {work_dir} — did 'repro fleet up' "
                "run against this work dir?"
            ) from None
        except ValueError as exc:
            raise ConfigError(f"corrupt fleet state {path}: {exc}") from None
        config = {
            k: v
            for k, v in dict(state.get("driver_config") or {}).items()
            if v is not None
        }
        driver = make_driver(state.get("driver", "local"), work_dir, **config)
        fleet = cls(work_dir, driver, **kwargs)
        fleet.workers = [
            WorkerHandle.from_dict(d) for d in state.get("workers", [])
        ]
        fleet.size = int(state.get("size", len(fleet.workers)))
        fleet.restarts = int(state.get("restarts", 0))
        return fleet

    # -- lifecycle -----------------------------------------------------------

    def up(self, count: int) -> list[WorkerHandle]:
        """Raise the fleet: ``count`` workers against a ready work dir.

        Clears any stale ``stop`` sentinel first — a previous ``fleet
        down`` drains workers by writing it, and freshly raised workers
        must not drain on arrival.
        """
        if count < 1:
            raise ConfigError(f"fleet size must be >= 1, got {count}")
        self.queue.ensure()
        self.queue.stop_path.unlink(missing_ok=True)
        handles = self.driver.submit(count)
        self.workers.extend(handles)
        self.size = len(self.workers)
        self.save_state()
        self.log(
            f"fleet up: {len(handles)} {self.driver.name} worker(s) "
            f"on {self.queue.root}"
        )
        return handles

    def status(self) -> FleetStatus:
        """Poll every worker and scan the queue (no mutation)."""
        return FleetStatus(
            workers=self.driver.poll(self.workers),
            queue=self.queue.status(),
            size=self.size,
            restarts=self.restarts,
            gave_up=self.gave_up,
        )

    def down(self, drain_timeout: float = 10.0) -> None:
        """Lower the fleet: drain via the stop sentinel, then stop hard.

        The sentinel asks every worker on the work dir to finish its
        current unit and exit; whatever is still alive after
        ``drain_timeout`` seconds is stopped through the driver
        (interrupt, then kill). Fleet state is removed last, so a
        crashed ``down`` can simply be re-run.
        """
        self.stop_herding()
        self.queue.ensure()
        self.queue.stop_path.touch()
        deadline = time.monotonic() + max(0.0, drain_timeout)
        remaining = list(self.workers)
        while remaining and time.monotonic() < deadline:
            states = self.driver.poll(remaining)
            remaining = [h for h in remaining if states.get(h.id) == RUNNING]
            if remaining:
                time.sleep(0.1)
        if remaining:
            self.log(
                f"fleet down: stopping {len(remaining)} worker(s) that did "
                f"not drain within {drain_timeout:g}s"
            )
            self.driver.stop(remaining)
        self.workers = []
        self.size = 0
        self.state_path.unlink(missing_ok=True)
        self.log(f"fleet down: {self.queue.root}")

    # -- herding -------------------------------------------------------------

    def arm_chaos(self) -> None:
        """Arm the restart test hook: SIGKILL one worker mid-run.

        The next :meth:`tick` that observes a claimed unit (i.e. real
        work in flight) kills one worker through the driver's ``kill``
        hook; the ordinary restart path must then replace it. This is
        how the ``fleet-smoke`` CI job proves the herder's crash story
        without hand-rolled process juggling in YAML.
        """
        if getattr(self.driver, "kill", None) is None:
            raise ConfigError(
                f"the {self.driver.name} driver has no kill hook — the "
                "restart test hook needs the local driver"
            )
        self._chaos_armed = True

    def tick(self) -> FleetStatus:
        """One herding pass: reap, chaos, autoscale, refill.

        Returns the post-pass :class:`FleetStatus` so callers (the herd
        loop, tests) observe exactly what the pass acted on.
        """
        states = self.driver.poll(self.workers)
        alive = [h for h in self.workers if states.get(h.id) != EXITED]
        died = len(self.workers) - len(alive)
        if died:
            dead_ids = [h.id for h in self.workers if states.get(h.id) == EXITED]
            self.workers = alive
            self._owed_restarts += died
            self.log(f"herder: {died} worker(s) exited ({', '.join(dead_ids)})")
        queue_status = self.queue.status()
        stopping = queue_status.stopping
        now = self.clock()

        if self._chaos_armed and queue_status.claimed > 0 and self.workers:
            victim = self.workers[0]
            self.driver.kill(victim)  # type: ignore[attr-defined]
            self._chaos_armed = False
            self.log(f"herder: chaos hook SIGKILLed {victim.id}")

        if not stopping:
            if self.policy is not None:
                target = self.policy.target(queue_status, self.size)
                if target != self.size:
                    self.log(f"autoscaler: {self.size} -> {target} worker(s)")
                self.size = target
            if len(self.workers) > self.size:
                surplus = self.workers[self.size :]
                self.workers = self.workers[: self.size]
                self.driver.stop(surplus)
                self.log(f"herder: stopped {len(surplus)} surplus worker(s)")
            deficit = self.size - len(self.workers)
            # Deficit from autoscaler growth refills immediately; the
            # part owed to worker deaths sits behind the backoff, one
            # replacement per window, and stops at the restart cap.
            self._owed_restarts = min(self._owed_restarts, max(0, deficit))
            growth = deficit - self._owed_restarts
            if growth > 0:
                self.workers.extend(self.driver.submit(growth))
            if self._owed_restarts > 0:
                if self.restarts >= self.max_restarts:
                    if not self.gave_up:
                        self.gave_up = True
                        self.log(
                            f"herder: restart cap ({self.max_restarts}) "
                            "reached — dead workers will not be replaced"
                        )
                elif now >= self._next_restart_at:
                    self.workers.extend(self.driver.submit(1))
                    self._owed_restarts -= 1
                    self.restarts += 1
                    backoff = self.restart_backoff * (2 ** (self.restarts - 1))
                    self._next_restart_at = now + backoff
                    self.log(
                        f"herder: restarted 1 worker "
                        f"(restart {self.restarts}/{self.max_restarts}, "
                        f"next backoff {backoff:g}s)"
                    )
            self.save_state()
        return FleetStatus(
            workers=self.driver.poll(self.workers),
            queue=queue_status,
            size=self.size,
            restarts=self.restarts,
            gave_up=self.gave_up,
        )

    def start_herding(self, interval: float = 0.5) -> None:
        """Run :meth:`tick` on a daemon thread until :meth:`stop_herding`.

        A tick that raises is logged and retried next interval — a
        transient poll failure must not end supervision for the rest of
        a long sweep.
        """
        if self._herd_thread is not None:
            return
        stop = threading.Event()

        def loop() -> None:
            while not stop.wait(interval):
                try:
                    self.tick()
                except Exception as exc:  # pragma: no cover - defensive
                    self.log(f"herder: tick failed: {exc}")

        thread = threading.Thread(target=loop, daemon=True, name="fleet-herder")
        thread.start()
        self._herd_stop = stop
        self._herd_thread = thread

    def stop_herding(self) -> None:
        if self._herd_thread is None:
            return
        assert self._herd_stop is not None
        self._herd_stop.set()
        self._herd_thread.join(timeout=10)
        self._herd_thread = None
        self._herd_stop = None
