"""Fleets: a herder of local ``repro queue worker`` subprocesses.

The queue backend (:mod:`repro.runner.queue`) is crash-tolerant but says
nothing about worker *acquisition*: someone must start ``repro queue
worker`` processes against the shared work directory. On one machine,
this module is that someone. A :class:`Fleet` owns a set of workers
through a :class:`FleetDriver` — :class:`LocalDriver` in every real
use, a stand-in in the herder tests and benchmarks — and herds them:
dead workers are restarted with exponential backoff and a max-restart
cap, so a worker that dies on arrival cannot fork-bomb the machine.

Workers on other machines need no herder: start ``repro queue worker
--work-dir <shared dir>`` there by whatever means the site uses, and
``repro fleet down`` (or ``touch <dir>/stop``) drains them too. Fleet
state (driver config, worker handles, restart count) persists in
``<work_dir>/fleet/state.json``, so ``repro fleet up`` / ``status`` /
``down`` compose across processes — the process that tears a fleet
down need not be the one that raised it.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Protocol, Sequence

from ..errors import ConfigError
from .cache import atomic_write_json
from .queue import QueueStatus, WorkQueue

#: Worker liveness states reported by :meth:`FleetDriver.poll`.
RUNNING = "running"
EXITED = "exited"

#: Default ceiling on crash restarts before the herder gives up on
#: replacing workers (a worker that dies on arrival is a config problem,
#: not a transient — restarting it forever would melt the machine).
DEFAULT_MAX_RESTARTS = 5

#: Base of the exponential restart backoff, seconds: the k-th restart
#: waits ``backoff * 2**(k-1)`` after the previous one.
DEFAULT_RESTART_BACKOFF = 1.0


@dataclass(frozen=True)
class WorkerHandle:
    """One submitted worker, as the driver knows it.

    ``id`` is fleet-unique and human-legible (``local-4242-1``); ``data``
    is the driver's private, JSON-serialisable bookkeeping (pid, log
    path) — it round-trips through the fleet state file so a *different*
    process can poll and stop workers it never submitted.
    """

    id: str
    data: dict

    def to_dict(self) -> dict:
        return {"id": self.id, "data": dict(self.data)}

    @classmethod
    def from_dict(cls, d: dict) -> "WorkerHandle":
        try:
            return cls(id=d["id"], data=dict(d["data"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed worker handle: {exc}") from None


class FleetDriver(Protocol):
    """What a :class:`Fleet` needs from the thing that runs its workers.

    :class:`LocalDriver` is the implementation; tests and benchmarks
    substitute stand-ins. Drivers are *mechanism only*: they start,
    observe and stop workers. Restart policy, backoff and state
    persistence live in :class:`Fleet`.
    """

    def submit(self, count: int) -> list[WorkerHandle]:
        """Start ``count`` workers against the work directory."""
        ...

    def poll(self, handles: Sequence[WorkerHandle]) -> dict[str, str]:
        """Map each handle id to :data:`RUNNING` or :data:`EXITED`."""
        ...

    def stop(self, handles: Sequence[WorkerHandle]) -> None:
        """Stop the given workers (interrupt first, escalate if needed)."""
        ...

    def kill(self, handle: WorkerHandle) -> None:
        """SIGKILL one worker (the herder's chaos hook)."""
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
            "queue",
            "worker",
            "--work-dir",
            str(self.work_dir),
            *self.worker_args,
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
        is recovered by claim expiry instead).
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
    """A herd of queue workers: submit, watch, restart, stop.

    The fleet's *nominal size* is :meth:`up`'s count, so a worker death
    is the only cause of a deficit. Each :meth:`tick` polls the driver,
    drops exited workers and refills the deficit behind an exponential
    backoff (``restart_backoff * 2**(k-1)``, one worker per window),
    giving up entirely after ``max_restarts`` replacements so a worker
    that always dies on arrival cannot spin the machine.

    ``clock`` injects time for the backoff tests; ``log`` is an optional
    ``callable(str)`` for herder event lines (the CLI passes a stderr
    printer).
    """

    def __init__(
        self,
        work_dir: str | os.PathLike,
        driver: FleetDriver,
        max_restarts: int = DEFAULT_MAX_RESTARTS,
        restart_backoff: float = DEFAULT_RESTART_BACKOFF,
        clock=time.monotonic,
        log=None,
    ) -> None:
        self.queue = WorkQueue(work_dir)
        self.driver = driver
        self.max_restarts = int(max_restarts)
        self.restart_backoff = float(restart_backoff)
        self.clock = clock
        self.log = log if log is not None else (lambda text: None)
        self.workers: list[WorkerHandle] = []
        self.size = 0
        self.restarts = 0
        self.gave_up = False
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
                "driver_config": self.driver.config(),
                "workers": [handle.to_dict() for handle in self.workers],
                "size": self.size,
                "restarts": self.restarts,
            },
        )

    @classmethod
    def attach(cls, work_dir: str | os.PathLike, **kwargs) -> "Fleet":
        """Rebuild a fleet from ``<work_dir>/fleet/state.json``.

        The one reader of the state file: ``repro fleet status``/``down``
        use it from any process that sees the work directory, and the
        server's ``/v1/stats`` reports what it finds. A missing,
        unparsable or malformed file — any document :meth:`save_state`
        could not have written, such as the state of a remote-driver
        fleet from an older version — is a
        :class:`~repro.errors.ConfigError`.
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

        def malformed(what: str) -> ConfigError:
            return ConfigError(f"malformed fleet state {path}: {what}")

        if not isinstance(state, dict):
            raise malformed("not a JSON object")
        config = state.get("driver_config") or {}
        if not (
            isinstance(config, dict)
            and set(config) <= {"worker_args", "command"}
            and all(
                isinstance(argv, list) and all(isinstance(a, str) for a in argv)
                for argv in config.values()
            )
        ):
            raise malformed(f"driver config {config!r} is not a local fleet's")
        workers = state.get("workers", [])
        if not isinstance(workers, list):
            raise malformed("'workers' is not a list")
        size = state.get("size", len(workers))
        restarts = state.get("restarts", 0)
        for key, value in (("size", size), ("restarts", restarts)):
            if type(value) is not int or value < 0:
                raise malformed(f"'{key}' must be a count, got {value!r}")
        fleet = cls(work_dir, LocalDriver(work_dir, **config), **kwargs)
        fleet.workers = [WorkerHandle.from_dict(d) for d in workers]
        fleet.size, fleet.restarts = size, restarts
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
        self.log(f"fleet up: {len(handles)} worker(s) on {self.queue.root}")
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
        self._chaos_armed = True

    def tick(self) -> FleetStatus:
        """One herding pass: reap, chaos, refill.

        Returns the post-pass :class:`FleetStatus` so callers (the herd
        loop, tests) observe exactly what the pass acted on.
        """
        states = self.driver.poll(self.workers)
        dead_ids = [h.id for h in self.workers if states.get(h.id) == EXITED]
        if dead_ids:
            self.workers = [h for h in self.workers if states.get(h.id) != EXITED]
            self.log(
                f"herder: {len(dead_ids)} worker(s) exited ({', '.join(dead_ids)})"
            )
        queue_status = self.queue.status()

        if self._chaos_armed and queue_status.claimed > 0 and self.workers:
            victim = self.workers[0]
            self.driver.kill(victim)
            self._chaos_armed = False
            self.log(f"herder: chaos hook SIGKILLed {victim.id}")

        if not queue_status.stopping:
            if len(self.workers) < self.size:
                now = self.clock()
                if self.restarts >= self.max_restarts:
                    if not self.gave_up:
                        self.gave_up = True
                        self.log(
                            f"herder: restart cap ({self.max_restarts}) "
                            "reached — dead workers will not be replaced"
                        )
                elif now >= self._next_restart_at:
                    self.workers.extend(self.driver.submit(1))
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
