"""The off-process side: ``repro serve`` and ``repro queue worker``.

Both run as real CLI subprocesses. With a trace file they run through
``traced_main.py``, which wraps the same layers as the in-process
tracer and writes its totals when the process ends.

Teardown is part of the contract: the worker is stopped with the
queue's ``stop`` sentinel and the daemon with SIGTERM, and either one
still alive after :data:`STOP_DEADLINE_S` fails the pass. Workers run
without ``--idle-timeout``, so no idle wait can enter a timing.
"""

from __future__ import annotations

import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

from repro.client import SweepClient
from repro.errors import ServerError
from repro.runner.plan import RunSpec
from repro.runner.queue import WorkQueue

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

STOP_DEADLINE_S = 10.0

#: Queue scan interval of the benchmark's workers and queue clients. The
#: default (0.2s) would add up to 0.4s of sleep-quantisation noise to
#: every queue phase; the daemon's own scans keep their default.
POLL_S = 0.02
READY_TIMEOUT_S = 60.0

#: A cheap point the worker runs to show it is up. Its scale is used by
#: no workload, so it shares no memoised program with the timed points.
PROBE_SPEC = RunSpec("gcn", kind="trace", scale=0.01)


class TeardownError(RuntimeError):
    """A benchmark subprocess outlived its stop deadline."""


def env_for(tmp: Path) -> dict:
    """Subprocess environment: this checkout's ``src`` and a private cache."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_CACHE_DIR"] = str(tmp / "default-cache")
    return env


def repro_command(args: list[str], trace_out: Path | None) -> list[str]:
    if trace_out is None:
        return [sys.executable, "-m", "repro", *args]
    return [sys.executable, str(HERE / "traced_main.py"), str(trace_out), *args]


def peak_rss_mb(pid: int) -> float:
    """A live process's peak resident set (``VmHWM``), in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmHWM for pid {pid}")


def _stop(proc: subprocess.Popen, name: str) -> None:
    try:
        proc.wait(STOP_DEADLINE_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise TeardownError(
            f"{name} (pid {proc.pid}) still alive {STOP_DEADLINE_S:g}s after stop"
        ) from None


class Worker:
    """One ``repro queue worker`` over ``work_dir``."""

    def __init__(self, work_dir: Path, tmp: Path, trace_out: Path | None = None) -> None:
        self.queue = WorkQueue(work_dir).ensure()
        self.log = open(tmp / f"worker-{time.monotonic_ns()}.log", "wb")
        self.proc = subprocess.Popen(
            repro_command(
                ["queue", "worker", "--work-dir", str(work_dir), "--poll", str(POLL_S)],
                trace_out,
            ),
            env=env_for(tmp),
            stdin=subprocess.DEVNULL,
            stdout=self.log,
            stderr=subprocess.STDOUT,
        )

    def wait_ready(self) -> None:
        """Block until the worker has executed the probe point."""
        uid = self.queue.enqueue(PROBE_SPEC)
        deadline = time.monotonic() + READY_TIMEOUT_S
        while not self.queue.result_path(uid).exists():
            if self.proc.poll() is not None:
                raise RuntimeError(f"queue worker exited early ({self.proc.returncode})")
            if time.monotonic() > deadline:
                raise RuntimeError("queue worker did not come up")
            time.sleep(0.01)
        self.queue.forget(uid)

    def stop(self) -> None:
        try:
            self.queue.stop_path.touch()
            _stop(self.proc, "queue worker")
        finally:
            self.log.close()


class Daemon:
    """One ``repro serve --port 0`` over ``work_dir`` and ``cache_dir``."""

    def __init__(
        self, work_dir: Path, cache_dir: Path, tmp: Path, trace_out: Path | None = None
    ) -> None:
        self.log = open(tmp / f"daemon-{time.monotonic_ns()}.log", "wb")
        args = ["serve", "--work", str(work_dir), "--port", "0", "--cache-dir", str(cache_dir)]
        self.proc = subprocess.Popen(
            repro_command(args, trace_out),
            env=env_for(tmp),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=self.log,
        )

    def wait_ready(self) -> str:
        """Block until ``/healthz`` answers; returns the base URL."""
        deadline = time.monotonic() + READY_TIMEOUT_S
        ready, _, _ = select.select([self.proc.stdout], [], [], READY_TIMEOUT_S)
        line = self.proc.stdout.readline().decode() if ready else ""
        if not line.startswith("serving on "):
            raise RuntimeError(f"daemon did not announce its port: {line!r}")
        url = line.split()[-1]
        client = SweepClient(url, timeout=5.0)
        while True:
            try:
                client.health()
                return url
            except ServerError:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.01)

    def stop(self) -> None:
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGTERM)
            _stop(self.proc, "serve daemon")
        finally:
            self.proc.stdout.close()
            self.log.close()
