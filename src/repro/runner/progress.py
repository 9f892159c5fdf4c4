"""Progress reporting for plan execution.

The runner drives a tiny observer protocol — ``plan_started`` /
``point_done`` / ``plan_finished`` (or ``plan_failed`` when the backend
raises mid-plan) — so the CLI can show live progress while library
callers (tests, benchmarks) default to silence. On a TTY the point trail
collapses to one self-overwriting line; when piped, only the per-plan
summary lines are printed so logs stay readable. A point's ``source``
is ``"run"`` when it was simulated and ``"derived"`` when it came from
its ``with_base`` twin. ``plan_failed`` clears the live ``\\r`` line
before the exception propagates, so a traceback never glues onto a
half-drawn progress trail.
"""

from __future__ import annotations

import sys
import time


class NullProgress:
    """Silent observer: the library default."""

    def plan_started(self, total: int, unique: int, cached: int) -> None:
        pass

    def point_done(self, label: str, source: str, done: int, total: int) -> None:
        pass

    def plan_finished(self, submitted: int, hits: int, elapsed: float) -> None:
        pass

    def plan_failed(self, done: int, total: int, elapsed: float) -> None:
        pass


class Progress(NullProgress):
    """Prints plan progress to a stream (stderr by default)."""

    def __init__(self, stream=None, live: bool | None = None) -> None:
        self.stream = stream if stream is not None else sys.stderr
        isatty = getattr(self.stream, "isatty", lambda: False)
        self.live = live if live is not None else isatty()
        self._start = 0.0
        self._width = 0
        self._derived = 0

    def _emit(self, text: str, end: str = "\n") -> None:
        pad = max(0, self._width - len(text))
        self.stream.write(text + " " * pad + end)
        self.stream.flush()
        self._width = len(text) if end == "\r" else 0

    def plan_started(self, total: int, unique: int, cached: int) -> None:
        self._start = time.time()
        self._derived = 0
        if total != unique:
            shape = f"{total} points ({unique} unique, {cached} cached)"
        else:
            shape = f"{total} points ({cached} cached)"
        self._emit(f"plan: {shape}")

    def point_done(self, label: str, source: str, done: int, total: int) -> None:
        if source == "derived":
            self._derived += 1
        if not self.live:
            return
        self._emit(f"  [{done}/{total}] {label} ({source})", end="\r")

    def plan_finished(self, submitted: int, hits: int, elapsed: float) -> None:
        if self.live:
            self._emit("", end="\r")
        self._emit(
            f"plan done: {submitted} simulated, {self._derived} derived, "
            f"{hits} cache hits, {elapsed:.1f}s"
        )

    def plan_failed(self, done: int, total: int, elapsed: float) -> None:
        if self.live:
            self._emit("", end="\r")
        self._emit(f"plan failed: {done}/{total} points done, {elapsed:.1f}s")
