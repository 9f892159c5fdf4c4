"""Host speed, sampled on the CPU the benchmark runs on.

Usage (started and stopped by ``run.py``)::

    python perfbench/hostspeed.py OUT.json

The benchmark's host is shared. The speed of the CPU it is given swings
between two levels about 1.6x apart, staying on one for a few seconds
to tens of seconds; a cold pass of the same code took anywhere from
7 to 13 s. Averaging within a run cannot remove a swing that outlasts
the run, so ``run.py`` pins every process of a run to one CPU and starts
this sampler there too. Every :data:`PERIOD_S` it times a fixed
pure-Python kernel (:data:`KERNEL_ITERS` dict and integer operations,
none of them the program's code) and records when the kernel ended, how
long it took, and the CPU's idle time so far. On SIGTERM it writes the
samples to ``OUT.json`` and exits.

:func:`normalise` turns a timed interval into *reference seconds*: its
idle share as it was, and its busy share times the CPU's mean speed over
the interval, relative to a CPU on which the kernel takes
:data:`REFERENCE_KERNEL_S`. A change that makes the program twice as
fast halves its busy reference seconds; a swing of the host's speed
leaves them where they were. The kernel takes about 1 ms: a 0.2 ms
kernel tracked the simulator's slowdown less well (ten cold figures runs
spread 0.07 instead of 0.03). The sampler costs the measured processes
about 5% of the CPU, the same on every run.
"""

from __future__ import annotations

import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

KERNEL_ITERS = 5000
#: The kernel's duration that defines one reference second.
REFERENCE_KERNEL_S = 1.0e-3
PERIOD_S = 0.02
#: Intervals shorter than this are judged by the samples of a window
#: this wide around their middle.
MIN_WINDOW_S = 0.5
STOP_DEADLINE_S = 10.0
CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def kernel() -> int:
    table: dict = {}
    total = 0
    for i in range(KERNEL_ITERS):
        table[i & 1023] = i
        total += table.get((i * 7) & 1023, 0) % 13
    return total


def idle_seconds(row: str) -> float:
    """Idle and I/O-wait time of one ``/proc/stat`` CPU row, in seconds."""
    with open("/proc/stat", encoding="ascii") as handle:
        for line in handle:
            fields = line.split()
            if fields[0] == row:
                return (int(fields[4]) + int(fields[5])) / CLOCK_TICKS
    raise RuntimeError(f"no {row} row in /proc/stat")


def normalise(interval, samples) -> float:
    """Reference seconds of a ``(start, end)`` ``time.monotonic`` interval.

    ``samples`` are the sampler's ``(end, duration, idle seconds)``
    triples. Each sample's speed is ``REFERENCE_KERNEL_S / duration``; the
    samples are evenly spaced in time, so their mean speed is the CPU's
    mean speed over the interval. Only the CPU's busy share is scaled:
    time no process ran on it (sleeps, polls, disk waits) passes at the
    same rate on a fast host as on a slow one.
    """
    start, end = interval
    middle = (start + end) / 2
    low = min(start, middle - MIN_WINDOW_S / 2)
    high = max(end, middle + MIN_WINDOW_S / 2)
    window = [sample for sample in samples if low <= sample[0] <= high]
    if len(window) < 2:
        raise RuntimeError(f"too few host-speed samples between {low:.3f} and {high:.3f}")
    speed = statistics.fmean(REFERENCE_KERNEL_S / took for _, took, _ in window)
    idle = (window[-1][2] - window[0][2]) / (window[-1][0] - window[0][0])
    idle = min(1.0, max(0.0, idle))
    return (end - start) * (idle + (1.0 - idle) * speed)


class Sampler:
    """The sampler, as a subprocess on the caller's CPU."""

    def __init__(self, out: Path) -> None:
        self.out = out
        self.proc = subprocess.Popen([sys.executable, __file__, str(out)], stdin=subprocess.DEVNULL)

    def stop(self) -> list:
        """Stop the sampler, wait for it to end, and return its samples."""
        self.proc.terminate()
        try:
            self.proc.wait(STOP_DEADLINE_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            raise RuntimeError("host-speed sampler did not stop") from None
        if self.proc.returncode != 0:
            raise RuntimeError(f"host-speed sampler failed (exit {self.proc.returncode})")
        return json.loads(self.out.read_text(encoding="utf-8"))


def main() -> int:
    out = sys.argv[1]
    stopping = False

    def stop(signum, frame):
        nonlocal stopping
        stopping = True

    signal.signal(signal.SIGTERM, stop)
    cpus = os.sched_getaffinity(0)
    row = f"cpu{min(cpus)}" if len(cpus) == 1 else "cpu"
    parent = os.getppid()
    samples = []
    # Also ends if run.py dies without stopping it.
    while not stopping and os.getppid() == parent:
        start = time.monotonic()
        kernel()
        end = time.monotonic()
        samples.append((end, end - start, idle_seconds(row)))
        time.sleep(PERIOD_S)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(samples, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
