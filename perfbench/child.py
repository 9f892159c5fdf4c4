"""One pass of a benchmark workload, in a fresh interpreter.

Usage::

    python perfbench/child.py WORKLOAD --seed N --tmp DIR [--trace] [--setup-only]
                              [--reference FILE]

Prints ``ready`` once the workload's points are built and a sweep could
start, then runs the workload's timed phases and prints one JSON
document as its last line. ``run.py`` starts one child per pass, so
every pass is cold: no process memo (``runner.pool._workload_for``,
``code_fingerprint``) survives from an earlier pass.

Phases, each timed on its own:

* ``figures`` — cold sweep into an empty cache; warm sweeps on fresh
  Sessions over the filled cache; a slice of the points through a
  one-worker queue at batch 8.
* ``paper-scale`` — cold uncached sweep; its in-order points again in
  this process (programs memoised, so simulation only); a slice through
  the queue at batch 8.
* ``serve`` — ``repro serve`` plus one ``repro queue worker``: a cold
  submission followed over SSE to its terminal event and read back; the
  same submission resubmitted warm; the same points through
  ``Session.remote(batch=8)`` against an empty cache.

Every phase's outputs are checked against the cold phase (``serve``:
against an inline ``Session.sweep`` of the same points, byte for byte).
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from repro.client import SweepClient  # noqa: E402
from repro.session import Session  # noqa: E402

import procs  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

#: Warm repetitions per pass.
WARM_REPS = {"figures": 100, "paper-scale": 1, "serve": 15}
#: Batch-8 queue drains per serve pass.
QUEUE_REPS_SERVE = 1
QUEUE_TIMEOUT_S = 120.0


class Checks:
    """Operations attempted and failed (an output that did not match)."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def points(self, expected: dict, got: dict) -> None:
        self.attempted += len(got)
        self.failed += workloads.mismatches(expected, got)

    def text(self, expected: str, got: str, points: int) -> None:
        self.attempted += points
        if got != expected:
            self.failed += points


def span(interval) -> float:
    return interval[1] - interval[0]


def timed_sweep(make_session, specs):
    """Sweep ``specs``; returns the ``time.monotonic`` interval and the results."""
    start = time.monotonic()
    with make_session() as session:
        rs = session.sweep(specs)
    return (start, time.monotonic()), rs


def digests_of(rs) -> dict:
    return workloads.point_digests(*zip(*rs)) if len(rs) else {}


def queue_phase(specs, tmp: Path, checks: Checks, expected: dict, traces: list) -> tuple:
    """Drain ``specs`` through a fresh one-worker queue at batch 8."""
    work = tmp / "queue-work"
    trace_out = tmp / "worker-trace.json" if traces is not None else None
    worker = procs.Worker(work, tmp, trace_out)
    try:
        worker.wait_ready()
        wall, rs = timed_sweep(
            lambda: Session.remote(
                work,
                batch=workloads.QUEUE_BATCH,
                cache_dir=tmp / "queue-cache",
                timeout=QUEUE_TIMEOUT_S,
                poll=procs.POLL_S,
            ),
            specs,
        )
    finally:
        worker.stop()
    if trace_out is not None:
        traces.append(("worker", json.loads(trace_out.read_text())))
    checks.points(expected, digests_of(rs))
    return wall


def inprocess_pass(workload: str, specs, tmp: Path, traces) -> dict:
    checks = Checks()
    if workload == "figures":

        def make_session():
            return Session(jobs=1, cache_dir=tmp / "cache", progress=False)

    else:

        def make_session():
            return Session(jobs=1, cache=False, progress=False)

    wall, rs = timed_sweep(make_session, specs)
    reference = digests_of(rs)
    checks.attempted += len(reference)
    counters = workloads.counters(*zip(*rs))

    warm = []
    for _ in range(WARM_REPS[workload]):
        interval, warm_rs = timed_sweep(make_session, workloads.warm_specs(workload, specs))
        warm.append(interval)
        checks.points(reference, digests_of(warm_rs))

    queue = queue_phase(
        workloads.queue_specs(workload, specs), tmp, checks, reference, traces
    )
    return {
        "wall_s": [wall],
        "warm_s": warm,
        "queue_b8_s": [queue],
        "timed_s": span(wall) + sum(map(span, warm)) + span(queue),
        "digest": workloads.plan_digest(reference),
        "counters": counters,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def start_serve(tmp: Path, daemon_trace=None, worker_trace=None):
    """Start daemon and worker; returns (daemon, worker, url, set-up interval)."""
    start = time.monotonic()
    daemon = procs.Daemon(tmp / "serve-work", tmp / "serve-cache", tmp, daemon_trace)
    worker = None
    try:
        worker = procs.Worker(tmp / "serve-work", tmp, worker_trace)
        url = daemon.wait_ready()
        worker.wait_ready()
    except BaseException:
        stop_serve(daemon, worker)
        raise
    return daemon, worker, url, (start, time.monotonic())


def stop_serve(daemon, worker) -> None:
    try:
        if worker is not None:
            worker.stop()
    finally:
        daemon.stop()


def serve_pass(specs, tmp: Path, traces, reference_text: str, reference: dict) -> dict:
    checks = Checks()
    points = len(reference)
    daemon_trace = tmp / "daemon-trace.json" if traces is not None else None
    worker_trace = tmp / "worker-trace.json" if traces is not None else None
    daemon, worker, url, setup = start_serve(tmp, daemon_trace, worker_trace)
    try:
        client = SweepClient(url, timeout=QUEUE_TIMEOUT_S)

        # Cold: submit, follow SSE to the terminal event, read back.
        start = time.monotonic()
        accepted = client.submit(specs)
        submit_s = time.monotonic() - start
        first_point_s = None
        for event in client.events(accepted["id"], timeout=QUEUE_TIMEOUT_S):
            if first_point_s is None and event["event"] == "point":
                first_point_s = time.monotonic() - start
            if event["event"] == "failed":
                raise RuntimeError(f"sweep failed: {event.get('error')}")
        before_results = time.monotonic()
        text = client.results(accepted["id"])
        end = time.monotonic()
        wall = (start, end)
        results_s = end - before_results
        checks.text(reference_text, text, points)

        # Warm: the identical submission is answered from the cache.
        warm = []
        cached_at_submit = 0
        for _ in range(WARM_REPS["serve"]):
            start = time.monotonic()
            again = client.submit(specs)
            warm_text = client.results(again["id"])
            warm.append((start, time.monotonic()))
            cached_at_submit = again["points"]["cached_at_submit"]
            checks.text(reference_text, warm_text, points)

        # The same points through the queue at batch 8, each time into
        # an empty cache.
        queue = []
        for rep in range(QUEUE_REPS_SERVE):
            interval, rs = timed_sweep(
                lambda: Session.remote(
                    tmp / "serve-work",
                    batch=workloads.QUEUE_BATCH,
                    cache_dir=tmp / f"b8-cache-{rep}",
                    timeout=QUEUE_TIMEOUT_S,
                    poll=procs.POLL_S,
                ),
                specs,
            )
            queue.append(interval)
            checks.points(reference, digests_of(rs))
        rss = procs.peak_rss_mb(daemon.proc.pid) + procs.peak_rss_mb(worker.proc.pid)
    finally:
        stop_serve(daemon, worker)
    if traces is not None:
        traces.append(("worker", json.loads(worker_trace.read_text())))
        traces.append(("daemon", json.loads(daemon_trace.read_text())))
    return {
        "setup_s": setup,
        "wall_s": [wall],
        "warm_s": warm,
        "queue_b8_s": queue,
        "timed_s": span(setup) + span(wall) + sum(map(span, warm)) + sum(map(span, queue)),
        "submit_s": submit_s,
        "first_point_s": first_point_s,
        "results_s": results_s,
        "cached_at_submit": cached_at_submit,
        "digest": workloads.plan_digest(reference),
        "attempted": checks.attempted,
        "failed": checks.failed,
        "peak_rss_mb": rss,
    }


def serve_reference(specs, path: Path) -> tuple[str, dict, dict]:
    """The inline ``Session.sweep`` that ``serve`` must match byte for byte.

    Computed before any timing (and before the tracer is installed) by
    the run's first pass; later passes of the run read it from ``path``.
    """
    if path.is_file():
        saved = json.loads(path.read_text(encoding="utf-8"))
        return saved["text"], saved["digests"], saved["counters"]
    with Session(jobs=1, cache=False, progress=False) as session:
        inline = session.sweep(specs)
    text, digests = inline.render("json"), digests_of(inline)
    counters = workloads.counters(*zip(*inline))
    saved = {"text": text, "digests": digests, "counters": counters}
    path.write_text(json.dumps(saved), encoding="utf-8")
    return text, digests, counters


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tmp", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument(
        "--reference", type=Path, help="serve: where the run keeps its inline reference"
    )
    args = parser.parse_args()

    specs = workloads.specs_for(args.workload, args.seed)
    print("ready", flush=True)
    if args.setup_only:
        if args.workload == "serve":
            daemon, worker, _, setup = start_serve(args.tmp)
            stop_serve(daemon, worker)
            print(json.dumps({"setup_s": setup}))
        return 0

    if args.workload == "serve":
        reference_text, reference, counters = serve_reference(specs, args.reference)

    traces: list | None = [] if args.trace else None
    tracer = Tracer().install() if args.trace else None
    try:
        if args.workload == "serve":
            doc = serve_pass(specs, args.tmp, traces, reference_text, reference)
            doc["counters"] = counters
        else:
            doc = inprocess_pass(args.workload, specs, args.tmp, traces)
    finally:
        if tracer is not None:
            tracer.uninstall()
    if tracer is not None:
        doc["traces"] = [("client", tracer.snapshot()), *traces]
    print(json.dumps(doc, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
