#!/usr/bin/env python3
"""Sweep-as-a-service: submit a paper sweep to a ``repro serve`` daemon.

Self-hosts the whole loop in one process so the example runs with no
setup: a :class:`~repro.server.SweepEngine` + HTTP server on a daemon
thread, one queue worker draining it, and a
:class:`~repro.client.SweepClient` talking to it over real HTTP — the
exact same wire protocol as a daemon started with::

    repro serve --work work/ --port 8080
    repro queue worker --work-dir work/ &

Shows the two server guarantees: live SSE progress as points land, and
an identical resubmission answered entirely from cache (nothing
enqueued).

Run:  python examples/serve_client.py
      (scale honours $REPRO_EXAMPLE_SCALE; default 0.2)
"""

import json
import os
import tempfile
import threading
from pathlib import Path

from repro import Grid, SweepClient
from repro.runner import run_queue_worker
from repro.server import SweepEngine, start_in_thread

SCALE = float(os.environ.get("REPRO_EXAMPLE_SCALE", 0.2))


def main() -> None:
    scratch = tempfile.TemporaryDirectory(prefix="repro-serve-")
    work = Path(scratch.name) / "work"
    cache = Path(scratch.name) / "cache"

    engine = SweepEngine(work, cache_dir=cache)
    server = start_in_thread(engine)
    print(f"daemon listening on {server.base_url}")

    worker = threading.Thread(
        target=run_queue_worker,
        kwargs=dict(work_dir=work, poll=0.02, idle_timeout=60),
        daemon=True,
    )
    worker.start()

    grid = Grid(workload="gcn", mechanism=["inorder", "nvr"], scale=SCALE)
    client = SweepClient(server.base_url)

    accepted = client.submit(grid, meta={"figure": "speedup"})
    print(
        f"submitted sweep {accepted['id']}: {accepted['points']['unique']} "
        f"unique point(s), state '{accepted['state']}'"
    )
    for event in client.events(accepted["id"]):
        if event["event"] == "point":
            print(f"  [{event['done']}/{event['total']}] {event['label']}")
        else:
            print(f"  sweep {event['event']}")

    records = json.loads(client.results(accepted["id"]))
    for record in records:
        print(
            f"  {record['workload']}/{record['mechanism']}: "
            f"{record['total_cycles']} cycles"
        )

    again = client.submit(grid, meta={"figure": "speedup"})
    print(
        f"resubmission: state '{again['state']}', "
        f"{again['points']['cached_at_submit']}/{again['points']['unique']} "
        "point(s) answered from cache, nothing enqueued"
    )

    stats = client.stats()
    print(
        f"server stats: {stats['server']['sweeps']['total']} sweep(s), "
        f"cache hit rate {stats['cache']['hit_rate']}, "
        f"{len(stats['workers'])} worker(s) seen"
    )

    server.stop()
    scratch.cleanup()


if __name__ == "__main__":
    main()
