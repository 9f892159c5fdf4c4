"""repro serve: the sweep-as-a-service daemon over Session and the queue.

The HTTP front door of the reproduction — a long-lived, stdlib-only
(``asyncio``, no ``http.server``) daemon that accepts sweep submissions
over a small JSON API, dedupes them point-by-point against the
content-addressed result cache, enqueues only the misses on the
pull-based work queue (any ``repro queue worker`` drains them
unchanged), and streams results back as they land::

    repro serve --work work/ --port 8080        # the daemon
    repro queue worker --work-dir work/ &       # as many as wanted

    curl -d '{"grid": {"workload": "gcn", "mechanism": ["inorder","nvr"],
              "scale": 0.1}}' localhost:8080/v1/sweeps
    curl localhost:8080/v1/sweeps/<id>          # status + per-point counts
    curl localhost:8080/v1/sweeps/<id>/results  # ResultSet JSON (?format=csv)
    curl localhost:8080/v1/sweeps/<id>/events   # SSE: points as they land

Layering: the server sits *above* Session and the queue and invents no
execution machinery of its own —

* :mod:`repro.server.ledger` — the durable sweep ledger under
  ``<work>/server/sweeps/``: one content-addressed JSON record per
  submission, so a restarted daemon resumes every sweep id it ever
  acknowledged;
* :mod:`repro.server.engine` — :class:`SweepEngine`, the orchestration
  core: parses submissions, scans the result cache, drains each
  sweep through a :class:`~repro.session.Session` over the
  :class:`~repro.runner.QueueBackend` on a background thread, and
  derives status/events by watching results land in the cache;
* :mod:`repro.server.http` — :class:`SweepServer`, the asyncio HTTP/1.1
  front end: request parsing, routing, JSON errors, SSE streaming, and
  :func:`start_in_thread` for tests and examples that self-host.

All requests share the daemon's one result cache, whose entries are the
ones a local ``Session`` writes for the same points: over the same cache
directory, either one's results are warm hits for the other. The
programmatic client is :class:`repro.client.SweepClient`.
"""

from .engine import SweepEngine, parse_submission
from .http import ServerHandle, SweepServer, start_in_thread
from .ledger import LEDGER_FORMAT, SweepLedger, SweepRecord, sweep_id

__all__ = [
    "LEDGER_FORMAT",
    "ServerHandle",
    "SweepEngine",
    "SweepLedger",
    "SweepRecord",
    "SweepServer",
    "parse_submission",
    "start_in_thread",
    "sweep_id",
]
