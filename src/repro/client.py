"""SweepClient: the programmatic caller of a ``repro serve`` daemon.

A thin, stdlib-only (``urllib``) wrapper over the server's JSON API
that speaks the library's own nouns — you hand it a
:class:`~repro.session.Grid`, a :class:`~repro.runner.Plan` or a spec
list and get status dicts and rendered ResultSet text back::

    from repro import Grid, SweepClient

    client = SweepClient("http://localhost:8080")
    sweep = client.submit(Grid(workload="gcn", mechanism=["inorder", "nvr"]))
    client.wait(sweep["id"])
    text = client.results(sweep["id"])            # ResultSet JSON
    for event in client.events(sweep["id"]):      # SSE progress
        print(event)

Every HTTP failure — a 4xx/5xx answer or an unreachable daemon — is a
:class:`~repro.errors.ServerError` carrying the server's own error
message (and ``.status`` when there is one), so callers never see raw
``urllib`` exceptions.
"""

from __future__ import annotations

import http.client
import json
import time
import urllib.error
import urllib.request

from .errors import ConfigError, ServerError
from .runner.plan import Plan, RunSpec
from .session import Grid
from .utils import sanitize_nonfinite

__all__ = ["SweepClient"]

#: Sweep states that mean "the results endpoint will answer".
_FINISHED = ("done", "cached")


def _wire_body(sweep) -> dict:
    """Any sweep shape -> the POST /v1/sweeps wire document."""
    if isinstance(sweep, dict):
        return sweep
    if isinstance(sweep, Grid):
        return {"specs": [spec.to_dict() for spec in sweep.specs()]}
    if isinstance(sweep, Plan):
        return {"plan": sweep.to_dict()}
    if isinstance(sweep, RunSpec):
        return {"specs": [sweep.to_dict()]}
    try:
        specs = list(sweep)
    except TypeError:
        raise ConfigError(
            f"cannot submit {type(sweep).__name__} — pass a Grid, Plan, "
            "RunSpec (or list of them), or a raw wire document"
        ) from None
    if not all(isinstance(spec, RunSpec) for spec in specs):
        raise ConfigError("a sweep list must contain only RunSpec points")
    return {"specs": [spec.to_dict() for spec in specs]}


class SweepClient:
    """One daemon endpoint, wrapped for Python callers."""

    def __init__(self, base_url: str, timeout: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = float(timeout)

    def __repr__(self) -> str:
        return f"SweepClient({self.base_url!r})"

    # -- transport -----------------------------------------------------------

    def _open(self, path: str, body: dict | None = None, timeout=None):
        data = None
        headers = {"Accept": "application/json"}
        if body is not None:
            # Canonical request bodies: sorted keys keep the wire form
            # (and anything the server hashes from it) byte-stable, and
            # refusing bare NaN literals keeps the payload strict JSON —
            # non-finite floats become null before encoding.
            data = json.dumps(
                sanitize_nonfinite(body), sort_keys=True, allow_nan=False
            ).encode("utf-8")
            headers["Content-Type"] = "application/json"
        request = urllib.request.Request(
            self.base_url + path,
            data=data,
            headers=headers,
            method="POST" if body is not None else "GET",
        )
        try:
            return urllib.request.urlopen(
                request, timeout=self.timeout if timeout is None else timeout
            )
        except urllib.error.HTTPError as exc:
            try:
                message = json.loads(exc.read().decode("utf-8"))["error"]
            except (OSError, ValueError, KeyError, TypeError):
                # The error body is best-effort decoration: servers may
                # answer with HTML or nothing at all. Fall back to the
                # status line rather than masking the HTTPError itself.
                message = f"HTTP {exc.code}"
            raise ServerError(message, status=exc.code) from None
        except urllib.error.URLError as exc:
            raise ServerError(
                f"cannot reach {self.base_url}: {exc.reason}"
            ) from None

    def _json(self, path: str, body: dict | None = None) -> dict:
        with self._open(path, body) as response:
            return json.loads(response.read().decode("utf-8"))

    # -- API -----------------------------------------------------------------

    def health(self) -> dict:
        """``GET /healthz`` — raises :class:`ServerError` when down."""
        return self._json("/healthz")

    def stats(self) -> dict:
        """``GET /v1/stats`` — cache hit-rate, queue depth, worker throughput."""
        return self._json("/v1/stats")

    def submit(self, sweep, meta: dict | None = None) -> dict:
        """``POST /v1/sweeps`` — returns the acceptance status document.

        ``sweep`` may be a :class:`Grid`, :class:`Plan`,
        :class:`RunSpec` (or list of them), or a raw wire document
        (``{"grid": ...}`` / ``{"plan": ...}`` / ``{"specs": ...}``).
        The returned dict carries ``id`` (content-addressed, stable
        across resubmissions), ``state`` and per-point ``points``
        counts — a fully-cached submission comes back ``"cached"``
        with nothing enqueued.
        """
        document = dict(_wire_body(sweep))
        if meta:
            document["meta"] = dict(meta)
        return self._json("/v1/sweeps", body=document)

    def list_sweeps(self) -> list[dict]:
        """``GET /v1/sweeps`` — every sweep the daemon knows."""
        return self._json("/v1/sweeps")["sweeps"]

    def status(self, sweep: str) -> dict:
        """``GET /v1/sweeps/{id}`` — state plus per-point counts."""
        return self._json(f"/v1/sweeps/{sweep}")

    def wait(self, sweep: str, timeout: float = 300.0, poll: float = 0.25) -> dict:
        """Poll until the sweep is finished; returns the final status.

        Raises :class:`ServerError` if the sweep fails (the worker's
        error message included) or the deadline passes first.
        """
        deadline = time.monotonic() + timeout
        while True:
            status = self.status(sweep)
            if status["state"] in _FINISHED:
                return status
            if status["state"] == "failed":
                raise ServerError(
                    f"sweep {sweep} failed: {status.get('error')}"
                )
            if time.monotonic() >= deadline:
                raise ServerError(
                    f"sweep {sweep} still {status['state']} after {timeout}s"
                )
            time.sleep(poll)

    def results(self, sweep: str, fmt: str = "json", path=None) -> str:
        """``GET /v1/sweeps/{id}/results`` — rendered ResultSet text.

        The JSON flavour is byte-identical to what a warm local
        ``Session.sweep(...).to_json(path)`` writes for the same
        points. ``path`` additionally writes the text to a file.
        """
        with self._open(f"/v1/sweeps/{sweep}/results?format={fmt}") as response:
            text = response.read().decode("utf-8")
        if path is not None:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
        return text

    def events(self, sweep: str, timeout: float = 300.0):
        """``GET /v1/sweeps/{id}/events`` — yield SSE events as dicts.

        A generator over the live stream: one dict per ``point`` /
        ``done`` / ``failed`` event (keepalive comments are filtered
        out). Ends after the terminal event. A stream that stays silent
        for ``timeout`` seconds, breaks, or closes before its terminal
        event raises :class:`ServerError`.
        """
        with self._open(f"/v1/sweeps/{sweep}/events", timeout=timeout) as response:
            data_lines: list[str] = []
            try:
                for raw in response:
                    line = raw.decode("utf-8").rstrip("\n")
                    if line.startswith("data:"):
                        data_lines.append(line[5:].strip())
                    elif not line and data_lines:
                        event = json.loads("\n".join(data_lines))
                        data_lines = []
                        yield event
                        if event.get("event") in ("done", "failed"):
                            return
            except TimeoutError:
                raise ServerError(
                    f"no event from sweep {sweep} within {timeout:g}s"
                ) from None
            except (OSError, http.client.HTTPException) as exc:
                raise ServerError(
                    f"event stream of sweep {sweep} broke: "
                    f"{type(exc).__name__}: {exc}"
                ) from None
        raise ServerError(
            f"event stream of sweep {sweep} closed before its terminal event"
        )

    def sweep(self, sweep, meta: dict | None = None, timeout: float = 300.0) -> str:
        """Submit, wait, and return the ResultSet JSON text in one call."""
        accepted = self.submit(sweep, meta=meta)
        self.wait(accepted["id"], timeout=timeout)
        return self.results(accepted["id"])
