"""Asyncio HTTP/1.1 front end for the sweep daemon.

Stdlib-only by design: the repo's no-new-dependencies rule covers the
server too, so this is ``asyncio.start_server`` plus ~100 lines of
HTTP/1.1 — enough for ``curl``, :class:`repro.client.SweepClient` and
CI. Deliberate simplifications: every response closes the connection
(no keep-alive), bodies are bounded, and anything malformed is a JSON
``{"error": ...}`` with a 4xx, never a traceback on the socket.

Routes (all JSON unless noted)::

    GET  /healthz                       liveness probe
    GET  /v1/stats                      server / cache / queue / worker stats
    POST /v1/sweeps                     submit (grid | plan | specs body)
    GET  /v1/sweeps                     every known sweep's status
    GET  /v1/sweeps/{id}                one sweep's status
    GET  /v1/sweeps/{id}/results        ResultSet (?format=json|csv|markdown)
    GET  /v1/sweeps/{id}/events         Server-Sent Events progress stream

Every request shares one cache namespace. A request that carries the
``X-Repro-Tenant`` header of older versions is refused with a 400, so a
client that relied on per-tenant isolation fails instead of silently
sharing results.

Threading: the event loop owns all engine reads and every
:meth:`~repro.server.engine.SweepEngine.poll`; sweep execution runs on
the engine's drain threads, which wake the poll as each point lands.
:func:`start_in_thread` hosts the whole loop on a daemon thread.
"""

from __future__ import annotations

import asyncio
import json
import threading
from contextlib import suppress
from dataclasses import dataclass, field
from urllib.parse import parse_qs, unquote, urlsplit

from ..errors import ConfigError
from ..runner.progress import NullProgress
from ..utils import sanitize_nonfinite
from .engine import SweepEngine, parse_submission

__all__ = ["ServerHandle", "SweepServer", "start_in_thread"]

#: Largest accepted request body, bytes. A 100k-point plan document is
#: ~20 MB of JSON; anything bigger is almost certainly a mistake.
MAX_BODY_BYTES = 32 * 1024 * 1024

#: Seconds of SSE silence before a ``: keepalive`` comment is sent.
SSE_KEEPALIVE_S = 15.0

_REASONS = {
    200: "OK",
    201: "Created",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    500: "Internal Server Error",
}

_CONTENT_TYPES = {
    "json": "application/json; charset=utf-8",
    "csv": "text/csv; charset=utf-8",
    "markdown": "text/markdown; charset=utf-8",
}


class _HttpError(Exception):
    """Internal: abort request handling with (status, message)."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class _PollWaker(NullProgress):
    """The drains' progress observer: each stored point wakes the poll loop."""

    def __init__(self, loop: asyncio.AbstractEventLoop, landed: asyncio.Event) -> None:
        self.loop = loop
        self.landed = landed

    def point_done(self, label: str, source: str, done: int, total: int) -> None:
        with suppress(RuntimeError):  # the loop has closed: nothing to wake
            self.loop.call_soon_threadsafe(self.landed.set)


class SweepServer:
    """The daemon: one engine behind an asyncio socket server."""

    def __init__(
        self,
        engine: SweepEngine,
        host: str = "127.0.0.1",
        port: int = 8080,
    ) -> None:
        self.engine = engine
        self.host = host
        self.port = int(port)
        self._server: asyncio.base_events.Server | None = None
        self._poll_task: asyncio.Task | None = None
        self._landed: asyncio.Event | None = None
        #: Live connection handlers, which :meth:`stop` cancels.
        self._connections: set[asyncio.Task] = set()

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Bind the socket, reload the ledger, start the poll loop.

        With ``port=0`` the OS picks a free port; ``self.port`` holds
        the actual one afterwards (tests and CI scrape it).
        """
        self._landed = asyncio.Event()
        self.engine.progress = _PollWaker(asyncio.get_running_loop(), self._landed)
        resumed = self.engine.start()
        if resumed:
            self.engine.poll()
        self._server = await asyncio.start_server(
            self._accept, self.host, self.port, limit=1 << 20
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._poll_task = asyncio.get_running_loop().create_task(self._poll_loop())

    async def serve_forever(self) -> None:
        assert self._server is not None, "start() first"
        await self._server.serve_forever()

    async def stop(self) -> None:
        """Close the socket and live connections, stop polling, interrupt drains.

        A live connection (an SSE stream waits for its sweep's next
        event) is cancelled, and its handler closes the socket, so the
        client sees the stream end instead of waiting out its timeout.
        """
        if self._poll_task is not None:
            self._poll_task.cancel()
            with suppress(asyncio.CancelledError):
                await self._poll_task
            self._poll_task = None
        if self._server is not None:
            self._server.close()
            connections = list(self._connections)
            for task in connections:
                task.cancel()
            await asyncio.gather(*connections, return_exceptions=True)
            await self._server.wait_closed()
            self._server = None
        self.engine.shutdown()

    async def _poll_loop(self) -> None:
        """Drive engine.poll(), the only writer of progress/events.

        On each landing and on the ``poll_interval`` tick, which catches
        points landed by other processes and restart recovery.
        """
        while True:
            self._landed.clear()
            try:
                self.engine.poll()
            # repro: ignore[RPR005] poll must outlive any one bad tick
            except Exception:  # pragma: no cover - keep the loop alive
                pass
            with suppress(asyncio.TimeoutError):
                await asyncio.wait_for(self._landed.wait(), self.engine.poll_interval)

    # -- connection handling -------------------------------------------------

    def _accept(self, reader, writer) -> None:
        """Run one connection's handler as a task :meth:`stop` can cancel."""
        task = asyncio.get_running_loop().create_task(self._handle(reader, writer))
        self._connections.add(task)
        task.add_done_callback(self._connections.discard)

    async def _handle(self, reader, writer) -> None:
        try:
            try:
                request = await self._read_request(reader)
                if request is None:
                    return
                method, path, query, headers, body = request
                await self._route(method, path, query, headers, body, writer)
            except _HttpError as exc:
                self._send_json(writer, exc.status, {"error": str(exc)})
            except ConfigError as exc:
                self._send_json(writer, 400, {"error": str(exc)})
            except Exception as exc:  # pragma: no cover - last-ditch 500
                self._send_json(
                    writer, 500, {"error": f"{type(exc).__name__}: {exc}"}
                )
            await writer.drain()
        except (ConnectionError, asyncio.TimeoutError):
            pass
        finally:
            with suppress(Exception):
                writer.close()
                await writer.wait_closed()

    async def _read_request(self, reader):
        """Parse one request; ``None`` if the peer hung up early."""
        try:
            head = await asyncio.wait_for(
                reader.readuntil(b"\r\n\r\n"), timeout=30.0
            )
        except (
            asyncio.IncompleteReadError,
            asyncio.LimitOverrunError,
            asyncio.TimeoutError,
        ):
            return None
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split(" ")
        if len(parts) != 3:
            return None
        method, target, _version = parts
        split = urlsplit(target)
        path = unquote(split.path)
        query = {
            k: v[-1] for k, v in parse_qs(split.query).items() if v
        }
        headers = {}
        for line in lines[1:]:
            if ":" in line:
                name, _, value = line.partition(":")
                headers[name.strip().lower()] = value.strip()
        body = b""
        try:
            length = int(headers.get("content-length", "0") or "0")
        except ValueError:
            length = 0
        if length > MAX_BODY_BYTES:
            raise _HttpError(413, f"request body over {MAX_BODY_BYTES} bytes")
        if length > 0:
            try:
                body = await asyncio.wait_for(
                    reader.readexactly(length), timeout=60.0
                )
            except (asyncio.IncompleteReadError, asyncio.TimeoutError):
                return None
        return method, path, query, headers, body

    # -- responses -----------------------------------------------------------

    def _send(
        self,
        writer,
        status: int,
        body: bytes,
        content_type: str,
        extra_headers: str = "",
    ) -> None:
        reason = _REASONS.get(status, "Unknown")
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n"
            f"{extra_headers}\r\n"
        )
        writer.write(head.encode("latin-1") + body)

    def _send_json(self, writer, status: int, document) -> None:
        # Strict wire JSON: engine payloads may carry non-finite floats
        # (a diverged metric), which bare json.dumps would emit as the
        # NaN literal no strict parser accepts — null them first.
        body = (
            json.dumps(
                sanitize_nonfinite(document), sort_keys=True, allow_nan=False
            )
            + "\n"
        ).encode("utf-8")
        self._send(writer, status, body, _CONTENT_TYPES["json"])

    # -- routing -------------------------------------------------------------

    async def _route(self, method, path, query, headers, body, writer) -> None:
        if "x-repro-tenant" in headers:
            raise _HttpError(
                400, "X-Repro-Tenant: tenant namespaces were removed; drop the header"
            )
        segments = [s for s in path.split("/") if s]
        if path == "/healthz":
            self._require(method, "GET")
            self._send_json(writer, 200, {"ok": True})
            return
        if path == "/v1/stats":
            self._require(method, "GET")
            self._send_json(writer, 200, self.engine.stats())
            return
        if segments[:2] == ["v1", "sweeps"]:
            if len(segments) == 2:
                if method == "POST":
                    self._submit(body, writer)
                    return
                self._require(method, "GET")
                statuses = [
                    self.engine.status(sid) for sid in self.engine.sweep_ids()
                ]
                self._send_json(writer, 200, {"sweeps": statuses})
                return
            sweep = segments[2]
            if len(segments) == 3:
                self._require(method, "GET")
                self._send_json(writer, 200, self._status_or_404(sweep))
                return
            if len(segments) == 4 and segments[3] == "results":
                self._require(method, "GET")
                self._results(sweep, query, writer)
                return
            if len(segments) == 4 and segments[3] == "events":
                self._require(method, "GET")
                await self._events(sweep, writer)
                return
        raise _HttpError(404, f"no route for {path}")

    def _require(self, method: str, expected: str) -> None:
        if method != expected:
            raise _HttpError(405, f"method {method} not allowed (use {expected})")

    def _status_or_404(self, sweep: str) -> dict:
        try:
            return self.engine.status(sweep)
        except ConfigError as exc:
            raise _HttpError(404, str(exc)) from None

    def _submit(self, body, writer) -> None:
        try:
            document = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise _HttpError(400, f"request body is not valid JSON: {exc}") from None
        specs, meta = parse_submission(document)
        sweep, created = self.engine.submit(specs, meta=meta)
        status = self.engine.status(sweep)
        status["created"] = created
        self._send_json(writer, 201 if created else 200, status)

    def _results(self, sweep: str, query, writer) -> None:
        status = self._status_or_404(sweep)
        fmt = query.get("format", "json")
        if fmt not in _CONTENT_TYPES:
            raise _HttpError(
                400,
                f"unknown result format '{fmt}' "
                f"(known: {', '.join(sorted(_CONTENT_TYPES))})",
            )
        if status["state"] not in ("done", "cached"):
            raise _HttpError(
                409,
                f"sweep {sweep} has no results yet (state: {status['state']})",
            )
        try:
            text = self.engine.results(sweep, fmt)
        except ConfigError as exc:  # an entry missing or invalid: re-draining
            raise _HttpError(409, str(exc)) from None
        self._send(writer, 200, text.encode("utf-8"), _CONTENT_TYPES[fmt])

    # -- SSE -----------------------------------------------------------------

    @staticmethod
    def _sse_frame(event: dict) -> bytes:
        data = json.dumps(sanitize_nonfinite(event), sort_keys=True, allow_nan=False)
        return f"event: {event['event']}\ndata: {data}\n\n".encode("utf-8")

    async def _events(self, sweep: str, writer) -> None:
        """Stream a sweep's progress as Server-Sent Events.

        Replays every already-landed point first, then relays live
        events from the poll loop; the stream closes itself after the
        terminal ``done``/``failed`` frame. Engine callbacks fire on
        this same loop thread, so a plain ``asyncio.Queue`` bridges
        them with no cross-thread ceremony.
        """
        queue: asyncio.Queue = asyncio.Queue()
        try:
            replay, unsubscribe = self.engine.subscribe(sweep, queue.put_nowait)
        except ConfigError as exc:
            raise _HttpError(404, str(exc)) from None
        try:
            head = (
                "HTTP/1.1 200 OK\r\n"
                "Content-Type: text/event-stream; charset=utf-8\r\n"
                "Cache-Control: no-store\r\n"
                "Connection: close\r\n\r\n"
            )
            writer.write(head.encode("latin-1"))
            terminal = False
            for event in replay:
                writer.write(self._sse_frame(event))
                terminal = terminal or event["event"] in ("done", "failed")
            await writer.drain()
            while not terminal:
                try:
                    event = await asyncio.wait_for(
                        queue.get(), timeout=SSE_KEEPALIVE_S
                    )
                except asyncio.TimeoutError:
                    writer.write(b": keepalive\n\n")
                    await writer.drain()
                    continue
                writer.write(self._sse_frame(event))
                await writer.drain()
                terminal = event["event"] in ("done", "failed")
        finally:
            unsubscribe()


# -- self-hosting for tests and examples --------------------------------------


@dataclass
class ServerHandle:
    """A server running on its own daemon thread; ``stop()`` to end it."""

    engine: SweepEngine
    host: str
    port: int
    thread: threading.Thread
    _loop: asyncio.AbstractEventLoop = field(repr=False, default=None)

    @property
    def base_url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def stop(self, timeout: float = 10.0) -> None:
        loop = self._loop
        if loop is not None and loop.is_running():
            loop.call_soon_threadsafe(loop.stop)
        self.thread.join(timeout)


def start_in_thread(
    engine: SweepEngine, host: str = "127.0.0.1", port: int = 0
) -> ServerHandle:
    """Host a :class:`SweepServer` on a fresh event loop + daemon thread.

    Returns once the socket is bound (default ``port=0`` → OS-assigned,
    read it off the handle). The loop, server and engine shut down when
    :meth:`ServerHandle.stop` is called.
    """
    started = threading.Event()
    box: dict = {}

    def run() -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        server = SweepServer(engine, host=host, port=port)
        try:
            loop.run_until_complete(server.start())
        except BaseException as exc:  # bind/reload failure -> caller
            box["error"] = exc
            started.set()
            loop.close()
            return
        box["server"] = server
        box["loop"] = loop
        started.set()
        try:
            loop.run_forever()
        finally:
            loop.run_until_complete(server.stop())
            loop.close()

    thread = threading.Thread(target=run, daemon=True, name="repro-serve")
    thread.start()
    if not started.wait(timeout=30.0):
        raise ConfigError("server thread failed to start within 30s")
    if "error" in box:
        raise box["error"]
    server: SweepServer = box["server"]
    return ServerHandle(
        engine=engine,
        host=server.host,
        port=server.port,
        thread=thread,
        _loop=box["loop"],
    )
