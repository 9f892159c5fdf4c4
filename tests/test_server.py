"""repro serve: ledger, engine, HTTP API, client.

The acceptance properties of the sweep-as-a-service daemon:

* a Grid POSTed over HTTP, drained by an ordinary queue worker, returns
  ResultSet JSON byte-identical to the same sweep run locally;
* an identical resubmission is answered entirely from cache — every
  point a hit, nothing enqueued;
* a request carrying the removed ``X-Repro-Tenant`` header is refused,
  and a ledger record that names a tenant is skipped on reload;
* a daemon killed mid-sweep resumes it from the ledger on restart.
"""

import gc
import json
import logging
import socket
import sys
import threading
import time
import urllib.error
import urllib.request
from urllib.parse import urlsplit

import pytest

from repro.client import SweepClient
from repro.errors import ConfigError, ServerError, SimulationError
from repro.runner import ResultCache, RunSpec, run_queue_worker
from repro.runner.queue import WorkQueue
from repro.server import (
    SweepEngine,
    SweepLedger,
    SweepRecord,
    parse_submission,
    start_in_thread,
    sweep_id,
)
from repro.session import Grid, Session

SCALE = 0.05


def small_specs() -> list[RunSpec]:
    return small_grid().specs()


def small_grid() -> Grid:
    return Grid(workload="st", mechanism=["inorder", "nvr"], scale=SCALE)


def start_worker(work_dir, **kwargs) -> threading.Thread:
    kwargs.setdefault("poll", 0.02)
    kwargs.setdefault("idle_timeout", 30)
    thread = threading.Thread(
        target=run_queue_worker, args=(work_dir,), kwargs=kwargs, daemon=True
    )
    thread.start()
    return thread


def stop_worker(thread: threading.Thread, work_dir) -> None:
    """Stop a queue worker through the work dir's stop sentinel.

    Fails when the worker is still running well before its idle timeout,
    so a hung worker cannot pass silently. The sentinel is removed again
    so a later worker can serve the same work dir.
    """
    stop = WorkQueue(work_dir).stop_path
    stop.touch()
    thread.join(10)
    assert not thread.is_alive(), "queue worker did not stop"
    stop.unlink()


@pytest.fixture
def engine(tmp_path):
    eng = SweepEngine(tmp_path / "work", cache_dir=tmp_path / "cache")
    yield eng
    eng.shutdown()


@pytest.fixture
def server(engine):
    handle = start_in_thread(engine)
    yield handle
    handle.stop()


def wait_for(predicate, timeout=60.0, poll=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(poll)
    raise AssertionError("condition not reached in time")


def poll_until(engine, sid, state, timeout=60.0):
    """Drive engine.poll() (the server loop's job) until a target state."""

    def reached() -> bool:
        engine.poll()
        return engine.status(sid)["state"] == state

    wait_for(reached, timeout=timeout)


class TestLedger:
    def test_sweep_id_is_content_addressed(self):
        a, b = small_specs()
        assert sweep_id([a, b]) == sweep_id([a, b])
        assert sweep_id([a, b]) != sweep_id([b, a])
        assert sweep_id([a]) != sweep_id([a, b])

    def test_record_roundtrip(self):
        record = SweepRecord.create(small_specs(), meta={"figure": "9"})
        again = SweepRecord.from_dict(record.to_dict())
        assert again.id == record.id
        assert again.meta == {"figure": "9"}
        assert [s.key() for s in again.specs] == [s.key() for s in record.specs]
        assert "tenant" not in record.to_dict()

    def test_record_rejects_tampering_and_version_skew(self):
        record = SweepRecord.create(small_specs())
        tampered = record.to_dict()
        tampered["specs"] = tampered["specs"][::-1]
        with pytest.raises(ConfigError, match="does not match"):
            SweepRecord.from_dict(tampered)
        skewed = record.to_dict()
        skewed["format"] = 99
        with pytest.raises(ConfigError, match="format"):
            SweepRecord.from_dict(skewed)
        with pytest.raises(ConfigError, match="at least one point"):
            SweepRecord.create([])

    def test_record_with_null_tenant_reloads_with_its_id(self, tmp_path):
        # A record written before tenants were removed carries
        # "tenant": null. The default namespace hashed no tenant bytes,
        # so its id (pinned here as that version computed it) is
        # unchanged and the daemon resumes the sweep.
        specs = small_specs()
        old = {**SweepRecord.create(specs).to_dict(), "tenant": None}
        old["id"] = "28ae315e83d9a612822c8871"
        ledger = SweepLedger(tmp_path)
        ledger.sweeps_dir.mkdir(parents=True)
        ledger.path_for(old["id"]).write_text(json.dumps(old))
        assert ledger.load(old["id"]).id == sweep_id(specs) == old["id"]
        assert [r.id for r in ledger.load_all()] == [old["id"]]

    def test_record_naming_a_tenant_is_refused_and_skipped(self, tmp_path):
        ledger = SweepLedger(tmp_path)
        kept = SweepRecord.create(small_specs())
        ledger.save(kept)
        # The first point submitted as tenant "alice" by that version.
        named = SweepRecord.create(small_specs()[:1]).to_dict()
        named.update(id="d75ccd0f708454693baa6a03", tenant="alice")
        with pytest.raises(ConfigError, match="tenant namespaces were removed"):
            SweepRecord.from_dict(named)
        ledger.path_for(named["id"]).write_text(json.dumps(named))
        assert [r.id for r in ledger.load_all()] == [kept.id]

    def test_ledger_persists_and_skips_corrupt(self, tmp_path):
        ledger = SweepLedger(tmp_path)
        record = SweepRecord.create(small_specs())
        ledger.save(record)
        assert ledger.load(record.id).id == record.id
        (ledger.sweeps_dir / "junk.json").write_text("{not json")
        loaded = ledger.load_all()
        assert [r.id for r in loaded] == [record.id]
        with pytest.raises(ConfigError, match="no sweep record"):
            ledger.load("0" * 24)


class TestParseSubmission:
    def test_all_three_sources_expand_identically(self):
        grid = small_grid()
        expected = [s.key() for s in grid.specs()]
        for document in (
            {
                "grid": {
                    "workload": "st",
                    "mechanism": ["inorder", "nvr"],
                    "scale": SCALE,
                }
            },
            {"plan": grid.plan().to_dict()},
            {"specs": [s.to_dict() for s in grid.specs()]},
        ):
            specs, meta = parse_submission(document)
            assert [s.key() for s in specs] == expected
            assert meta == {}

    def test_meta_rides_along(self):
        _, meta = parse_submission(
            {"specs": [RunSpec("st", scale=SCALE).to_dict()], "meta": {"k": 1}}
        )
        assert meta == {"k": 1}

    @pytest.mark.parametrize(
        "document, match",
        [
            ([1, 2], "JSON object"),
            ({}, "exactly one of"),
            ({"grid": {"workload": "st"}, "specs": []}, "exactly one of"),
            ({"grid": {}}, "non-empty object"),
            ({"specs": []}, "non-empty list"),
            ({"specs": [42]}, "submission spec"),
            ({"specs": [RunSpec("st").to_dict()], "meta": 3}, "'meta'"),
            # A value no spec can hold is a ConfigError (a 400) that
            # names its spec.
            ({"grid": {"workload": "ds", "scale": "x"}}, "grid point .*'scale'"),
            ({"grid": {"workload": "ds", "nsb_kib": "x"}}, "grid point .*'nsb_kib'"),
            (
                {"grid": {"workload": "ds", "nvr_depth": "x"}},
                "grid point .*'nvr_depth'",
            ),
            (
                {"plan": {"format": 1, "specs": [{"workload": "ds", "scale": "x"}]}},
                "plan spec #0",
            ),
            ({"specs": [{"workload": "ds", "scale": "x"}]}, "submission spec #0"),
            (
                {"specs": [{"workload": "ds", "workload_args": [["a"]]}]},
                "submission spec #0",
            ),
            # The retired shorthand layout (memory sizes in KiB).
            (
                {"specs": [{"workload": "ds", "memory": {"l2_kib": 128}}]},
                "submission spec #0",
            ),
        ],
    )
    def test_malformed_submissions_are_config_errors(self, document, match):
        with pytest.raises(ConfigError, match=match):
            parse_submission(document)


class TestSweepEngine:
    def test_prewarmed_submission_is_cached_and_enqueues_nothing(
        self, tmp_path, engine
    ):
        specs = small_specs()
        with Session(cache_dir=tmp_path / "cache") as session:
            local = session.sweep(specs)
        sid, created = engine.submit(specs)
        assert created
        status = engine.status(sid)
        assert status["state"] == "cached"
        assert status["points"]["cached_at_submit"] == 2
        assert not list(engine.queue.queue_dir.iterdir())
        assert engine.results(sid) == local.render("json")

    def test_submit_and_results_read_each_entry_once(
        self, tmp_path, engine, monkeypatch
    ):
        # Submission tests entries for presence; results() is the one
        # verified read, on the first submission and on a warm resubmit.
        specs = small_specs()
        with Session(cache_dir=tmp_path / "cache") as session:
            local = session.sweep(specs)
        reads = []
        real_get = ResultCache.get

        def counting_get(cache, spec):
            reads.append(spec.key())
            return real_get(cache, spec)

        monkeypatch.setattr(ResultCache, "get", counting_get)
        for created in (True, False):
            reads.clear()
            sid, new_record = engine.submit(specs)
            assert new_record is created
            assert engine.results(sid) == local.render("json")
            assert sorted(reads) == sorted(spec.key() for spec in specs)
        # A point listed three times is still one entry, read once.
        reads.clear()
        sid, _ = engine.submit([specs[0]] * 3)
        assert len(json.loads(engine.results(sid))) == 3
        assert reads == [specs[0].key()]

    def test_results_redrains_an_entry_present_but_invalid(self, tmp_path, engine):
        specs = small_specs()
        with Session(cache_dir=tmp_path / "cache") as session:
            local = session.sweep(specs)
        bad = engine.cache.path_for(specs[0])
        bad.write_text("{truncated", encoding="utf-8")
        sid, _ = engine.submit(specs)
        # Present at submit counts as cached; results() verifies.
        assert engine.status(sid)["points"]["cached_at_submit"] == 2
        with pytest.raises(ConfigError, match="missing from the cache or invalid"):
            engine.results(sid)
        # Removed, so poll() waits for the re-drain's entry.
        assert not bad.exists()
        engine.poll()
        assert engine.status(sid)["points"]["done"] == 1
        worker = start_worker(engine.work_dir)

        def redrained() -> bool:
            engine.poll()
            return engine.status(sid)["points"]["done"] == 2

        wait_for(redrained)
        assert engine.results(sid) == local.render("json")
        # The re-drained point was simulated, not served from the cache.
        status = engine.status(sid)
        assert status["state"] == "done"
        assert status["points"]["cached_at_submit"] == 1
        stop_worker(worker, engine.work_dir)

    def test_duplicate_points_dedupe_but_results_keep_submission_order(
        self, tmp_path, engine
    ):
        spec = RunSpec("st", scale=SCALE)
        with Session(cache_dir=tmp_path / "cache") as session:
            session.sweep([spec])
        sid, _ = engine.submit([spec, spec, spec])
        status = engine.status(sid)
        assert status["points"] == {
            "total": 3,
            "unique": 1,
            "done": 1,
            "cached_at_submit": 1,
            "queued": 0,
            "running": 0,
        }
        assert len(json.loads(engine.results(sid))) == 3

    def test_drain_through_queue_worker(self, engine):
        sid, _ = engine.submit(small_specs())
        assert engine.status(sid)["state"] == "queued"
        with pytest.raises(ConfigError, match="no results yet"):
            engine.results(sid)
        worker = start_worker(engine.work_dir)
        poll_until(engine, sid, "done")
        assert engine.status(sid)["points"]["done"] == 2
        records = json.loads(engine.results(sid))
        assert {r["mechanism"] for r in records} == {"inorder", "nvr"}
        stop_worker(worker, engine.work_dir)

    def test_drain_sizes_its_units(self, engine):
        # The drain names no batch, so the queue backend sizes the units
        # from the sweep: 80 points go out as 10 units of 8. Counted at
        # the drain's first sleep, with every unit enqueued and no
        # worker started.
        specs = [RunSpec("st", scale=SCALE, seed=seed) for seed in range(80)]
        slept = threading.Event()
        sleep = engine._interruptible_sleep

        def first_sleep(seconds):
            slept.set()
            sleep(seconds)

        engine._interruptible_sleep = first_sleep
        engine.submit(specs)
        assert slept.wait(30), "the drain never reached its scan loop"
        status = engine.queue.status(deep=True)
        assert (status.queued, status.queued_points) == (10, 80)

    def test_unknown_sweep_is_config_error(self, engine):
        with pytest.raises(ConfigError, match="unknown sweep"):
            engine.status("f" * 24)
        with pytest.raises(ConfigError, match="unknown sweep"):
            engine.results("f" * 24)
        with pytest.raises(ConfigError, match="unknown sweep"):
            engine.subscribe("f" * 24, lambda event: None)

    def test_failed_sweep_reports_and_resubmission_retries(
        self, engine, monkeypatch
    ):
        import repro.runner.pool as pool

        calls = {"n": 0}
        real_execute = pool.execute_spec

        def flaky_execute(spec):
            if spec.seed == 7:
                calls["n"] += 1
                if calls["n"] == 1:
                    raise SimulationError("synthetic failure")
            return real_execute(spec)

        monkeypatch.setattr(pool, "execute_spec", flaky_execute)
        bad = RunSpec("st", scale=SCALE, seed=7)
        worker = start_worker(engine.work_dir, max_units=1)
        sid, _ = engine.submit([bad])
        poll_until(engine, sid, "failed")
        status = engine.status(sid)
        assert "synthetic failure" in status["error"]
        # The error is durable: a reloaded engine reports it too.
        assert engine.ledger.load(sid).error is not None
        stop_worker(worker, engine.work_dir)

        # Resubmitting clears the error and retries (second run succeeds).
        worker = start_worker(engine.work_dir, max_units=1)
        sid2, created = engine.submit([bad])
        assert sid2 == sid and not created
        poll_until(engine, sid, "done")
        assert engine.status(sid)["error"] is None
        stop_worker(worker, engine.work_dir)

    def test_restart_mid_sweep_resumes_from_ledger(self, tmp_path):
        work, cache = tmp_path / "work", tmp_path / "cache"
        first = SweepEngine(work, cache_dir=cache)
        sid, _ = first.submit(small_specs())
        wait_for(lambda: len(list(first.queue.queue_dir.iterdir())) == 2)
        first.shutdown()  # daemon dies with units still queued

        second = SweepEngine(work, cache_dir=cache)
        assert second.start() == 1  # the sweep came back as pending
        assert second.status(sid)["state"] == "queued"
        worker = start_worker(work)
        poll_until(second, sid, "done")
        records = json.loads(second.results(sid))
        assert len(records) == 2
        stop_worker(worker, work)
        second.shutdown()

        # A third restart finds everything already cached: nothing resumes.
        third = SweepEngine(work, cache_dir=cache)
        assert third.start() == 0
        assert third.status(sid)["state"] == "cached"
        third.shutdown()

    def test_subscribe_replays_landed_points_exactly_once(self, engine):
        specs = small_specs()
        worker = start_worker(engine.work_dir)
        sid, _ = engine.submit(specs)
        live: list = []
        replay, unsubscribe = engine.subscribe(sid, live.append)
        poll_until(engine, sid, "done")
        events = replay + live
        assert [e["event"] for e in events] == ["point", "point", "done"]
        assert [e["done"] for e in events[:2]] == [1, 2]
        unsubscribe()
        # A late subscriber gets the full story as replay, nothing live.
        replay2, unsub2 = engine.subscribe(sid, live.append)
        assert [e["event"] for e in replay2] == ["point", "point", "done"]
        unsub2()
        stop_worker(worker, engine.work_dir)

    def test_stats_counts_sweeps_and_hit_rate(self, tmp_path, engine):
        specs = small_specs()
        with Session(cache_dir=tmp_path / "cache") as session:
            session.sweep(specs)
        engine.submit(specs)
        engine.submit(specs)  # resubmission: 4 seen, 4 cached
        stats = engine.stats()
        assert stats["server"]["sweeps"] == {"total": 1, "cached": 1}
        assert stats["cache"]["points_submitted"] == 4
        assert stats["cache"]["hit_rate"] == 1.0
        assert stats["queue"]["queued"] == 0
        assert set(stats) == {"server", "cache", "queue", "workers"}
        assert "tenants" not in stats["server"]


class TestHTTPServer:
    def test_end_to_end_bit_equal_and_warm_resubmit(self, tmp_path, server):
        client = SweepClient(server.base_url)
        assert client.health() == {"ok": True}

        worker = start_worker(server.engine.work_dir)
        accepted = client.submit(small_grid(), meta={"who": "ci"})
        assert accepted["created"] is True
        final = client.wait(accepted["id"], timeout=120)
        assert final["state"] == "done"
        stop_worker(worker, server.engine.work_dir)

        # Byte-identical to the same sweep run through a local Session.
        with Session(cache_dir=tmp_path / "cache2") as session:
            local = session.sweep(small_grid())
        assert client.results(accepted["id"]) == local.render("json")
        out = tmp_path / "results.json"
        client.results(accepted["id"], path=out)
        assert out.read_text() == local.render("json")
        assert client.results(accepted["id"], fmt="csv") == local.render("csv")

        # Identical resubmission: pure cache, nothing enqueued.
        again = client.submit(small_grid(), meta={"who": "ci"})
        assert again["id"] == accepted["id"]
        assert again["created"] is False
        assert again["state"] == "cached"
        points = again["points"]
        assert points["cached_at_submit"] == points["unique"] == points["done"]
        assert not list(server.engine.queue.queue_dir.iterdir())

        listed = client.list_sweeps()
        assert [s["id"] for s in listed] == [accepted["id"]]

    def test_tenant_header_is_refused_with_400(self, server):
        # Tenant namespaces were removed: a client that still sends the
        # header fails loudly instead of sharing the default namespace.
        body = json.dumps({"grid": {"workload": "st", "scale": SCALE}}).encode()
        request = urllib.request.Request(
            server.base_url + "/v1/sweeps",
            data=body,
            method="POST",
            headers={"X-Repro-Tenant": "alice"},
        )
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(request)
        assert info.value.code == 400
        error = json.loads(info.value.read())["error"]
        assert "tenant namespaces were removed" in error
        engine = server.engine
        assert engine.sweep_ids() == []
        assert not list(engine.queue.queue_dir.iterdir())
        assert not engine.ledger.sweeps_dir.exists()

    def test_sse_stream_ends_with_done(self, server):
        client = SweepClient(server.base_url)
        worker = start_worker(server.engine.work_dir)
        accepted = client.submit(small_grid())
        events = list(client.events(accepted["id"], timeout=120))
        assert [e["event"] for e in events] == ["point", "point", "done"]
        assert events[-1]["total"] == 2
        labels = {e["label"] for e in events[:2]}
        assert labels == {s.label() for s in small_grid().specs()}
        stop_worker(worker, server.engine.work_dir)

    def test_silent_event_stream_is_server_error(self, server):
        client = SweepClient(server.base_url)
        sid = client.submit(small_grid())["id"]  # no worker: no event comes
        start = time.monotonic()
        with pytest.raises(ServerError, match="no event .* within 0.5s"):
            list(client.events(sid, timeout=0.5))
        assert time.monotonic() - start < 2

    def test_stop_ends_live_event_streams(self, tmp_path, caplog, monkeypatch):
        # Stopping the server cancels an SSE handler still waiting for
        # its sweep's next event: stop() returns at once, the client
        # sees its stream end early, and the closed loop destroys no
        # pending task.
        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        engine = SweepEngine(tmp_path / "work", cache_dir=tmp_path / "cache")
        handle = start_in_thread(engine)
        client = SweepClient(handle.base_url)
        sid = client.submit(small_grid())["id"]  # no worker: no event comes
        errors = []

        def follow():
            try:
                list(client.events(sid, timeout=30))
            except ServerError as exc:
                errors.append(exc)

        follower = threading.Thread(target=follow, daemon=True)
        follower.start()
        try:
            wait_for(lambda: sid in engine._subscribers, timeout=10)
            start = time.monotonic()
            handle.stop()
            assert time.monotonic() - start < 2
            follower.join(2)
            assert not follower.is_alive(), "the client still waits"
        finally:
            handle.stop()
            engine.shutdown()
        gc.collect()
        assert len(errors) == 1
        assert "closed before its terminal event" in str(errors[0])
        logged = [r for r in caplog.records if r.name == "asyncio"]
        assert [r for r in logged if r.levelno >= logging.WARNING] == []
        assert unraisable == []

    def test_oversized_body_is_refused_with_413(self, tmp_path, caplog):
        # A Content-Length over MAX_BODY_BYTES is answered with 413 before
        # any body is read, and the handler ends without a stray error.
        engine = SweepEngine(tmp_path / "work", cache_dir=tmp_path / "cache")
        handle = start_in_thread(engine)
        url = urlsplit(handle.base_url)
        reply = b""
        try:
            with socket.create_connection((url.hostname, url.port), timeout=10) as sock:
                sock.sendall(
                    b"POST /v1/sweeps HTTP/1.1\r\nHost: test\r\n"
                    b"Content-Length: 40000000\r\n\r\n"
                )
                while chunk := sock.recv(4096):
                    reply += chunk
        finally:
            handle.stop()
            engine.shutdown()
        gc.collect()
        assert reply.split(b"\r\n", 1)[0] == b"HTTP/1.1 413 Payload Too Large"
        assert b"request body over" in reply
        logged = [r for r in caplog.records if r.name == "asyncio"]
        assert [r for r in logged if r.levelno >= logging.WARNING] == []

    def test_landing_wakes_the_poller(self, tmp_path):
        # The drain wakes the server's poll loop as it stores each point,
        # so a sweep's events do not wait for the (here 30 s) tick.
        engine = SweepEngine(
            tmp_path / "work", cache_dir=tmp_path / "cache", poll_interval=30
        )
        handle = start_in_thread(engine)
        worker = start_worker(engine.work_dir)
        try:
            client = SweepClient(handle.base_url)
            start = time.monotonic()
            accepted = client.submit(small_grid())
            events = list(client.events(accepted["id"], timeout=10))
            assert [e["event"] for e in events] == ["point", "point", "done"]
            assert time.monotonic() - start < 10
        finally:
            stop_worker(worker, engine.work_dir)
            handle.stop()
            engine.shutdown()
        # The loop is closed: a late landing wakes nothing and raises nothing.
        engine.progress.point_done("late", "run", 2, 2)

    def test_http_error_surface(self, server):
        client = SweepClient(server.base_url)
        base = server.base_url

        with pytest.raises(ServerError, match="unknown sweep") as info:
            client.status("f" * 24)
        assert info.value.status == 404
        with pytest.raises(ServerError, match="no route"):
            client._json("/nope")
        with pytest.raises(ServerError, match="still queued"):
            # No worker is draining this work dir, so a short wait on a
            # queued sweep times out with the state in the message.
            accepted = client.submit([RunSpec("st", scale=SCALE, seed=11)])
            client.wait(accepted["id"], timeout=0.2, poll=0.05)
        assert base.startswith("http://127.0.0.1:")

    def test_http_status_codes(self, server):
        base = server.base_url

        def code_of(path, data=None, method=None, headers=None):
            request = urllib.request.Request(
                base + path, data=data, method=method, headers=headers or {}
            )
            try:
                with urllib.request.urlopen(request) as response:
                    return response.status, json.loads(response.read())
            except urllib.error.HTTPError as exc:
                return exc.code, json.loads(exc.read())

        assert code_of("/healthz")[0] == 200
        assert code_of("/nope")[0] == 404
        assert code_of("/healthz", data=b"{}", method="POST")[0] == 405
        assert code_of("/v1/sweeps", data=b"not json", method="POST")[0] == 400
        code, body = code_of(
            "/v1/sweeps",
            data=json.dumps({"grid": {"workload": "st", "scale": SCALE}}).encode(),
            method="POST",
            headers={"X-Repro-Tenant": "no spaces allowed"},
        )
        assert code == 400 and "tenant namespaces were removed" in body["error"]
        # A queued sweep's results are a 409 Conflict, not an error page.
        code, body = code_of(
            "/v1/sweeps",
            data=json.dumps(
                {"specs": [RunSpec("st", scale=SCALE, seed=3).to_dict()]}
            ).encode(),
            method="POST",
        )
        assert code == 201 and body["state"] == "queued"
        code, error = code_of(f"/v1/sweeps/{body['id']}/results")
        assert code == 409 and "no results yet" in error["error"]
        code, error = code_of(f"/v1/sweeps/{body['id']}/results?format=xml")
        assert code == 400 and "unknown result format" in error["error"]

    def test_stats_endpoint_matches_queue_status_json_cli(
        self, server, capsys
    ):
        from repro.__main__ import main as cli_main

        client = SweepClient(server.base_url)
        stats = client.stats()
        assert set(stats) == {"server", "cache", "queue", "workers"}
        rc = cli_main(
            ["queue", "status", "--work-dir", str(server.engine.work_dir), "--json"]
        )
        assert rc == 0
        document = json.loads(capsys.readouterr().out)
        cli_queue = {k: v for k, v in document.items() if k != "work_dir"}
        assert cli_queue == stats["queue"]


class TestSweepClientOffline:
    def test_unreachable_daemon_is_server_error(self):
        client = SweepClient("http://127.0.0.1:9", timeout=0.5)
        with pytest.raises(ServerError, match="cannot reach"):
            client.health()

    def test_wire_body_shapes(self):
        from repro.client import _wire_body

        grid = small_grid()
        assert _wire_body(grid) == {
            "specs": [s.to_dict() for s in grid.specs()]
        }
        plan = grid.plan()
        assert _wire_body(plan) == {"plan": plan.to_dict()}
        spec = RunSpec("st", scale=SCALE)
        assert _wire_body(spec) == {"specs": [spec.to_dict()]}
        assert _wire_body([spec]) == {"specs": [spec.to_dict()]}
        assert _wire_body({"grid": {"workload": "st"}}) == {
            "grid": {"workload": "st"}
        }
        with pytest.raises(ConfigError, match="cannot submit"):
            _wire_body(42)
        with pytest.raises(ConfigError, match="only RunSpec"):
            _wire_body(["st"])
