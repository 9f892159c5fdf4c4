"""repro serve: ledger, engine, HTTP API, client, multi-tenant isolation.

The acceptance properties of the sweep-as-a-service daemon:

* a Grid POSTed over HTTP, drained by an ordinary queue worker, returns
  ResultSet JSON byte-identical to the same sweep run locally;
* an identical resubmission is answered entirely from cache — every
  point a hit, nothing enqueued;
* two tenants submitting the same spec get isolated cache namespaces
  (different salts, different directories) and both complete;
* a daemon killed mid-sweep resumes it from the ledger on restart.
"""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.client import SweepClient
from repro.errors import ConfigError, ServerError, SimulationError
from repro.runner import RunSpec, expand, run_queue_worker
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
    return expand("st", ["inorder", "nvr"], scales=SCALE)


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
        assert sweep_id(None, [a, b]) == sweep_id(None, [a, b])
        assert sweep_id(None, [a, b]) != sweep_id(None, [b, a])
        assert sweep_id(None, [a, b]) != sweep_id("alice", [a, b])
        assert sweep_id("alice", [a]) != sweep_id("bob", [a])

    def test_record_roundtrip(self):
        record = SweepRecord.create("alice", small_specs(), meta={"figure": "9"})
        again = SweepRecord.from_dict(record.to_dict())
        assert again.id == record.id
        assert again.tenant == "alice"
        assert again.meta == {"figure": "9"}
        assert [s.key() for s in again.specs] == [s.key() for s in record.specs]

    def test_record_rejects_tampering_and_version_skew(self):
        record = SweepRecord.create(None, small_specs())
        tampered = record.to_dict()
        tampered["tenant"] = "mallory"
        with pytest.raises(ConfigError, match="does not match"):
            SweepRecord.from_dict(tampered)
        skewed = record.to_dict()
        skewed["format"] = 99
        with pytest.raises(ConfigError, match="format"):
            SweepRecord.from_dict(skewed)
        with pytest.raises(ConfigError, match="at least one point"):
            SweepRecord.create(None, [])

    def test_ledger_persists_and_skips_corrupt(self, tmp_path):
        ledger = SweepLedger(tmp_path)
        record = SweepRecord.create(None, small_specs())
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
        assert stats["fleet"] == {
            "driver": None,
            "size": 0,
            "workers": 0,
            "restarts": 0,
        }


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

    def test_tenants_get_isolated_namespaces(self, server):
        worker = start_worker(server.engine.work_dir)
        alice = SweepClient(server.base_url, tenant="alice")
        bob = SweepClient(server.base_url, tenant="bob")

        a = alice.submit(small_grid())
        b = bob.submit(small_grid())
        assert a["id"] != b["id"]  # tenant is part of the content address
        assert a["tenant"] == "alice" and b["tenant"] == "bob"
        alice.wait(a["id"], timeout=120)
        bob.wait(b["id"], timeout=120)
        assert alice.results(a["id"]) == bob.results(b["id"])

        engine = server.engine
        alice_cache = engine.cache_for("alice")
        bob_cache = engine.cache_for("bob")
        default_cache = engine.cache_for(None)
        # Different salts and disjoint directories per tenant ...
        assert alice_cache.salt != bob_cache.salt != default_cache.salt
        assert alice_cache.root != bob_cache.root
        assert len(alice_cache.entries()) == 2
        assert len(bob_cache.entries()) == 2
        # ... and nothing leaked into the default namespace.
        assert len(default_cache.entries()) == 0
        assert default_cache.tenants() == ["alice", "bob"]
        stop_worker(worker, server.engine.work_dir)

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
        assert code == 400 and "tenant" in body["error"]
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
        assert set(stats) == {"server", "cache", "queue", "workers", "fleet"}
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
