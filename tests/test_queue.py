"""The pull-based work queue: claims, heartbeats, crash recovery, identity.

The acceptance properties of the queue backend:

* a unit is claimed by exactly one worker (atomic rename), and enqueues
  are idempotent content-addressed writes;
* a worker that dies mid-unit — SIGKILL included — is detected by its
  claim's lapsed heartbeat and its unit re-enqueued for the next
  claimant, while a live worker's slow unit is never recovered;
* the merged sweep payload is byte-identical to a local run (the
  ``queue-smoke`` CI job pins the CLI flavour of this);
* an interrupted run (worker or orchestrator) leaves no orphaned
  ``.tmp``, claim or claimable unit files behind, and no ``leases/``
  directory is ever made;
* result files round-trip byte for byte, and a corrupt one fails with
  ``ConfigError`` instead of poisoning the cache.
"""

import dataclasses
import hashlib
import json
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.__main__ import build_parser
from repro.__main__ import main as cli_main
from repro.errors import ConfigError, SimulationError
from repro.runner import (
    QueueBackend,
    ResultCache,
    RunSpec,
    SweepRunner,
    WorkerStats,
    WorkQueue,
    execute_spec,
    load_results,
    run_queue_worker,
    unit_id,
    write_results,
)
from repro.session import Grid, Session, session_from_args

SCALE = 0.05


def small_specs() -> list[RunSpec]:
    return Grid(workload="st", mechanism=["inorder", "nvr"], scale=SCALE).specs()


def start_worker(work_dir, **kwargs) -> threading.Thread:
    kwargs.setdefault("poll", 0.02)
    kwargs.setdefault("idle_timeout", 20)
    thread = threading.Thread(
        target=run_queue_worker, args=(work_dir,), kwargs=kwargs, daemon=True
    )
    thread.start()
    return thread


def tree_files(root, pattern: str) -> list:
    return sorted(root.rglob(pattern))


def age(path, seconds: float = 60) -> None:
    """Back-date a claim's heartbeat (its mtime) by ``seconds``."""
    past = time.time() - seconds
    os.utime(path, (past, past))


def result_records(specs) -> list[dict]:
    """Result-file records for ``specs``, as a queue worker writes them."""
    return [
        {"key": spec.key(), "spec": spec.to_dict(), "payload": execute_spec(spec)}
        for spec in specs
    ]


class TestResultFiles:
    def test_write_load_round_trip(self, tmp_path):
        records = result_records([RunSpec("st", scale=SCALE)])
        path = write_results(tmp_path / "r.json", records)
        loaded = load_results(path)
        assert loaded == records
        # Loaded records stay pure wire data: rewriting them (e.g. to
        # combine result files) must reproduce the file byte for byte.
        rewritten = write_results(tmp_path / "r2.json", loaded)
        assert rewritten.read_bytes() == path.read_bytes()

    def test_write_results_maps_nonfinite_to_null(self, tmp_path):
        # Worker result files follow the same rule as `sweep --json`:
        # non-finite metrics become null, never bare NaN/Infinity
        # literals that a strict JSON parser rejects.
        records = [
            {"key": "k", "spec": {}, "payload": {"cv": float("nan")}},
        ]
        path = write_results(tmp_path / "r.json", records)
        text = path.read_text(encoding="utf-8")
        assert "NaN" not in text
        assert json.loads(text)["results"][0]["payload"]["cv"] is None

    def test_load_rejects_corrupt_file(self, tmp_path):
        path = tmp_path / "r.json"
        path.write_text("{oops")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_results(path)

    def test_load_rejects_wrong_format(self, tmp_path):
        path = tmp_path / "r.json"
        path.write_text(json.dumps({"format": 9, "results": []}))
        with pytest.raises(ConfigError, match="unsupported result format"):
            load_results(path)

    def test_load_rejects_key_spec_mismatch(self, tmp_path):
        records = result_records([RunSpec("st", scale=SCALE)])
        records[0] = dict(records[0], key="0" * 64)
        path = write_results(tmp_path / "r.json", records)
        with pytest.raises(ConfigError, match="does not match its spec"):
            load_results(path)


class TestWorkQueue:
    def test_enqueue_is_idempotent_and_content_addressed(self, tmp_path):
        queue = WorkQueue(tmp_path).ensure()
        spec = RunSpec("st", scale=SCALE)
        uid = queue.enqueue(spec)
        assert uid == unit_id((spec,))
        assert queue.enqueue(spec) == uid
        assert len(list(queue.queue_dir.iterdir())) == 1

    def test_claim_is_exclusive(self, tmp_path):
        queue = WorkQueue(tmp_path).ensure()
        queue.enqueue(RunSpec("st", scale=SCALE))
        unit = queue.claim_next("w1")
        assert unit is not None
        assert queue.claim_next("w2") is None
        assert queue.claimed_path(unit.id).exists()

    def test_claim_round_trips_the_spec(self, tmp_path):
        queue = WorkQueue(tmp_path).ensure()
        spec = RunSpec("gcn", mechanism="nvr", dtype="int8", scale=0.2, seed=3)
        queue.enqueue(spec)
        unit = queue.claim_next("w")
        assert [s.key() for s in unit.specs] == [spec.key()]

    def test_release_returns_unit_to_queue(self, tmp_path):
        queue = WorkQueue(tmp_path).ensure()
        queue.enqueue(RunSpec("st", scale=SCALE))
        unit = queue.claim_next("w")
        queue.release(unit)
        assert queue.queued_path(unit.id).exists()
        assert not queue.claimed_path(unit.id).exists()
        assert not (queue.root / "leases").exists()

    def test_recover_expired_requeues_stale_lease(self, tmp_path):
        # The claim is the lease: its mtime is the heartbeat, so a claim
        # whose worker died (even right after the rename) ages out.
        queue = WorkQueue(tmp_path).ensure()
        queue.enqueue(RunSpec("st", scale=SCALE))
        unit = queue.claim_next("w")
        age(queue.claimed_path(unit.id))
        assert queue.recover_expired(1.0) == [unit.id]
        assert queue.queued_path(unit.id).exists()
        assert not queue.claimed_path(unit.id).exists()

    def test_recover_leaves_fresh_leases_alone(self, tmp_path):
        queue = WorkQueue(tmp_path).ensure()
        queue.enqueue(RunSpec("st", scale=SCALE))
        unit = queue.claim_next("w")
        assert queue.recover_expired(60.0) == []
        assert queue.claimed_path(unit.id).exists()

    def test_recover_claim_without_lease_uses_claim_mtime(self, tmp_path):
        # No lease file backs a claim: the claim's own mtime is read, and
        # it is re-stamped on claiming. A unit that sat queued past the
        # timeout is not recovered the moment a worker takes it (a rename
        # keeps the enqueue time); once the claim itself ages, it is.
        queue = WorkQueue(tmp_path).ensure()
        uid = queue.enqueue(RunSpec("st", scale=SCALE))
        age(queue.queued_path(uid))
        unit = queue.claim_next("w")
        assert unit.id == uid
        assert queue.recover_expired(1.0) == []
        assert not (queue.root / "leases").exists()
        age(queue.claimed_path(unit.id))
        assert queue.recover_expired(1.0) == [unit.id]
        assert queue.queued_path(unit.id).exists()

    def test_corrupt_unit_file_is_quarantined_not_fatal(self, tmp_path):
        # One bad file must not kill every worker that claims it: the
        # unit is reported as failed and the worker moves on.
        queue = WorkQueue(tmp_path).ensure()
        (queue.queue_dir / "unit-deadbeef.json").write_text("{oops")
        good = RunSpec("st", scale=SCALE)
        queue.enqueue(good)
        unit = queue.claim_next("w")
        assert unit is not None and [s.key() for s in unit.specs] == [good.key()]
        # Whichever side of the sort order the corrupt file landed on,
        # after one more scan it is quarantined and the queue is idle.
        assert queue.claim_next("w") is None
        report = json.loads(queue.failed_path("deadbeef").read_text())
        assert "not valid JSON" in report["error"]
        assert not list(queue.queue_dir.iterdir())

    def test_misplaced_unit_file_is_quarantined(self, tmp_path):
        queue = WorkQueue(tmp_path).ensure()
        spec = RunSpec("st", scale=SCALE)
        queue.enqueue(spec)
        good = queue.queued_path(unit_id((spec,)))
        good.rename(queue.queue_dir / f"unit-{'0' * 32}.json")
        assert queue.claim_next("w") is None
        report = json.loads(queue.failed_path("0" * 32).read_text())
        assert "does not match its spec" in report["error"]

    def test_status_counts(self, tmp_path):
        queue = WorkQueue(tmp_path).ensure()
        for spec in small_specs():
            queue.enqueue(spec)
        unit = queue.claim_next("w")
        age(queue.claimed_path(unit.id))
        status = queue.status(lease_timeout=1.0)
        assert status.queued == 1
        assert status.claimed == 1
        assert status.expired == 1
        assert status.results == 0
        assert status.failed == 0
        assert not status.stopping

    def test_status_separates_expired_from_failed(self, tmp_path):
        # A lease-expired unit is *recoverable* (it will be re-enqueued
        # and re-run); a failed unit is a terminal spec error awaiting
        # its orchestrator. The status scan must never conflate them.
        queue = WorkQueue(tmp_path).ensure()
        expired_spec, healthy_spec = small_specs()
        queue.enqueue(expired_spec)
        queue.enqueue(healthy_spec)
        expired = queue.claim_next("dead-worker")
        healthy = queue.claim_next("live-worker")
        age(queue.claimed_path(expired.id))
        queue.heartbeat(healthy)
        queue.report_failure("f" * 32, "w", "boom")
        status = queue.status(lease_timeout=1.0)
        assert status.claimed == 2
        assert status.expired == 1  # only the lapsed claim
        assert status.failed == 1  # the report, not the expiry

    def test_deep_status_counts_points_in_batched_units(self, tmp_path):
        queue = WorkQueue(tmp_path).ensure()
        queue.enqueue(*small_specs())
        queue.enqueue(RunSpec("st", scale=SCALE, seed=7))
        status = queue.status()
        assert status.queued == 2
        assert status.queued_points == 3
        assert status.corrupt == 0

    def test_deep_status_quarantines_zero_byte_unit(self, tmp_path):
        # An interrupted enqueue can leave a zero-byte unit file; a
        # status scan must diagnose it — through the same failed/ path a
        # worker uses for corrupt claims — not crash or count it queued.
        queue = WorkQueue(tmp_path).ensure()
        queue.enqueue(RunSpec("st", scale=SCALE))
        (queue.queue_dir / "unit-deadbeef.json").touch()
        status = queue.status()
        assert status.queued == 1
        assert status.corrupt == 1
        assert status.failed == 1  # the quarantine report
        assert not queue.queued_path("deadbeef").exists()
        report = json.loads(queue.failed_path("deadbeef").read_text())
        assert report["worker"] == "status-scan"
        # The next scan sees a clean queue: quarantine is once-only.
        again = queue.status()
        assert again.corrupt == 0
        assert again.failed == 1

    def test_unit_in_the_older_single_spec_format_is_quarantined(self, tmp_path):
        # Every unit holds a "specs" list: a unit file that an older
        # version wrote with one "spec" is unreadable like any other
        # corrupt unit, whether the status scan or a worker finds it.
        queue = WorkQueue(tmp_path).ensure()
        spec, other = small_specs()
        for found_by in ("status", "worker"):
            uid = unit_id((spec,))
            document = {"format": 1, "unit": uid, "spec": spec.to_dict()}
            queue.queued_path(uid).write_text(json.dumps(document))
            if found_by == "status":
                assert queue.status().corrupt == 1
            else:
                queue.enqueue(other)
                unit = queue.claim_next("w")
                assert [s.key() for s in unit.specs] == [other.key()]
                assert queue.claim_next("w") is None
            report = json.loads(queue.failed_path(uid).read_text())
            assert "'specs' must be a non-empty list" in report["error"]
            assert not queue.queued_path(uid).exists()
            queue.forget(uid)


class TestQueueWorker:
    def test_worker_drains_queue_and_reports(self, tmp_path):
        queue = WorkQueue(tmp_path).ensure()
        specs = small_specs()
        uids = [queue.enqueue(spec) for spec in specs]
        done = run_queue_worker(tmp_path, max_units=len(specs), poll=0.02)
        assert done == len(specs)
        for uid, spec in zip(uids, specs):
            records = load_results(queue.result_path(uid))
            assert len(records) == 1
            assert records[0]["key"] == spec.key()
        assert not list(queue.claimed_dir.iterdir())
        assert not (queue.root / "leases").exists()

    def test_worker_honours_stop_sentinel(self, tmp_path):
        queue = WorkQueue(tmp_path).ensure()
        queue.enqueue(RunSpec("st", scale=SCALE))
        queue.stop_path.touch()
        assert run_queue_worker(tmp_path, poll=0.02) == 0
        assert len(list(queue.queue_dir.iterdir())) == 1  # untouched

    def test_worker_idle_timeout(self, tmp_path):
        start = time.monotonic()
        assert run_queue_worker(tmp_path, idle_timeout=0.1, poll=0.02) == 0
        assert time.monotonic() - start < 5

    def test_failing_spec_is_reported_and_worker_survives(
        self, tmp_path, monkeypatch
    ):
        # A spec that raises inside the simulator must not poison the
        # queue: the worker files a failure report, stays alive for the
        # other units, and the orchestrator raises the error.
        import repro.runner.pool as pool

        bad = RunSpec("st", scale=SCALE, seed=7)
        real_execute = pool.execute_spec

        def flaky_execute(spec):
            if spec.seed == 7:
                raise SimulationError("synthetic failure")
            return real_execute(spec)

        monkeypatch.setattr(pool, "execute_spec", flaky_execute)
        queue = WorkQueue(tmp_path / "work").ensure()
        good = RunSpec("st", scale=SCALE)
        queue.enqueue(bad)
        queue.enqueue(good)
        done = run_queue_worker(tmp_path / "work", max_units=2, poll=0.02)
        assert done == 2  # the failure did not kill the worker
        assert queue.result_path(unit_id((good,))).exists()
        report = json.loads(queue.failed_path(unit_id((bad,))).read_text())
        assert report["error"] == "synthetic failure"
        assert not list(queue.claimed_dir.iterdir())
        assert not (queue.root / "leases").exists()

        backend = QueueBackend(tmp_path / "work", poll=0.02, timeout=10, batch=1)
        runner = SweepRunner(backend=backend)
        with pytest.raises(SimulationError, match="synthetic failure"):
            runner.run_plan([bad, good])
        # The report was consumed (a retry re-attempts) and the abandoned
        # run withdrew its units.
        assert not queue.failed_path(unit_id((bad,))).exists()
        assert not list(queue.queue_dir.iterdir())

    def test_simulator_bug_is_reported_not_poisonous(self, tmp_path, monkeypatch):
        # A deterministic non-ReproError (a plain bug in the simulator)
        # must be reported like a spec failure, not retried on worker
        # after worker.
        import repro.runner.pool as pool

        def buggy_execute(spec):
            raise TypeError("boom")

        monkeypatch.setattr(pool, "execute_spec", buggy_execute)
        queue = WorkQueue(tmp_path / "work").ensure()
        uid = queue.enqueue(RunSpec("st", scale=SCALE))
        assert run_queue_worker(tmp_path / "work", max_units=1, poll=0.02) == 1
        report = json.loads(queue.failed_path(uid).read_text())
        assert report["error"] == "TypeError: boom"
        assert not list(queue.claimed_dir.iterdir())

    def test_live_worker_keeps_a_slow_unit(self, tmp_path, monkeypatch):
        # A unit that runs past the lease timeout is not recovered while
        # its worker lives: the heartbeat thread keeps the claim fresh.
        import repro.runner.pool as pool

        real_execute = pool.execute_spec

        def slow_execute(spec):
            time.sleep(1.5)
            return real_execute(spec)

        monkeypatch.setattr(pool, "execute_spec", slow_execute)
        queue = WorkQueue(tmp_path).ensure()
        spec = RunSpec("st", scale=SCALE)
        uid = queue.enqueue(spec)
        worker = start_worker(tmp_path, max_units=1, heartbeat=0.1)
        recovered = []
        deadline = time.monotonic() + 30
        while not queue.result_path(uid).exists():
            assert time.monotonic() < deadline, "the unit never finished"
            recovered += queue.recover_expired(0.5, uids=[uid])
            time.sleep(0.05)
        worker.join(10)
        assert recovered == []
        assert load_results(queue.result_path(uid))[0]["key"] == spec.key()

    @pytest.mark.parametrize("exit_path", ["max_units", "stop", "idle", "interrupt"])
    def test_exited_worker_stats_hold_exact_counts(
        self, tmp_path, monkeypatch, exit_path
    ):
        # The stats live in memory and the heartbeat thread (every 60 s
        # here) never gets to write them: each way out of the worker
        # does, so the file holds exactly what the worker did.
        import repro.runner.pool as pool

        real_execute = pool.execute_spec
        queue = WorkQueue(tmp_path).ensure()
        calls = []

        def execute(spec):
            calls.append(spec)
            if len(calls) == 4:  # the last point of the last unit
                if exit_path == "stop":
                    queue.stop_path.touch()
                elif exit_path == "interrupt":
                    queue.enqueue(RunSpec("st", scale=SCALE, seed=9))
            if spec.seed == 9:
                raise KeyboardInterrupt
            if spec.seed == 7:
                raise SimulationError("synthetic failure")
            return real_execute(spec)

        monkeypatch.setattr(pool, "execute_spec", execute)
        queue.enqueue(*small_specs())  # one unit, two points
        queue.enqueue(RunSpec("st", scale=SCALE, seed=7))  # fails
        queue.enqueue(RunSpec("st", scale=SCALE))
        limits = {"max_units": {"max_units": 3}, "idle": {"idle_timeout": 0.1}}
        kwargs = dict(worker_id="w", poll=0.02, heartbeat=60, idle_timeout=30)
        kwargs.update(limits.get(exit_path, {}))
        if exit_path == "interrupt":
            with pytest.raises(KeyboardInterrupt):
                run_queue_worker(tmp_path, **kwargs)
        else:
            assert run_queue_worker(tmp_path, **kwargs) == 3
        (stats,) = queue.worker_stats()
        assert stats["worker"] == "w"
        assert (stats["units"], stats["points"], stats["failures"]) == (3, 4, 1)
        assert len(stats["timestamps"]) == 3

    def test_interrupted_worker_leaves_no_orphans(self, tmp_path, monkeypatch):
        import repro.runner.pool as pool

        def boom(spec):
            raise KeyboardInterrupt

        monkeypatch.setattr(pool, "execute_spec", boom)
        queue = WorkQueue(tmp_path).ensure()
        uid = queue.enqueue(RunSpec("st", scale=SCALE))
        with pytest.raises(KeyboardInterrupt):
            run_queue_worker(tmp_path, poll=0.02)
        # The unit went back to the queue; no claim or temp file
        # survives the interrupt.
        assert queue.queued_path(uid).exists()
        assert not list(queue.claimed_dir.iterdir())
        assert not (queue.root / "leases").exists()
        assert tree_files(tmp_path, "*.tmp") == []


class TestQueueBackend:
    def test_matches_local_bit_for_bit(self, tmp_path):
        specs = small_specs()
        local = SweepRunner(cache=ResultCache(tmp_path / "a"))
        backend = QueueBackend(tmp_path / "work", poll=0.02, timeout=30)
        queued = SweepRunner(cache=ResultCache(tmp_path / "b"), backend=backend)
        start_worker(tmp_path / "work")
        a = [dataclasses.asdict(r) for r in local.run_plan(specs)]
        b = [dataclasses.asdict(r) for r in queued.run_plan(specs)]
        assert a == b
        files_a = sorted(p.name for p in ResultCache(tmp_path / "a").entries())
        files_b = sorted(p.name for p in ResultCache(tmp_path / "b").entries())
        assert files_a == files_b and files_a
        for name in files_a:
            pa = next((tmp_path / "a").glob(f"??/{name}"))
            pb = next((tmp_path / "b").glob(f"??/{name}"))
            assert pa.read_bytes() == pb.read_bytes()

    def test_crashed_worker_lease_recovered(self, tmp_path):
        # Simulate the crash deterministically: claim a unit and stop
        # heartbeating (the claimant is gone), then let the backend's
        # recovery re-enqueue it for a live worker.
        work = tmp_path / "work"
        specs = small_specs()
        queue = WorkQueue(work).ensure()
        crashed = queue.enqueue(specs[0])
        unit = queue.claim_next("crashed-worker")
        assert unit.id == crashed
        age(queue.claimed_path(unit.id))

        backend = QueueBackend(
            work, lease_timeout=0.5, poll=0.02, timeout=30, batch=1
        )
        runner = SweepRunner(cache=ResultCache(tmp_path / "cache"), backend=backend)
        start_worker(work)
        results = runner.run_plan(specs)
        assert len(results) == len(specs)
        # The recovered unit really was re-executed (not stranded), and
        # nothing claimable or claimed is left behind.
        assert not list(queue.claimed_dir.iterdir())
        assert not (queue.root / "leases").exists()
        assert not list(queue.queue_dir.iterdir())
        local = SweepRunner(cache=ResultCache(tmp_path / "local"))
        assert [dataclasses.asdict(r) for r in local.run_plan(specs)] == [
            dataclasses.asdict(r) for r in results
        ]

    def test_timeout_without_workers_withdraws_units(self, tmp_path):
        backend = QueueBackend(tmp_path / "work", poll=0.02, timeout=0.3)
        runner = SweepRunner(backend=backend)
        with pytest.raises(SimulationError, match="timed out"):
            runner.run_plan(small_specs())
        queue = WorkQueue(tmp_path / "work")
        assert not list(queue.queue_dir.iterdir())
        assert tree_files(tmp_path, "*.tmp") == []

    def test_keyboard_interrupt_leaves_no_orphans(self, tmp_path):
        # Ctrl-C lands in the orchestrator's poll sleep; the backend must
        # withdraw its still-unclaimed units and leave no temp files.
        def interrupted_sleep(seconds):
            raise KeyboardInterrupt

        backend = QueueBackend(tmp_path / "work", poll=0.02)
        backend._sleep = interrupted_sleep
        runner = SweepRunner(cache=ResultCache(tmp_path / "cache"), backend=backend)
        with pytest.raises(KeyboardInterrupt):
            runner.run_plan(small_specs())
        queue = WorkQueue(tmp_path / "work")
        assert not list(queue.queue_dir.iterdir())
        assert not list(queue.claimed_dir.iterdir())
        assert tree_files(tmp_path, "*.tmp") == []

    def test_streamed_results_survive_a_failed_plan(self, tmp_path):
        # The first streamed result is cached before the interrupt, so a
        # retry of the same plan resumes warm (partial-progress contract).
        work = tmp_path / "work"
        specs = small_specs()
        cache = ResultCache(tmp_path / "cache")

        queue = WorkQueue(work).ensure()
        for spec in specs:
            queue.enqueue(spec)
        run_queue_worker(work, max_units=1, poll=0.02)  # one result lands

        def interrupted_sleep(seconds):
            raise KeyboardInterrupt

        backend = QueueBackend(work, poll=0.02, batch=1)
        backend._sleep = interrupted_sleep
        runner = SweepRunner(cache=cache, backend=backend)
        with pytest.raises(KeyboardInterrupt):
            runner.run_plan(specs)
        assert runner.submitted == 1
        assert runner.last_report.submitted == 1

        retry = SweepRunner(cache=cache, backend=QueueBackend(work, poll=0.02, batch=1))
        start_worker(work)
        retry.run_plan(specs)
        assert retry.cache_hits == 1
        assert retry.submitted == len(specs) - 1

    def test_stale_salt_result_is_discarded_and_rerun(self, tmp_path):
        # A result left in a reused work dir by a different simulator
        # version (its salt stamp disagrees) must be re-executed, not
        # served — the queue cannot launder stale payloads past the
        # cache's salt verification.
        work = tmp_path / "work"
        spec = RunSpec("st", scale=SCALE)
        queue = WorkQueue(work).ensure()
        uid = queue.enqueue(spec)
        run_queue_worker(work, max_units=1, poll=0.02)
        result_path = queue.result_path(uid)
        document = json.loads(result_path.read_text())
        document["results"][0]["salt"] = "a-previous-code-version"
        result_path.write_text(json.dumps(document))

        backend = QueueBackend(work, poll=0.02, timeout=30, batch=1)
        runner = SweepRunner(cache=ResultCache(tmp_path / "cache"), backend=backend)
        start_worker(work)
        (result,) = runner.run_plan([spec])
        assert runner.submitted == 1
        local = SweepRunner().run_plan([spec])[0]
        assert dataclasses.asdict(result) == dataclasses.asdict(local)

    def test_version_skew_fails_after_repeated_discards(self, tmp_path):
        # One stale result is discarded and re-run; a worker *actively*
        # producing old-version results would loop forever — after a few
        # consecutive discards the sweep fails with a diagnosis instead.
        backend = QueueBackend(tmp_path / "work", poll=0.02)
        queue = backend.queue.ensure()
        spec = RunSpec("st", scale=SCALE)
        uid = queue.enqueue(spec)
        stale = {
            "key": spec.key(),
            "spec": spec.to_dict(),
            "payload": {"kind": "sim"},
            "salt": "a-previous-code-version",
        }
        discards = {}
        group = [(spec.key(), spec)]
        for _ in range(QueueBackend.MAX_SALT_DISCARDS - 1):
            write_results(queue.result_path(uid), [stale])
            consumed = backend._consume(uid, group, discards)
            assert consumed is None  # discarded and re-enqueued
            assert queue.queued_path(uid).exists()
        write_results(queue.result_path(uid), [stale])
        with pytest.raises(SimulationError, match="different simulator version"):
            backend._consume(uid, group, discards)

    def test_stale_failure_report_is_dropped(self, tmp_path):
        # A failed/ report left by a previous simulator version must not
        # abort a new sweep with an obsolete error — it is dropped and
        # the unit executed normally.
        work = tmp_path / "work"
        queue = WorkQueue(work).ensure()
        spec = RunSpec("st", scale=SCALE)
        uid = unit_id((spec,))
        queue.report_failure(uid, "old-worker", "obsolete error")
        report_path = queue.failed_path(uid)
        document = json.loads(report_path.read_text())
        document["salt"] = "a-previous-code-version"
        report_path.write_text(json.dumps(document))

        backend = QueueBackend(work, poll=0.02, timeout=30, batch=1)
        runner = SweepRunner(backend=backend)
        start_worker(work)
        (result,) = runner.run_plan([spec])
        assert result.total_cycles > 0
        assert not report_path.exists()

    def test_unit_consumed_by_another_orchestrator_is_requeued_next_poll(
        self, tmp_path
    ):
        # Two orchestrators wait on one content-addressed unit. While this
        # one sleeps, the other consumes the result and the unit with it;
        # the next idle poll must re-enqueue the unit, long before the
        # lease-timeout-scaled recovery cadence (15 s here) comes round.
        work = tmp_path / "work"
        spec = RunSpec("st", scale=SCALE)
        sleeps = []

        def sleep_while_others_work(seconds):
            if not sleeps:
                run_queue_worker(work, max_units=1, poll=0.02)
                other = QueueBackend(
                    work, lease_timeout=60, poll=0.02, timeout=5, batch=1
                )
                assert len(list(other.run([(spec.key(), spec)]))) == 1
            else:
                run_queue_worker(work, max_units=1, poll=0.02, idle_timeout=0.05)
            sleeps.append(seconds)

        backend = QueueBackend(work, lease_timeout=60, poll=0.02, timeout=2, batch=1)
        backend._sleep = sleep_while_others_work
        (result,) = SweepRunner(backend=backend).run_plan([spec])
        assert result.total_cycles > 0
        assert len(sleeps) == 2

    def test_work_dir_is_required(self):
        with pytest.raises(ConfigError, match="work"):
            QueueBackend(None)

    def test_session_remote_front_door(self, tmp_path):
        work = tmp_path / "work"
        start_worker(work)
        with Session.remote(
            work, poll=0.02, timeout=30, cache_dir=tmp_path / "cache"
        ) as session:
            rs = session.sweep(small_specs())
        assert session.submitted == len(small_specs())
        with Session(cache_dir=tmp_path / "local") as session:
            rs_local = session.sweep(small_specs())
        assert rs.to_json() == rs_local.to_json()
        # Warm rerun over the same cache simulates nothing (and never
        # touches the queue, so no worker is needed).
        with Session.remote(
            tmp_path / "work2", timeout=5, cache_dir=tmp_path / "cache"
        ) as session:
            session.sweep(small_specs())
            assert session.submitted == 0


class TestSigkilledWorker:
    def test_sigkilled_worker_unit_is_reclaimed_and_identical(self, tmp_path):
        # The real crash: a `repro queue worker` subprocess is SIGKILLed
        # mid-unit. Its claim must expire, the unit must be re-claimed
        # and re-executed, and the merged payload must be byte-identical
        # to local execution.
        work = tmp_path / "work"
        spec = RunSpec("ds", mechanism="nvr", scale=1.0)  # ~1s of work
        queue = WorkQueue(work).ensure()
        uid = queue.enqueue(spec)

        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "queue",
                "worker",
                "--work-dir",
                str(work),
                "--idle-timeout",
                "30",
                "--poll",
                "0.02",
                "--heartbeat",
                "0.05",
            ],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 30
            while not queue.claimed_path(uid).exists():
                assert time.monotonic() < deadline, "worker never claimed"
                assert proc.poll() is None, "worker exited prematurely"
                time.sleep(0.01)
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=10)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        # Killed mid-unit: claimed but never reported.
        assert queue.claimed_path(uid).exists()
        assert not queue.result_path(uid).exists()

        backend = QueueBackend(
            work, lease_timeout=0.5, poll=0.02, timeout=60, batch=1
        )
        runner = SweepRunner(cache=ResultCache(tmp_path / "cache"), backend=backend)
        start_worker(work, idle_timeout=60)
        (result,) = runner.run_plan([spec])
        assert runner.submitted == 1
        assert not queue.claimed_path(uid).exists()
        assert not (queue.root / "leases").exists()

        local = SweepRunner(cache=ResultCache(tmp_path / "local"))
        (expected,) = local.run_plan([spec])
        assert dataclasses.asdict(result) == dataclasses.asdict(expected)
        name = next((tmp_path / "cache").glob("??/*.json")).name
        pa = next((tmp_path / "cache").glob(f"??/{name}"))
        pb = next((tmp_path / "local").glob(f"??/{name}"))
        assert pa.read_bytes() == pb.read_bytes()


class TestQueueBatching:
    def test_single_spec_batch_is_wire_compatible(self, tmp_path):
        # A one-point unit is addressed by the hash of its one key and,
        # like every unit, holds a "specs" list.
        queue = WorkQueue(tmp_path).ensure()
        spec = RunSpec("st", scale=SCALE)
        uid = queue.enqueue(spec)
        assert uid == hashlib.sha256(spec.key().encode()).hexdigest()[:32]
        document = json.loads(queue.queued_path(uid).read_text())
        assert document["specs"] == [spec.to_dict()]
        assert "spec" not in document

    def test_batched_unit_round_trip(self, tmp_path):
        queue = WorkQueue(tmp_path).ensure()
        specs = small_specs()
        uid = queue.enqueue(*specs)
        document = json.loads(queue.queued_path(uid).read_text())
        assert len(document["specs"]) == len(specs)
        unit = queue.claim_next("w")
        assert unit.id == uid
        assert [s.key() for s in unit.specs] == [s.key() for s in specs]

    def test_empty_batch_rejected(self, tmp_path):
        queue = WorkQueue(tmp_path).ensure()
        with pytest.raises(ConfigError, match="empty unit"):
            queue.enqueue()

    def test_worker_writes_one_record_per_spec(self, tmp_path):
        queue = WorkQueue(tmp_path).ensure()
        specs = small_specs()
        uid = queue.enqueue(*specs)
        done = run_queue_worker(tmp_path, max_units=1, poll=0.02)
        assert done == 1
        records = load_results(queue.result_path(uid))
        assert [r["key"] for r in records] == [s.key() for s in specs]
        assert not list(queue.claimed_dir.iterdir())
        assert not (queue.root / "leases").exists()

    def test_batched_backend_matches_local_bit_for_bit(self, tmp_path):
        specs = Grid(
            workload="st", mechanism=["inorder", "stream", "nvr"], scale=SCALE
        ).specs()
        local = SweepRunner(cache=ResultCache(tmp_path / "a"))
        backend = QueueBackend(tmp_path / "work", poll=0.02, timeout=30, batch=2)
        queued = SweepRunner(cache=ResultCache(tmp_path / "b"), backend=backend)
        start_worker(tmp_path / "work")
        a = [dataclasses.asdict(r) for r in local.run_plan(specs)]
        b = [dataclasses.asdict(r) for r in queued.run_plan(specs)]
        assert a == b
        files_a = sorted(p.name for p in ResultCache(tmp_path / "a").entries())
        files_b = sorted(p.name for p in ResultCache(tmp_path / "b").entries())
        assert files_a == files_b and files_a
        for name in files_a:
            pa = next((tmp_path / "a").glob(f"??/{name}"))
            pb = next((tmp_path / "b").glob(f"??/{name}"))
            assert pa.read_bytes() == pb.read_bytes()
        # Nothing left behind: the batch units were consumed whole.
        queue = WorkQueue(tmp_path / "work")
        assert not list(queue.queue_dir.iterdir())
        assert not list(queue.results_dir.iterdir())

    def test_batched_failure_names_the_failing_spec(self, tmp_path, monkeypatch):
        import repro.runner.pool as pool

        real = pool.execute_spec

        def failing(spec):
            if spec.mechanism == "nvr":
                raise SimulationError("injected failure")
            return real(spec)

        monkeypatch.setattr(pool, "execute_spec", failing)
        queue = WorkQueue(tmp_path).ensure()
        specs = Grid(workload="st", mechanism=["inorder", "nvr"], scale=SCALE).specs()
        uid = queue.enqueue(*specs)
        run_queue_worker(tmp_path, max_units=1, poll=0.02)
        report = json.loads(queue.failed_path(uid).read_text())
        assert "injected failure" in report["error"]
        assert "nvr" in report["error"]  # the failing spec is named

    def test_batch_must_be_positive(self, tmp_path):
        with pytest.raises(ConfigError, match="batch must be >= 1"):
            QueueBackend(tmp_path / "work", batch=0)

    def test_session_remote_batch_plumbs_through(self, tmp_path):
        session = Session.remote(tmp_path / "work", batch=3, cache=False)
        assert session.runner.backend.batch == 3
        session.close()


class _Stop(Exception):
    """Ends a backend's scan loop from its sleep."""


def enqueued_units(backend, points: int) -> tuple[int, int]:
    """(units, points) ``backend`` enqueues for ``points`` distinct points.

    Read at the backend's first sleep, when every unit is enqueued and
    no worker has run; the interrupted run then withdraws them.
    """
    specs = [RunSpec("st", scale=SCALE, seed=seed) for seed in range(points)]
    seen = []

    def sleep(seconds):
        status = backend.queue.status()
        seen.append((status.queued, status.queued_points))
        raise _Stop

    backend._sleep = sleep
    with pytest.raises(_Stop):
        list(backend.run([(spec.key(), spec) for spec in specs]))
    assert not list(backend.queue.queue_dir.iterdir())
    return seen[0]


class TestUnitSizing:
    @pytest.mark.parametrize(
        "points, batch, units",
        [
            (10, None, 10),
            (24, None, 8),
            (80, None, 10),
            (300, None, 38),
            (80, 1, 80),
            (80, 3, 27),
        ],
    )
    def test_units_sized_from_the_plan(self, tmp_path, points, batch, units):
        backend = QueueBackend(tmp_path / "work", batch=batch)
        assert enqueued_units(backend, points) == (units, points)

    @pytest.mark.parametrize("leftover", ["queued", "claimed", "landed"])
    def test_a_retried_plan_runs_no_point_twice(
        self, tmp_path, monkeypatch, leftover
    ):
        # A 24-point plan goes out as 8 units of 3 and is interrupted
        # once one unit has landed. Its other units are left queued (the
        # orchestrator died before withdrawing them), or a worker holds
        # one, whose result lands during or before the retry. The retry
        # waits on those units instead of regrouping the 21 points still
        # missing, so no point runs twice and results/ ends empty.
        import repro.runner.pool as pool
        from repro.runner import worker

        work = tmp_path / "work"
        queue = WorkQueue(work)
        cache = ResultCache(tmp_path / "cache")
        specs = [RunSpec("st", scale=SCALE, seed=seed) for seed in range(24)]
        executed = []
        execute = pool.execute_spec

        def counted(spec):
            executed.append(spec.key())
            return execute(spec)

        monkeypatch.setattr(pool, "execute_spec", counted)
        held = []

        def land_one_then_interrupt(seconds):
            if executed:
                raise KeyboardInterrupt
            assert run_queue_worker(work, max_units=1, poll=0.02) == 1
            if leftover != "queued":
                held.append(queue.claim_next("held"))

        first = QueueBackend(work, poll=0.02)
        first._sleep = land_one_then_interrupt
        if leftover == "queued":
            monkeypatch.setattr(first.queue, "withdraw", lambda uid: None)
        with pytest.raises(KeyboardInterrupt):
            SweepRunner(cache=cache, backend=first).run_plan(specs)
        assert len(executed) == 3
        if leftover == "landed":
            worker._process_unit(queue, held.pop(), "held")

        def drain(seconds):
            while held:
                worker._process_unit(queue, held.pop(), "held")
            run_queue_worker(work, poll=0.02, idle_timeout=0.05)

        retry = QueueBackend(work, poll=0.02, timeout=30)
        retry._sleep = drain
        runner = SweepRunner(cache=cache, backend=retry)
        assert len(runner.run_plan(specs)) == 24
        assert (runner.cache_hits, runner.submitted) == (3, 21)
        assert sorted(executed) == sorted(spec.key() for spec in specs)
        for directory in (queue.queue_dir, queue.claimed_dir, queue.results_dir):
            assert not list(directory.iterdir())

    def test_sessions_pass_the_batch_or_none(self, tmp_path):
        work = tmp_path / "work"
        args = build_parser().parse_args(["sweep", "--work-dir", str(work)])
        for session, batch in (
            (session_from_args(args), None),
            (Session.remote(work, batch=3, cache=False), 3),
            (Session.remote(work, cache=False), None),
        ):
            assert session.runner.backend.batch == batch
            session.close()

    @staticmethod
    def scan_sleeps(tmp_path, poll, land_after):
        """The backend's sleeps over a 2-point plan, and how many sleeps
        came before each vanished-unit check; after the sleeps numbered
        in ``land_after`` a worker lands one unit."""
        work = tmp_path / "work"
        backend = QueueBackend(work, poll=poll, timeout=30, batch=1)
        sleeps, checks = [], []
        requeue_vanished = backend._requeue_vanished

        def sleep(seconds):
            sleeps.append(seconds)
            if len(sleeps) in land_after:
                assert run_queue_worker(work, max_units=1, poll=0.02) == 1

        def check(waiting):
            checks.append(len(sleeps))
            requeue_vanished(waiting)

        backend._sleep = sleep
        backend._requeue_vanished = check
        SweepRunner(backend=backend).run_plan(small_specs())
        return sleeps, checks

    def test_empty_scans_back_off_and_a_landing_resets(self, tmp_path):
        sleeps, checks = self.scan_sleeps(tmp_path, poll=0.2, land_after=(6, 8))
        assert sleeps == pytest.approx(
            [0.02, 0.04, 0.08, 0.16, 0.2, 0.2, 0.02, 0.04]
        )
        # The vanished-unit check keeps its cadence: at the first empty
        # scan, then once per poll of sleep.
        assert checks == [0, 4, 5, 6]

    def test_a_short_poll_keeps_every_sleep(self, tmp_path):
        sleeps, checks = self.scan_sleeps(tmp_path, poll=0.02, land_after=(3, 5))
        assert sleeps == pytest.approx([0.02] * 5)
        assert checks == [0, 1, 2, 3, 4]


class TestQueueCLI:
    def test_status_command(self, tmp_path, capsys):
        queue = WorkQueue(tmp_path / "work").ensure()
        queue.enqueue(RunSpec("st", scale=SCALE))
        rc = cli_main(["queue", "status", "--work-dir", str(tmp_path / "work")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "queued    : 1 (1 point(s))" in out
        assert "(0 lease-expired, recoverable)" in out
        assert "failed    : 0" in out
        assert "stopping  : no" in out

    def test_status_command_reports_zero_byte_quarantine(self, tmp_path, capsys):
        queue = WorkQueue(tmp_path / "work").ensure()
        (queue.queue_dir / "unit-deadbeef.json").touch()
        rc = cli_main(["queue", "status", "--work-dir", str(tmp_path / "work")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "queued    : 0" in out
        assert "failed    : 1" in out
        assert "quarantined 1 corrupt unit(s) into failed/" in out

    def test_worker_command_max_units(self, tmp_path, capsys):
        queue = WorkQueue(tmp_path / "work").ensure()
        uid = queue.enqueue(RunSpec("st", scale=SCALE))
        rc = cli_main(
            [
                "queue",
                "worker",
                "--work-dir",
                str(tmp_path / "work"),
                "--max-units",
                "1",
                "--poll",
                "0.02",
            ]
        )
        assert rc == 0
        assert "executed 1 unit(s)" in capsys.readouterr().out
        assert queue.result_path(uid).exists()

    def test_work_dir_alone_selects_the_queue(self, tmp_path, capsys):
        # --work-dir sends the missing points to the queue, whose worker
        # executes them; the sweep prints what a local run prints.
        work = tmp_path / "work"
        worker = start_worker(work)
        argv = ["sweep", "--workloads", "st", "--mechanisms", "inorder,nvr"]
        argv += ["--scales", str(SCALE)]
        queued = ["--work-dir", str(work), "--cache-dir", str(tmp_path / "q")]
        assert cli_main(argv + queued) == 0
        out = capsys.readouterr().out
        WorkQueue(work).stop_path.touch()
        worker.join(10)
        assert not worker.is_alive(), "queue worker did not stop"
        (stats,) = WorkQueue(work).worker_stats()
        assert stats["points"] == 2
        assert cli_main(argv + ["--cache-dir", str(tmp_path / "l")]) == 0
        assert capsys.readouterr().out == out


class TestWorkerStats:
    def test_record_completion_accumulates(self, tmp_path):
        queue = WorkQueue(tmp_path).ensure()
        w1, w2 = WorkerStats(queue, "w1"), WorkerStats(queue, "w2")
        w1.record(points=2)
        w1.record(points=3, failed=True)
        w2.record()
        w1.write()
        w2.write()
        stats = {s["worker"]: s for s in queue.worker_stats()}
        assert stats["w1"]["units"] == 2
        assert stats["w1"]["points"] == 5
        assert stats["w1"]["failures"] == 1
        assert stats["w2"]["units"] == 1
        assert len(stats["w1"]["timestamps"]) == 2
        assert stats["w1"]["started_at"] <= stats["w1"]["last_done_at"]

    def test_timestamps_are_bounded(self, tmp_path):
        bound = WorkerStats.TIMESTAMPS
        queue = WorkQueue(tmp_path).ensure()
        w1 = WorkerStats(queue, "w1")
        for _ in range(bound + 10):
            w1.record()
        w1.write()
        (stats,) = queue.worker_stats()
        assert len(stats["timestamps"]) == bound
        assert stats["units"] == bound + 10

    def test_units_per_minute(self):
        from repro.runner.queue import units_per_minute

        # 3 completions over 30 seconds: 2 intervals -> 4 units/min.
        assert units_per_minute({"timestamps": [0.0, 10.0, 30.0]}) == 4.0
        assert units_per_minute({"timestamps": [5.0]}) == 0.0
        assert units_per_minute({"timestamps": []}) == 0.0
        assert units_per_minute({}) == 0.0
        # A zero span (same-instant burst) must not divide by zero.
        assert units_per_minute({"timestamps": [7.0, 7.0]}) == 0.0

    def test_worker_ids_are_sanitised_and_corrupt_files_skipped(self, tmp_path):
        queue = WorkQueue(tmp_path).ensure()
        evil = WorkerStats(queue, "host:1/evil id")
        evil.record()
        evil.write()
        path = queue.worker_stats_path("host:1/evil id")
        assert path.parent == queue.workers_dir
        assert "/" not in path.name.replace(path.suffix, "")
        (queue.workers_dir / "junk.json").write_text("{broken")
        stats = queue.worker_stats()
        assert [s["worker"] for s in stats] == ["host:1/evil id"]

    def test_worker_is_listed_from_the_moment_it_starts(self, tmp_path):
        # Its heartbeat is far off and the queue is empty, so only the
        # start-up write can list the worker before it exits.
        queue = WorkQueue(tmp_path).ensure()
        worker = start_worker(tmp_path, worker_id="fresh", heartbeat=600)
        try:
            deadline = time.monotonic() + 10
            while not queue.worker_stats() and time.monotonic() < deadline:
                time.sleep(0.01)
            (stats,) = queue.worker_stats()
            assert worker.is_alive()
            assert (stats["worker"], stats["units"]) == ("fresh", 0)
        finally:
            queue.stop_path.touch()
            worker.join(10)
        assert not worker.is_alive()

    def test_queue_worker_records_throughput(self, tmp_path):
        queue = WorkQueue(tmp_path).ensure()
        for spec in small_specs():
            queue.enqueue(spec)
        done = run_queue_worker(tmp_path, worker_id="bench", max_units=2, poll=0.02)
        assert done == 2
        (stats,) = queue.worker_stats()
        assert stats["worker"] == "bench"
        assert stats["units"] == 2
        assert stats["points"] == 2
        assert stats["failures"] == 0
        from repro.runner.queue import units_per_minute

        assert units_per_minute(stats) > 0.0

    def test_queue_status_json_contract(self, tmp_path, capsys):
        queue = WorkQueue(tmp_path).ensure()
        queue.enqueue(RunSpec("st", scale=SCALE))
        rc = cli_main(["queue", "status", "--work-dir", str(tmp_path), "--json"])
        assert rc == 0
        document = json.loads(capsys.readouterr().out)
        assert document["work_dir"] == str(tmp_path)
        assert document["queued"] == 1
        assert document["queued_points"] == 1
        assert document["claimed"] == 0
        assert document["stopping"] is False
        # The document mirrors QueueStatus.to_dict(), field for field.
        status = queue.status()
        assert {k: v for k, v in document.items() if k != "work_dir"} == (
            status.to_dict()
        )
