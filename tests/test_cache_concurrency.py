"""Concurrent cache access: racing writers/readers of the same point.

The server hands its cache to multiple drain threads, and any
number of workers/orchestrators/daemons may share one cache directory —
so the lock-free put/get protocol (atomic temp-file + rename, salt and
spec verified on read) must hold up under deliberate races:

* threads hammering put/get on one spec never observe a torn payload;
* two Sessions sweeping the same plan concurrently both finish with
  the right results and exactly one entry per point;
* two separate *processes* executing the same point concurrently leave
  one valid entry and no temp-file litter;
* the scan-then-delete pass of ``gc`` waits on the cache lock;
* ``gc`` and ``clear`` leave a live writer's temp file alone.
"""

import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.runner import ResultCache, RunSpec
from repro.runner import cache as cache_module
from repro.session import Grid, Session

SCALE = 0.05


def tmp_litter(root: Path) -> list:
    return list(root.rglob("*.tmp"))


class TestThreadRaces:
    def test_put_get_race_never_tears(self, tmp_path):
        # Writers rewrite the same entry while readers poll it; every
        # read must be either a miss or one of the complete payloads.
        cache = ResultCache(tmp_path)
        spec = RunSpec("st", scale=SCALE)
        payloads = [
            {"kind": "trace", "trace": {"writer": w, "fill": "x" * 4096}}
            for w in range(2)
        ]
        stop = threading.Event()
        seen, bad = [], []

        def writer(payload):
            while not stop.is_set():
                cache.put(spec, payload)

        def reader():
            while not stop.is_set():
                payload = cache.get(spec)
                if payload is None:
                    continue
                if payload not in payloads:
                    bad.append(payload)
                else:
                    seen.append(payload["trace"]["writer"])

        threads = [threading.Thread(target=writer, args=(p,)) for p in payloads]
        threads += [threading.Thread(target=reader) for _ in range(2)]
        for thread in threads:
            thread.start()
        deadline = threading.Event()
        deadline.wait(1.0)
        stop.set()
        for thread in threads:
            thread.join(10)
        assert not bad
        assert len(seen) > 0
        assert cache.get(spec) in payloads
        assert tmp_litter(tmp_path) == []

    def test_two_sessions_sweep_the_same_plan_concurrently(self, tmp_path):
        specs = Grid(workload="st", mechanism=["inorder", "nvr"], scale=SCALE).specs()
        outcomes = {}

        def sweep(name):
            with Session(cache_dir=tmp_path) as session:
                rs = session.sweep(specs)
            outcomes[name] = rs.render("json")

        threads = [
            threading.Thread(target=sweep, args=(name,)) for name in ("a", "b")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120)
        assert outcomes["a"] == outcomes["b"]
        cache = ResultCache(tmp_path)
        assert len(cache.entries()) == len(specs)
        for spec in specs:
            assert cache.get(spec) is not None
        assert tmp_litter(tmp_path) == []


class TestProcessRaces:
    def test_two_processes_execute_the_same_point(self, tmp_path):
        # Two CLI processes race the same uncached point into one shared
        # cache directory: both must succeed, converging on exactly one
        # verified entry for the spec.
        cache_dir = tmp_path / "cache"
        command = [
            sys.executable,
            "-m",
            "repro",
            "run",
            "st",
            "--mechanism",
            "inorder",
            "--scale",
            str(SCALE),
            "--cache-dir",
            str(cache_dir),
        ]
        env = dict(os.environ)
        procs = [
            subprocess.Popen(
                command,
                stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT,
                env=env,
                text=True,
            )
            for _ in range(2)
        ]
        outputs = [proc.communicate(timeout=120)[0] for proc in procs]
        for proc, output in zip(procs, outputs):
            assert proc.returncode == 0, output

        cache = ResultCache(cache_dir)
        # `repro run` prints the base/stall split, so its spec pins
        # with_base=True.
        spec = RunSpec("st", mechanism="inorder", scale=SCALE, with_base=True)
        entries = cache.entries()
        assert len(entries) == 1
        entry = json.loads(entries[0].read_text())
        assert entry["salt"] == cache.salt
        assert entry["spec"] == spec.to_dict()
        assert cache.get(spec) is not None
        assert tmp_litter(cache_dir) == []


def trace_payload(spec: RunSpec) -> dict:
    return {"kind": "trace", "trace": {"key": spec.key()}}


class TestCacheLock:
    def test_gc_waits_for_held_lock(self, tmp_path):
        cache = ResultCache(tmp_path)
        specs = Grid(workload="st", mechanism=["inorder", "nvr"], scale=SCALE).specs()
        events: list[str] = []

        def gc_thread():
            events.append("gc-start")
            ResultCache(tmp_path).gc(max_bytes=0)
            events.append("gc-done")

        thread = threading.Thread(target=gc_thread)
        with cache.lock():
            thread.start()
            # The gc pass must block on the lock we hold...
            time.sleep(0.3)
            assert events == ["gc-start"]
            # ...so entries written under the same lock cannot have a
            # gc scan interleave with them.
            for spec in specs:
                cache.put(spec, trace_payload(spec))
            assert len(cache) == len(specs)
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert events == ["gc-start", "gc-done"]
        # The gc (max_bytes=0) ran strictly after the writes and evicted
        # every entry, not some of them.
        assert len(ResultCache(tmp_path)) == 0


class TestMaintenanceSparesLiveWriters:
    @pytest.mark.parametrize("maintenance", ["gc", "clear"])
    def test_put_survives_maintenance_between_write_and_rename(
        self, tmp_path, monkeypatch, maintenance
    ):
        # Another cache over the same directory runs its maintenance
        # while a put holds its written temp file and has yet to rename
        # it; the gc evicts nothing, and neither may take the temp file.
        cache, other = ResultCache(tmp_path), ResultCache(tmp_path)
        spec = RunSpec("st", scale=SCALE)
        real_replace = os.replace
        ran = []

        def replace_after_maintenance(src, dst):
            if not ran:
                ran.append(maintenance)
                if maintenance == "gc":
                    assert other.gc(max_bytes=10**9).removed == 0
                else:
                    other.clear()
            return real_replace(src, dst)

        monkeypatch.setattr(cache_module.os, "replace", replace_after_maintenance)
        cache.put(spec, trace_payload(spec))
        assert ran == [maintenance]
        assert cache.get(spec) == trace_payload(spec)
        assert tmp_litter(tmp_path) == []
