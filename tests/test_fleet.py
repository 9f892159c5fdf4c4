"""Fleet herding: the local driver, restart policy, state, cache sync.

The acceptance properties of the fleet layer:

* the local driver starts, polls and stops ``repro queue worker``
  subprocesses, and is rebuilt from the persisted state file, whose one
  reader turns any malformed document into a ``ConfigError``;
* the herder replaces dead workers — behind an exponential backoff and
  a max-restart cap, so a worker that dies on arrival cannot spin;
* ``Session.fleet`` sweeps are byte-identical to the local backend
  (the ``fleet-smoke`` CI job pins the CLI flavour, chaos kill
  included);
* cache push/pull shares warmth across filesystems without ever
  merging a salt-mismatched, misaddressed or corrupt entry.
"""

import json
import os
import subprocess
import sys
import time

import pytest

from repro.__main__ import main as cli_main
from repro.errors import ConfigError
from repro.runner import (
    Fleet,
    LocalDriver,
    Plan,
    ResultCache,
    RunSpec,
    WorkerHandle,
    WorkerStats,
    WorkQueue,
    pull_cache,
    push_cache,
    result_to_payload,
)
from repro.runner.fleet import EXITED, RUNNING
from repro.runner.pool import execute_spec
from repro.runner.sync import is_rsync_remote
from repro.server.engine import fleet_summary
from repro.session import Grid, Session

SCALE = 0.05

#: A worker stand-in that stays alive until stopped — herder tests care
#: about process lifecycle, not simulation.
SLEEPER = [sys.executable, "-c", "import time; time.sleep(60)"]


#: State files no :meth:`Fleet.save_state` writes: a non-count size, a
#: top-level list, and the driver options of an older version's ssh
#: fleet.
MALFORMED_STATES = [
    pytest.param({"size": "x"}, id="size-not-a-count"),
    pytest.param([], id="top-level-list"),
    pytest.param({"driver_config": {"hosts_file": "h.txt"}}, id="ssh-config"),
]


#: Remote-driver and autoscaler flags the fleet CLI does not take.
REMOVED_FLAGS = [
    ("up", ("--driver", "ssh")),
    ("up", ("--hosts", "F")),
    ("up", ("--sbatch-template", "F")),
    ("up", ("--remote-cmd", "C")),
    ("run", ("--driver", "ssh")),
    ("run", ("--hosts", "F")),
    ("run", ("--sbatch-template", "F")),
    ("run", ("--remote-cmd", "C")),
    ("run", ("--min", "1")),
    ("run", ("--max", "2")),
]


class StaticDriver:
    """Workers that never die, so every herder tick is the steady state."""

    def __init__(self):
        self.started = 0

    def config(self) -> dict:
        return {}

    def submit(self, count):
        self.started += count
        return [
            WorkerHandle(f"static-{i}", {})
            for i in range(self.started - count, self.started)
        ]

    def poll(self, handles):
        return {handle.id: RUNNING for handle in handles}

    def stop(self, handles):
        pass


def write_state(work_dir, state) -> None:
    path = work_dir / "fleet" / "state.json"
    path.parent.mkdir(parents=True)
    path.write_text(json.dumps(state))


def small_specs() -> list[RunSpec]:
    return Grid(workload="st", mechanism=["inorder", "nvr"], scale=SCALE).specs()


def wait_for(predicate, timeout: float = 10.0, interval: float = 0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval)
    raise AssertionError("condition not reached within timeout")


class TestLocalDriver:
    def test_submit_poll_stop_lifecycle(self, tmp_path):
        driver = LocalDriver(tmp_path, command=SLEEPER)
        handles = driver.submit(2)
        assert len(handles) == 2
        assert set(driver.poll(handles).values()) == {RUNNING}
        for handle in handles:
            assert (tmp_path / "fleet" / "logs" / f"{handle.id}.log").exists()
        driver.stop(handles, grace=0.2)
        assert set(driver.poll(handles).values()) == {EXITED}

    def test_kill_hook_is_observed_as_exit(self, tmp_path):
        driver = LocalDriver(tmp_path, command=SLEEPER)
        (handle,) = driver.submit(1)
        driver.kill(handle)
        wait_for(lambda: driver.poll([handle])[handle.id] == EXITED)
        driver.stop([handle], grace=0.1)

    def test_polls_restored_handles_by_pid(self, tmp_path):
        # A handle from another process's state file has no Popen; a
        # dead pid must read as exited, not crash the poll.
        driver = LocalDriver(tmp_path)
        dead = WorkerHandle("gone", {"pid": 2**22 + 12345})
        assert driver.poll([dead]) == {"gone": EXITED}

    @pytest.mark.skipif(not hasattr(os, "waitid"), reason="needs os.waitid")
    def test_restored_handle_of_an_exited_unreaped_child_reads_exited(self, tmp_path):
        # `fleet down` run in the process that ran `fleet up` polls its
        # own exited workers by pid. Until reaped, such a child is a
        # zombie, which still answers kill 0.
        proc = subprocess.Popen([sys.executable, "-c", "pass"])
        try:
            # Wait for the exit but leave the child unreaped.
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            handle = WorkerHandle("zombie", {"pid": proc.pid})
            assert LocalDriver(tmp_path).poll([handle]) == {"zombie": EXITED}
        finally:
            proc.wait(timeout=5)

    def test_worker_argv_targets_the_queue_cli(self, tmp_path):
        driver = LocalDriver(tmp_path, worker_args=["--heartbeat", "0.5"])
        argv = driver._argv()
        assert argv[:3] == [sys.executable, "-m", "repro"]
        assert "queue" in argv and "worker" in argv
        assert argv[-2:] == ["--heartbeat", "0.5"]


class TestHerder:
    def make_fleet(self, tmp_path, **kwargs):
        kwargs.setdefault("restart_backoff", 0.0)
        return Fleet(tmp_path, LocalDriver(tmp_path, command=SLEEPER), **kwargs)

    def test_restart_on_death(self, tmp_path):
        fleet = self.make_fleet(tmp_path)
        try:
            handles = fleet.up(2)
            fleet.driver.kill(handles[0])
            wait_for(
                lambda: fleet.driver.poll([handles[0]])[handles[0].id] == EXITED
            )
            status = fleet.tick()
            assert fleet.restarts == 1
            assert status.running == 2
            assert handles[0].id not in status.workers
        finally:
            fleet.down(drain_timeout=0.1)

    def test_steady_ticks_keep_every_worker(self, tmp_path):
        fleet = Fleet(tmp_path, StaticDriver())
        fleet.up(64)
        try:
            for _ in range(10):
                status = fleet.tick()
            assert status.running == 64
            assert fleet.restarts == 0
        finally:
            fleet.down(drain_timeout=0.0)

    def test_restarts_wait_out_the_backoff_window(self, tmp_path):
        now = [0.0]
        fleet = self.make_fleet(
            tmp_path, restart_backoff=10.0, clock=lambda: now[0]
        )
        try:
            (first,) = fleet.up(1)
            fleet.driver.kill(first)
            wait_for(lambda: fleet.driver.poll([first])[first.id] == EXITED)
            fleet.tick()  # first restart is immediate
            assert fleet.restarts == 1
            (second,) = fleet.workers
            fleet.driver.kill(second)
            wait_for(lambda: fleet.driver.poll([second])[second.id] == EXITED)
            now[0] = 5.0  # inside the 10s window: no replacement yet
            assert fleet.tick().running == 0
            assert fleet.restarts == 1
            now[0] = 11.0
            assert fleet.tick().running == 1
            assert fleet.restarts == 2
        finally:
            fleet.down(drain_timeout=0.1)

    def test_backoff_doubles_per_restart(self, tmp_path):
        now = [0.0]
        fleet = self.make_fleet(
            tmp_path, restart_backoff=1.0, clock=lambda: now[0]
        )
        try:
            fleet.up(1)
            for expected_next in (1.0, 3.0, 7.0):  # 1, +2, +4
                (worker,) = fleet.workers
                fleet.driver.kill(worker)
                wait_for(
                    lambda w=worker: fleet.driver.poll([w])[w.id] == EXITED
                )
                now[0] = fleet._next_restart_at
                fleet.tick()
                assert fleet._next_restart_at == pytest.approx(expected_next)
        finally:
            fleet.down(drain_timeout=0.1)

    def test_gives_up_at_the_restart_cap(self, tmp_path):
        fleet = self.make_fleet(tmp_path, max_restarts=1)
        try:
            fleet.up(1)
            for _ in range(2):
                (worker,) = fleet.workers
                fleet.driver.kill(worker)
                wait_for(
                    lambda w=worker: fleet.driver.poll([w])[w.id] == EXITED
                )
                fleet.tick()
            status = fleet.tick()
            assert fleet.gave_up
            assert status.running == 0
            assert fleet.restarts == 1  # capped: the second death stays dead
        finally:
            fleet.down(drain_timeout=0.1)

    def test_up_clears_a_stale_stop_sentinel(self, tmp_path):
        fleet = self.make_fleet(tmp_path)
        fleet.queue.ensure()
        fleet.queue.stop_path.touch()
        try:
            fleet.up(1)
            assert not fleet.queue.stop_requested()
        finally:
            fleet.down(drain_timeout=0.1)

    def test_down_is_terminal_and_removes_state(self, tmp_path):
        fleet = self.make_fleet(tmp_path)
        fleet.up(2)
        assert fleet.state_path.exists()
        fleet.down(drain_timeout=0.1)
        assert fleet.workers == []
        assert not fleet.state_path.exists()
        assert fleet.queue.stop_requested()


class TestFleetState:
    def test_attach_rebuilds_driver_and_workers(self, tmp_path):
        fleet = Fleet(tmp_path, LocalDriver(tmp_path, command=SLEEPER))
        handles = fleet.up(2)
        try:
            attached = Fleet.attach(tmp_path)
            assert isinstance(attached.driver, LocalDriver)
            assert attached.driver._command == SLEEPER
            assert [h.id for h in attached.workers] == [h.id for h in handles]
            assert attached.status().running == 2
            assert fleet_summary(tmp_path) == {"size": 2, "workers": 2, "restarts": 0}
        finally:
            fleet.down(drain_timeout=0.1)

    def test_handle_round_trips_json(self):
        handle = WorkerHandle("h1", {"pid": 42, "log": "x.log"})
        assert WorkerHandle.from_dict(handle.to_dict()) == handle
        with pytest.raises(ConfigError):
            WorkerHandle.from_dict({"data": {}})

    def test_attach_without_state_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="fleet up"):
            Fleet.attach(tmp_path)

    def test_attach_rejects_corrupt_state(self, tmp_path):
        state = tmp_path / "fleet" / "state.json"
        state.parent.mkdir(parents=True)
        state.write_text("{nope")
        with pytest.raises(ConfigError, match="corrupt"):
            Fleet.attach(tmp_path)

    @pytest.mark.parametrize("state", MALFORMED_STATES)
    def test_attach_rejects_malformed_state(self, tmp_path, state):
        write_state(tmp_path, state)
        with pytest.raises(ConfigError, match="malformed fleet state"):
            Fleet.attach(tmp_path)

    @pytest.mark.parametrize("state", MALFORMED_STATES)
    def test_status_and_down_report_malformed_state(self, tmp_path, capsys, state):
        write_state(tmp_path, state)
        for command in ("status", "down"):
            assert cli_main(["fleet", command, "--work-dir", str(tmp_path)]) == 2
            assert "error: malformed fleet state" in capsys.readouterr().err

    @pytest.mark.parametrize("state", MALFORMED_STATES)
    def test_server_summary_reads_malformed_state_as_empty(self, tmp_path, state):
        write_state(tmp_path, state)
        assert fleet_summary(tmp_path) == {"size": 0, "workers": 0, "restarts": 0}


class TestCacheSync:
    def warm_cache(self, root) -> tuple[ResultCache, RunSpec, dict]:
        cache = ResultCache(root)
        spec = RunSpec("st", mechanism="inorder", scale=SCALE)
        payload = execute_spec(spec)
        cache.put(spec, payload)
        return cache, spec, payload

    def test_push_pull_round_trip(self, tmp_path):
        cache, spec, payload = self.warm_cache(tmp_path / "a")
        remote = str(tmp_path / "remote")
        report = push_cache(cache, remote)
        assert (report.copied, report.rejected) == (1, 0)
        other = ResultCache(tmp_path / "b")
        report = pull_cache(other, remote)
        assert (report.copied, report.rejected) == (1, 0)
        assert other.get(spec) == payload

    def test_round_trip_copies_every_entry(self, tmp_path):
        source = ResultCache(tmp_path / "source")
        for seed in range(200):
            spec = RunSpec("st", scale=SCALE, seed=seed)
            source.put(spec, {"total_cycles": seed + 1, "stall_cycles": 0})
        remote = str(tmp_path / "remote")
        assert push_cache(source, remote).copied == 200
        assert pull_cache(ResultCache(tmp_path / "dest"), remote).copied == 200

    def test_push_skips_entries_already_remote(self, tmp_path):
        cache, _, _ = self.warm_cache(tmp_path / "a")
        remote = str(tmp_path / "remote")
        push_cache(cache, remote)
        report = push_cache(cache, remote)
        assert (report.copied, report.skipped) == (0, 1)

    def test_pull_rejects_salt_mismatch(self, tmp_path):
        cache, spec, _ = self.warm_cache(tmp_path / "a")
        remote = str(tmp_path / "remote")
        push_cache(cache, remote)
        stale = ResultCache(tmp_path / "b", salt="some-older-version")
        report = pull_cache(stale, remote)
        assert (report.copied, report.rejected) == (0, 1)
        assert len(stale.entries()) == 0

    def test_pull_rejects_corrupt_and_misaddressed_entries(self, tmp_path):
        cache, spec, _ = self.warm_cache(tmp_path / "a")
        remote = tmp_path / "remote"
        push_cache(cache, str(remote))
        (entry,) = list(remote.glob("??/*.json"))
        (remote / "zz").mkdir()
        (remote / "zz" / ("0" * 64 + ".json")).write_text("{trunc")
        # A valid entry renamed to the wrong content address.
        moved = remote / "ff" / ("f" * 64 + ".json")
        moved.parent.mkdir()
        moved.write_text(entry.read_text())
        other = ResultCache(tmp_path / "b")
        report = pull_cache(other, str(remote))
        assert report.copied == 1  # only the genuine entry
        assert report.rejected == 2

    def test_pull_from_missing_directory_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="does not exist"):
            pull_cache(ResultCache(tmp_path / "a"), str(tmp_path / "nope"))

    def test_remote_kind_classification(self):
        assert is_rsync_remote("rsync://host/module/cache")
        assert is_rsync_remote("host:/srv/cache")
        assert not is_rsync_remote("/srv/cache")
        assert not is_rsync_remote("relative/dir")
        assert not is_rsync_remote("C:/cache")  # drive letter, not a host


class TestFleetSession:
    def test_fleet_sweep_is_byte_identical_to_local(self, tmp_path):
        specs = small_specs()
        with Session.fleet(
            tmp_path / "work",
            size=1,
            lease_timeout=5,
            poll=0.02,
            timeout=120,
            cache_dir=tmp_path / "fleet-cache",
            worker_args=["--poll", "0.05"],
        ) as fleet_session:
            fleet_rs = fleet_session.sweep(list(specs))
        with Session(cache_dir=tmp_path / "local-cache") as local_session:
            local_rs = local_session.sweep(list(specs))
        fleet_bytes = json.dumps(
            [result_to_payload(r) for r in fleet_rs.results], sort_keys=True
        )
        local_bytes = json.dumps(
            [result_to_payload(r) for r in local_rs.results], sort_keys=True
        )
        assert fleet_bytes == local_bytes
        # The session teardown drained the fleet and removed its state.
        assert not (tmp_path / "work" / "fleet" / "state.json").exists()

    def test_close_is_idempotent(self, tmp_path):
        session = Session.fleet(
            tmp_path / "work",
            size=1,
            timeout=60,
            cache_dir=tmp_path / "cache",
        )
        session.close()
        session.close()

    def test_driver_keyword_is_gone(self, tmp_path):
        with pytest.raises(TypeError):
            # .close() keeps a version that accepts the keyword from
            # leaking the workers it raised.
            Session.fleet(tmp_path / "work", driver="local").close()


class TestFleetCLI:
    def test_up_status_down_round_trip(self, tmp_path, capsys):
        work = str(tmp_path / "work")
        assert (
            cli_main(
                [
                    "fleet",
                    "up",
                    "--work-dir",
                    work,
                    "-n",
                    "1",
                    "--worker-arg=--poll",
                    "--worker-arg=0.05",
                ]
            )
            == 0
        )
        assert "fleet up: 1 worker(s)" in capsys.readouterr().out
        assert cli_main(["fleet", "status", "--work-dir", work]) == 0
        out = capsys.readouterr().out
        assert "driver    :" not in out
        assert "1/1 running" in out
        assert "throughput:" not in out  # nothing executed yet
        # Completions recorded by workers surface as per-worker rates.
        stats = WorkerStats(WorkQueue(work), "w:1")
        stats.record(points=2)
        stats.record(points=2)
        stats.write()
        assert cli_main(["fleet", "status", "--work-dir", work]) == 0
        out = capsys.readouterr().out
        assert "throughput:" in out
        assert "w:1: 2 unit(s), 4 point(s), 0 failure(s)" in out
        assert "units/min" in out
        assert cli_main(["fleet", "down", "--work-dir", work]) == 0
        assert "drained 1 worker(s)" in capsys.readouterr().out
        assert cli_main(["fleet", "status", "--work-dir", work]) == 2

    @pytest.mark.parametrize(
        "command,flag",
        [pytest.param(c, f, id=f"{c}{f[0]}") for c, f in REMOVED_FLAGS],
    )
    def test_removed_flags_are_unrecognised(self, tmp_path, capsys, command, flag):
        with pytest.raises(SystemExit) as exc:
            cli_main(["fleet", command, "--work-dir", str(tmp_path), *flag])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_fleet_run_spec_matches_local_sweep(self, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        Plan(specs=small_specs()).save(plan_path)
        fleet_json = tmp_path / "fleet.json"
        local_json = tmp_path / "local.json"
        rc = cli_main(
            [
                "fleet",
                "run",
                "-n",
                "1",
                "--work-dir",
                str(tmp_path / "work"),
                "--timeout",
                "120",
                "--cache-dir",
                str(tmp_path / "fleet-cache"),
                "--spec",
                str(plan_path),
                "--json",
                str(fleet_json),
            ]
        )
        assert rc == 0, capsys.readouterr().err
        rc = cli_main(
            [
                "sweep",
                "--spec",
                str(plan_path),
                "--cache-dir",
                str(tmp_path / "local-cache"),
                "--json",
                str(local_json),
            ]
        )
        assert rc == 0
        assert fleet_json.read_bytes() == local_json.read_bytes()
