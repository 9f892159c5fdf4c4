"""Fleet herding: drivers, restart policy, autoscaling, cache sync.

The acceptance properties of the fleet layer:

* drivers are registry entries speaking one ``submit/poll/stop``
  protocol, reconstructible from their persisted state-file config;
* the herder replaces dead workers — behind an exponential backoff and
  a max-restart cap, so a worker that dies on arrival cannot spin — and
  the autoscaler moves the fleet between its bounds with queue depth;
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
    FLEET_DRIVERS,
    AutoscalerPolicy,
    Fleet,
    LocalDriver,
    Plan,
    ResultCache,
    RunSpec,
    SlurmDriver,
    SSHDriver,
    WorkerHandle,
    WorkQueue,
    make_driver,
    parse_hosts_file,
    pull_cache,
    push_cache,
    result_to_payload,
)
from repro.runner.fleet import EXITED, RUNNING, UNKNOWN
from repro.runner.pool import execute_spec
from repro.runner.queue import QueueStatus
from repro.runner.sync import is_rsync_remote
from repro.session import Grid, Session

SCALE = 0.05

#: A worker stand-in that stays alive until stopped — herder tests care
#: about process lifecycle, not simulation.
SLEEPER = [sys.executable, "-c", "import time; time.sleep(60)"]


def small_specs() -> list[RunSpec]:
    return Grid(workload="st", mechanism=["inorder", "nvr"], scale=SCALE).specs()


def wait_for(predicate, timeout: float = 10.0, interval: float = 0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval)
    raise AssertionError("condition not reached within timeout")


class FakeDriver:
    """A registry-shaped driver that records calls and kills on command."""

    name = "fake"

    def __init__(self):
        self._seq = 0
        self.alive: dict[str, bool] = {}
        self.submitted = 0
        self.stopped: list[str] = []

    def config(self) -> dict:
        return {}

    def submit(self, count):
        handles = []
        for _ in range(count):
            self._seq += 1
            wid = f"fake-{self._seq}"
            self.alive[wid] = True
            handles.append(WorkerHandle(wid, {}))
        self.submitted += count
        return handles

    def poll(self, handles):
        return {
            h.id: RUNNING if self.alive.get(h.id) else EXITED for h in handles
        }

    def stop(self, handles):
        for h in handles:
            self.alive[h.id] = False
            self.stopped.append(h.id)

    def die(self, wid: str) -> None:
        self.alive[wid] = False


class TestDriverRegistry:
    def test_builtin_drivers_are_registered(self):
        assert set(FLEET_DRIVERS.names()) >= {"local", "ssh", "slurm"}

    def test_unknown_driver_lists_known_names(self, tmp_path):
        with pytest.raises(ConfigError, match="local.*ssh.*slurm"):
            make_driver("pbs", tmp_path)

    def test_make_driver_round_trips_config(self, tmp_path):
        driver = make_driver("local", tmp_path, worker_args=["--poll", "0.1"])
        assert isinstance(driver, LocalDriver)
        rebuilt = make_driver("local", tmp_path, **driver.config())
        assert rebuilt.worker_args == ["--poll", "0.1"]

    def test_handle_round_trips_json(self):
        handle = WorkerHandle("h1", {"pid": 42, "log": "x.log"})
        assert WorkerHandle.from_dict(handle.to_dict()) == handle
        with pytest.raises(ConfigError):
            WorkerHandle.from_dict({"data": {}})


class TestHostsFile:
    def test_parses_slots_comments_and_blanks(self, tmp_path):
        path = tmp_path / "hosts"
        path.write_text("# fleet\nnodeA 2\n\nnodeB   # one slot\n")
        assert parse_hosts_file(path) == [("nodeA", 2), ("nodeB", 1)]

    @pytest.mark.parametrize(
        "text,match",
        [
            ("nodeA x\n", "integer"),
            ("nodeA 0\n", ">= 1"),
            ("nodeA 1 extra\n", "expected"),
            ("# nothing\n", "no hosts"),
        ],
    )
    def test_rejects_malformed_files(self, tmp_path, text, match):
        path = tmp_path / "hosts"
        path.write_text(text)
        with pytest.raises(ConfigError, match=match):
            parse_hosts_file(path)

    def test_missing_file_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            parse_hosts_file(tmp_path / "absent")


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

    def test_chaos_hook_requires_a_kill_capable_driver(self, tmp_path):
        fleet = Fleet(tmp_path, FakeDriver())
        with pytest.raises(ConfigError, match="kill hook"):
            fleet.arm_chaos()


class TestAutoscaler:
    def test_target_is_demand_clamped_to_bounds(self):
        policy = AutoscalerPolicy(min_workers=1, max_workers=4)
        assert policy.target(QueueStatus(), current=3) == 1
        assert policy.target(QueueStatus(queued=2, claimed=1), current=1) == 3
        assert policy.target(QueueStatus(queued=100), current=1) == 4

    def test_expired_leases_do_not_double_count(self):
        # expired is a subset of claimed, not extra demand.
        policy = AutoscalerPolicy(min_workers=0, max_workers=10)
        status = QueueStatus(queued=1, claimed=2, expired=2)
        assert policy.target(status, current=0) == 3

    @pytest.mark.parametrize("bounds", [(-1, 4), (2, 1), (0, 0)])
    def test_invalid_bounds_raise(self, bounds):
        with pytest.raises(ConfigError):
            AutoscalerPolicy(*bounds)

    def test_fleet_needs_both_bounds_or_neither(self, tmp_path):
        with pytest.raises(ConfigError, match="both"):
            Fleet(tmp_path, FakeDriver(), min_workers=1)

    def test_fleet_grows_and_shrinks_with_queue_depth(self, tmp_path):
        driver = FakeDriver()
        fleet = Fleet(tmp_path, driver, min_workers=1, max_workers=4)
        depth = [QueueStatus(queued=10)]
        fleet.queue.status = lambda lease_timeout=None, deep=False: depth[0]
        fleet.up(1)
        status = fleet.tick()
        assert fleet.size == 4
        assert status.running == 4
        assert driver.submitted == 4
        depth[0] = QueueStatus()  # drained: shrink to the floor
        status = fleet.tick()
        assert fleet.size == 1
        assert status.running == 1
        assert len(driver.stopped) == 3

    def test_autoscaler_growth_skips_the_restart_backoff(self, tmp_path):
        # Growth is immediate; only crash replacements are rate-limited.
        driver = FakeDriver()
        fleet = Fleet(
            tmp_path,
            driver,
            min_workers=1,
            max_workers=3,
            restart_backoff=1000.0,
        )
        depth = [QueueStatus(queued=5)]
        fleet.queue.status = lambda lease_timeout=None, deep=False: depth[0]
        fleet.up(1)
        assert fleet.tick().running == 3
        assert fleet.restarts == 0


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
        finally:
            fleet.down(drain_timeout=0.1)

    def test_attach_without_state_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="fleet up"):
            Fleet.attach(tmp_path)

    def test_attach_rejects_corrupt_state(self, tmp_path):
        state = tmp_path / "fleet" / "state.json"
        state.parent.mkdir(parents=True)
        state.write_text("{nope")
        with pytest.raises(ConfigError, match="corrupt"):
            Fleet.attach(tmp_path)


class TestSSHDriver:
    def make_driver(self, tmp_path, run, hosts=(("nodeA", 2), ("nodeB", 1))):
        return SSHDriver(tmp_path, hosts=hosts, run=run, ssh_cmd=["ssh"])

    def test_needs_hosts(self, tmp_path):
        with pytest.raises(ConfigError, match="hosts file"):
            SSHDriver(tmp_path)

    def test_submit_launches_workers_round_robin(self, tmp_path):
        calls = []

        def run(argv):
            calls.append(argv)
            return f"{1000 + len(calls)}\n"

        driver = self.make_driver(tmp_path, run)
        handles = driver.submit(3)
        assert [h.data["host"] for h in handles] == ["nodeA", "nodeB", "nodeA"]
        assert handles[0].id == "nodeA:1001"
        remote = calls[0][-1]
        assert "nohup" in remote and "queue worker" in remote
        assert str(tmp_path) in remote and "echo $!" in remote
        assert calls[0][:2] == ["ssh", "nodeA"]

    def test_submit_beyond_capacity_is_config_error(self, tmp_path):
        driver = self.make_driver(tmp_path, lambda argv: "1\n")
        driver.submit(3)
        with pytest.raises(ConfigError, match="capacity"):
            driver.submit(1)

    def test_submit_without_pid_echo_is_config_error(self, tmp_path):
        driver = self.make_driver(tmp_path, lambda argv: "bash: no such\n")
        with pytest.raises(ConfigError, match="did not echo a pid"):
            driver.submit(1)

    def test_poll_maps_probe_output_to_states(self, tmp_path):
        def run(argv):
            if "kill -0 1 " in argv[-1]:
                return "up\n"
            if "kill -0 2 " in argv[-1]:
                return "down\n"
            raise ConfigError("unreachable host")

        driver = self.make_driver(tmp_path, run)
        handles = [
            WorkerHandle("nodeA:1", {"host": "nodeA", "pid": 1}),
            WorkerHandle("nodeA:2", {"host": "nodeA", "pid": 2}),
            WorkerHandle("nodeC:3", {"host": "nodeC", "pid": 3}),
        ]
        assert driver.poll(handles) == {
            "nodeA:1": RUNNING,
            "nodeA:2": EXITED,
            "nodeC:3": UNKNOWN,
        }

    def test_stop_interrupts_remote_pids(self, tmp_path):
        calls = []
        driver = self.make_driver(
            tmp_path, lambda argv: (calls.append(argv), "1\n")[1]
        )
        (handle,) = driver.submit(1)
        calls.clear()
        driver.stop([handle])
        assert calls == [["ssh", "nodeA", "kill -INT 1"]]


class TestSlurmDriver:
    def test_render_fills_the_builtin_template(self, tmp_path):
        driver = SlurmDriver(tmp_path, worker_args=["--poll", "0.1"])
        script = driver.render(4)
        assert "#SBATCH --array=0-3" in script
        assert "repro queue worker --work-dir" in script
        assert "--poll 0.1" in script

    def test_render_honours_a_template_file(self, tmp_path):
        template = tmp_path / "job.sh"
        template.write_text(
            "#SBATCH -p gpu\n#SBATCH --array=$array_spec\n$worker_cmd\n"
        )
        driver = SlurmDriver(tmp_path, sbatch_template=template)
        script = driver.render(2)
        assert script.startswith("#SBATCH -p gpu")
        assert "--array=0-1" in script

    def test_render_rejects_unknown_placeholders(self, tmp_path):
        template = tmp_path / "job.sh"
        template.write_text("$worker_cmd $nonsense\n")
        with pytest.raises(ConfigError, match="placeholder"):
            SlurmDriver(tmp_path, sbatch_template=template).render(1)

    def test_submit_parses_the_sbatch_job_id(self, tmp_path):
        calls = []

        def run(argv):
            calls.append(argv)
            return "991;cluster\n"

        driver = SlurmDriver(tmp_path, run=run)
        handles = driver.submit(3)
        assert [h.id for h in handles] == [
            "slurm-991_0",
            "slurm-991_1",
            "slurm-991_2",
        ]
        assert calls[0][:2] == ["sbatch", "--parsable"]
        script = tmp_path / "fleet" / "sbatch-001.sh"
        assert script.exists() and "--array=0-2" in script.read_text()

    def test_live_tasks_handles_compact_pending_arrays(self):
        out = "991_0 RUNNING\n991_[2-4%2] PENDING\n991_7 COMPLETING\n"
        assert SlurmDriver._live_tasks(out) == {0, 2, 3, 4, 7}

    def test_poll_and_stop_round_trip(self, tmp_path):
        calls = []

        def run(argv):
            calls.append(argv)
            if argv[0] == "squeue":
                return "991_0 RUNNING\n"
            return "991\n"

        driver = SlurmDriver(tmp_path, run=run)
        handles = driver.submit(2)
        states = driver.poll(handles)
        assert states == {"slurm-991_0": RUNNING, "slurm-991_1": EXITED}
        driver.stop([handles[0]])
        assert calls[-1] == ["scancel", "991_0"]

    def test_poll_reports_unknown_when_squeue_fails(self, tmp_path):
        def run(argv):
            if argv[0] == "squeue":
                raise ConfigError("squeue: command not found")
            return "991\n"

        driver = SlurmDriver(tmp_path, run=run)
        handles = driver.submit(1)
        assert driver.poll(handles) == {"slurm-991_0": UNKNOWN}


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
            driver_options={"worker_args": ["--poll", "0.05"]},
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
        assert "fleet up: 1 local worker(s)" in capsys.readouterr().out
        assert cli_main(["fleet", "status", "--work-dir", work]) == 0
        out = capsys.readouterr().out
        assert "driver    : local" in out
        assert "1/1 running" in out
        assert "throughput:" not in out  # nothing executed yet
        # Completions recorded by workers surface as per-worker rates.
        queue = WorkQueue(work)
        queue.record_completion("w:1", points=2)
        queue.record_completion("w:1", points=2)
        assert cli_main(["fleet", "status", "--work-dir", work]) == 0
        out = capsys.readouterr().out
        assert "throughput:" in out
        assert "w:1: 2 unit(s), 4 point(s), 0 failure(s)" in out
        assert "units/min" in out
        assert cli_main(["fleet", "down", "--work-dir", work]) == 0
        assert "drained 1 worker(s)" in capsys.readouterr().out
        assert cli_main(["fleet", "status", "--work-dir", work]) == 2

    def test_driver_flags_are_validated(self, tmp_path, capsys):
        rc = cli_main(
            [
                "fleet",
                "up",
                "--work-dir",
                str(tmp_path),
                "--driver",
                "local",
                "--hosts",
                "hosts.txt",
            ]
        )
        assert rc == 2
        assert "--hosts only applies" in capsys.readouterr().err

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
