"""Fleet-layer overhead — herder ticks and cache push/pull throughput.

Neither path simulates anything, so both times are pure fleet-layer
cost. The herder tick is the half-second heartbeat of every
``fleet run``: a poll over the worker set plus a queue scan — if a
regression makes it scale with fleet size pathologically or hit the
filesystem per worker, a long sweep burns its budget on supervision.
Cache sync is the push/pull path fleets on separate filesystems use to
share warmth; its cost per (small) entry is the figure of merit.
"""

from conftest import run_once

from repro.runner import (
    Fleet,
    ResultCache,
    RunSpec,
    WorkerHandle,
    pull_cache,
    push_cache,
)
from repro.runner.fleet import RUNNING

FLEET_SIZE = 64
SYNC_ENTRIES = 200


class StaticDriver:
    """A driver whose workers never die — isolates pure tick overhead."""

    def __init__(self):
        self._seq = 0

    def config(self) -> dict:
        return {}

    def submit(self, count):
        handles = []
        for _ in range(count):
            self._seq += 1
            handles.append(WorkerHandle(f"static-{self._seq}", {}))
        return handles

    def poll(self, handles):
        return {handle.id: RUNNING for handle in handles}

    def stop(self, handles):
        pass


def test_bench_herder_tick(benchmark, tmp_path):
    fleet = Fleet(tmp_path, StaticDriver())
    fleet.up(FLEET_SIZE)

    def ticks() -> int:
        for _ in range(10):
            status = fleet.tick()
        return status.running

    # No worker dies, so every tick is the steady state: poll +
    # deep-less queue scan + state save over the whole fleet.
    assert run_once(benchmark, ticks) == FLEET_SIZE
    fleet.down(drain_timeout=0.0)


def test_bench_cache_push_pull(benchmark, tmp_path):
    source = ResultCache(tmp_path / "source")
    for seed in range(SYNC_ENTRIES):
        spec = RunSpec("st", scale=0.05, seed=seed)
        source.put(spec, {"total_cycles": seed + 1, "stall_cycles": 0})

    def sync() -> tuple[int, int]:
        pushed = push_cache(source, str(tmp_path / "remote"))
        pulled = pull_cache(
            ResultCache(tmp_path / "dest"), str(tmp_path / "remote")
        )
        return pushed.copied, pulled.copied

    # One cold round trip: every entry copied out, then verified in.
    copied_out, copied_in = run_once(benchmark, sync)
    assert copied_out == SYNC_ENTRIES
    assert copied_in == SYNC_ENTRIES

