"""Twin derivation: a point without base cycles is never simulated twice.

A sim point's *twin* is the same spec with the other ``with_base``
value. ``System.run_with_base`` is ``run()`` plus an all-hit replay that
sets only ``result.base_cycles`` and ``stats.stall_cycles``, so
:class:`~repro.runner.SweepRunner` derives a ``with_base=False`` point
from its twin's payload (:func:`~repro.runner.cache.without_base`)
whenever the twin is pending in the same plan, already computed, or in
the cache. The acceptance properties:

* every derived payload equals, in canonical JSON, what simulating the
  point returns — on every backend;
* only the twins reach the backend, and a later plan whose twins are
  cached simulates nothing;
* progress reaches the unique count, and the counters say which points
  were simulated and which derived;
* trace points are never derived.
"""

import json
import threading

import pytest

from repro.errors import SimulationError
from repro.runner import (
    LocalPoolBackend,
    QueueBackend,
    ResultCache,
    RunSpec,
    SweepRunner,
    execute_spec,
    result_to_payload,
    run_queue_worker,
    trace_to_payload,
)
from repro.runner.cache import without_base
from repro.session import Grid, Session

SCALE = 0.05


def twin_grid() -> Grid:
    """Two mechanisms, each with and without base cycles: two twin pairs."""
    return Grid(
        workload="st",
        mechanism=("stream", "nvr"),
        with_base=(False, True),
        scale=SCALE,
    )


def canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, allow_nan=False)


def payload_of(spec, result) -> dict:
    if spec.kind == "trace":
        return trace_to_payload(result)
    return result_to_payload(result)


class RecordingBackend:
    """Wraps a backend and records every point handed to it."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.jobs = getattr(inner, "jobs", 1)
        self.seen: list[RunSpec] = []

    def run(self, pending):
        self.seen.extend(spec for _, spec in pending)
        yield from self.inner.run(pending)

    def close(self) -> None:
        self.inner.close()


class RecordingProgress:
    def __init__(self) -> None:
        self.points = []
        self.finished = None

    def plan_started(self, total, unique, cached):
        pass

    def point_done(self, label, source, done, total):
        self.points.append((source, done, total))

    def plan_finished(self, submitted, hits, elapsed):
        self.finished = (submitted, hits)

    def plan_failed(self, done, total, elapsed):
        pass


def assert_simulated_payloads(rs) -> None:
    """Every result equals a fresh simulation of its spec, byte for byte."""
    for spec, result in rs:
        assert canonical(payload_of(spec, result)) == canonical(execute_spec(spec))


class TestWithoutBase:
    def test_clears_only_the_base_fields(self):
        spec = RunSpec("st", mechanism="nvr", scale=SCALE, with_base=True)
        payload = execute_spec(spec)
        before = canonical(payload)
        derived = without_base(payload)
        assert canonical(payload) == before  # the input is untouched
        assert payload["result"]["base_cycles"] is not None
        assert derived["result"]["base_cycles"] is None
        assert derived["stats"]["stall_cycles"] == 0
        twin = RunSpec("st", mechanism="nvr", scale=SCALE)
        assert canonical(derived) == canonical(execute_spec(twin))


class TestTwinsInOnePlan:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_local_backend_simulates_only_the_twins(self, tmp_path, jobs):
        backend = RecordingBackend(LocalPoolBackend(jobs=jobs))
        with Session(cache_dir=tmp_path, backend=backend) as session:
            rs = session.sweep(twin_grid())
            report = session.last_report
        assert (report.unique, report.submitted, report.derived) == (4, 2, 2)
        assert report.cache_hits == 0
        assert (session.submitted, session.derived) == (2, 2)
        assert all(spec.with_base for spec in backend.seen)
        assert len(backend.seen) == 2
        assert_simulated_payloads(rs)

    def test_uncached_session_derives_too(self):
        with Session(cache=False) as session:
            rs = session.sweep(twin_grid())
            assert (session.submitted, session.derived) == (2, 2)
        assert_simulated_payloads(rs)

    def test_queue_backend_receives_only_the_twins(self, tmp_path):
        work = tmp_path / "work"
        backend = RecordingBackend(QueueBackend(work, poll=0.02, timeout=30))
        worker = threading.Thread(
            target=run_queue_worker,
            args=(work,),
            kwargs={"poll": 0.02, "idle_timeout": 20, "max_units": 2},
            daemon=True,
        )
        worker.start()
        with Session(cache_dir=tmp_path / "cache", backend=backend) as session:
            rs = session.sweep(twin_grid())
            report = session.last_report
        worker.join(timeout=30)
        assert (report.submitted, report.derived) == (2, 2)
        assert [spec.with_base for spec in backend.seen] == [True, True]
        assert not list((work / "queue").glob("*.json"))
        assert_simulated_payloads(rs)
        # Derived points land in the cache like simulated ones.
        assert len(ResultCache(tmp_path / "cache")) == 4

    def test_progress_reaches_the_unique_count(self):
        progress = RecordingProgress()
        runner = SweepRunner(progress=progress)
        runner.run_plan(twin_grid().specs())
        sources = [source for source, _, _ in progress.points]
        assert sorted(sources) == ["derived", "derived", "run", "run"]
        assert [done for _, done, _ in progress.points] == [1, 2, 3, 4]
        assert {total for _, _, total in progress.points} == {4}
        assert progress.finished == (2, 0)


class TestTwinsAcrossPlans:
    def test_cached_twins_leave_nothing_to_simulate(self, tmp_path):
        grid = dict(workload="st", mechanism=("stream", "nvr"), scale=SCALE)
        with Session(cache_dir=tmp_path) as session:
            session.sweep(Grid(**grid, with_base=True))
            assert session.last_report.submitted == 2
            rs = session.sweep(Grid(**grid, with_base=False))
            report = session.last_report
        assert (report.submitted, report.derived, report.cache_hits) == (0, 2, 0)
        assert_simulated_payloads(rs)
        # The derived entries are ordinary cache entries: a rerun is warm.
        with Session(cache_dir=tmp_path) as again:
            again.sweep(Grid(**grid, with_base=False))
            assert again.last_report.cache_hits == 2
            assert (again.submitted, again.derived) == (0, 0)

    def test_no_base_point_alone_is_simulated(self, tmp_path):
        with Session(cache_dir=tmp_path) as session:
            session.sweep(RunSpec("st", mechanism="nvr", scale=SCALE))
            assert (session.submitted, session.derived) == (1, 0)

    def test_with_base_point_is_never_derived_from_a_no_base_twin(self, tmp_path):
        spec = dict(workload="st", mechanism="nvr", scale=SCALE)
        with Session(cache_dir=tmp_path) as session:
            session.sweep(RunSpec(**spec))
            session.sweep(RunSpec(**spec, with_base=True))
            assert (session.submitted, session.derived) == (2, 0)


class TestTracePoints:
    def test_trace_points_are_never_derived(self, tmp_path):
        trace = dict(workload="st", scale=SCALE, kind="trace")
        with Session(cache_dir=tmp_path) as session:
            rs = session.sweep(
                [RunSpec(**trace, with_base=False), RunSpec(**trace, with_base=True)]
            )
            assert (session.submitted, session.derived) == (2, 0)
            # A cached with_base trace twin is not a source either.
            session.sweep(RunSpec(**trace, with_base=True, seed=1))
            session.sweep(RunSpec(**trace, with_base=False, seed=1))
            assert (session.submitted, session.derived) == (4, 0)
        assert_simulated_payloads(rs)


class FailingAfterFirst:
    """Yields the first point, then dies like a crashed backend."""

    jobs = 1

    def run(self, pending):
        key, spec = pending[0]
        yield key, spec, execute_spec(spec)
        raise SimulationError("backend died mid-plan")

    def close(self) -> None:
        pass


class TestFailedPlan:
    def test_twin_that_landed_still_yields_its_derived_point(self, tmp_path):
        cache = ResultCache(tmp_path)
        runner = SweepRunner(cache=cache, backend=FailingAfterFirst())
        with pytest.raises(SimulationError, match="mid-plan"):
            runner.run_plan(twin_grid().specs())
        report = runner.last_report
        assert (report.submitted, report.derived) == (1, 1)
        assert (runner.submitted, runner.derived) == (1, 1)
        assert len(cache) == 2
