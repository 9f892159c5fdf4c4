"""Sweep runner — cold vs warm plan execution.

The runner's value proposition, measured: a cold Fig. 5 panel plan pays
full simulation cost; the warm rerun must be served entirely from the
on-disk cache (zero executor submissions) and return bit-identical
results.
"""

import dataclasses

from conftest import BENCH_SCALE, run_once

from repro.runner import ResultCache, SweepRunner
from repro.session import Grid


def _plan():
    return Grid(
        workload=["ds", "st"],
        mechanism=["inorder", "ooo", "stream", "imp", "dvr", "nvr"],
        scale=BENCH_SCALE,
        with_base=True,
    ).specs()


def test_bench_runner_cold(benchmark, tmp_path):
    runner = SweepRunner(cache=ResultCache(tmp_path))
    results = run_once(benchmark, runner.run_plan, _plan())
    assert runner.submitted == len(_plan())
    assert all(r.total_cycles > 0 for r in results)


def test_bench_runner_warm(benchmark, tmp_path):
    cold = SweepRunner(cache=ResultCache(tmp_path))
    cold_results = cold.run_plan(_plan())

    warm = SweepRunner(cache=ResultCache(tmp_path))
    warm_results = run_once(benchmark, warm.run_plan, _plan())
    assert warm.submitted == 0
    assert warm.cache_hits == len(_plan())
    assert [dataclasses.asdict(r) for r in warm_results] == [
        dataclasses.asdict(r) for r in cold_results
    ]
