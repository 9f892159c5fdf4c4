"""Tests of the host-speed normalisation.

Run: ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import hostspeed  # noqa: E402

REF = hostspeed.REFERENCE_KERNEL_S


def samples(start: float, end: float, kernel_s: float, idle: float = 0.0, step: float = 0.02):
    """Evenly spaced samples; ``idle`` is the CPU's idle share."""
    count = round((end - start) / step)
    return [(start + i * step, kernel_s, idle * (start + i * step)) for i in range(count + 1)]


def test_reference_speed_leaves_wall_time():
    assert hostspeed.normalise((10.0, 12.0), samples(9.0, 13.0, REF)) == pytest.approx(2.0)


def test_slow_host_is_scaled_back():
    # The kernel takes 1.6x its reference time: the interval ran 1.6x slow.
    got = hostspeed.normalise((10.0, 13.2), samples(9.0, 14.0, 1.6 * REF))
    assert got == pytest.approx(2.0)


def test_idle_time_is_not_scaled():
    # Half the interval nothing ran; the busy half ran 2x slow.
    got = hostspeed.normalise((10.0, 14.0), samples(9.0, 15.0, 2 * REF, idle=0.5))
    assert got == pytest.approx(2.0 + 1.0)


def test_only_samples_inside_a_long_interval_count():
    fast_then_slow = samples(0.0, 5.0, REF) + samples(5.02, 10.0, 2 * REF)
    assert hostspeed.normalise((0.0, 4.0), fast_then_slow) == pytest.approx(4.0)


def test_short_interval_uses_a_window_around_it():
    got = hostspeed.normalise((5.0, 5.01), samples(4.0, 6.0, 2 * REF, step=0.1))
    assert got == pytest.approx(0.005)


def test_too_few_samples_is_an_error():
    with pytest.raises(RuntimeError):
        hostspeed.normalise((5.0, 6.0), samples(10.0, 11.0, REF))


def test_idle_seconds_reads_this_cpu():
    row = f"cpu{min(os.sched_getaffinity(0))}"
    assert 0.0 <= hostspeed.idle_seconds(row) <= hostspeed.idle_seconds(row)


def test_kernel_is_deterministic():
    assert hostspeed.kernel() == hostspeed.kernel()
