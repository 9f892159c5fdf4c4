"""Golden result payloads: simulator outputs pinned to committed bytes.

Every registered mechanism (all of ``MECHANISMS``, ``preload`` included)
runs on four workloads with the NSB off and on, at scale 0.05 with the
perfect-memory base pass. Each point's
:func:`~repro.runner.pool.execute_spec` payload, in canonical JSON, must
equal the one committed in ``golden_payloads.json``.

These are the simulator's oracle: a change that moves any result fails
here, whichever hierarchy walk it touched. A failure names every
differing point and, within it, every differing field.

The same grid without the base pass must equal each golden with its
two base fields cleared (:func:`~repro.runner.cache.without_base`):
the sweep runner derives such points from their ``with_base`` twin
instead of simulating them.

An intentional model change regenerates the file with
``PYTHONPATH=src python tests/test_golden_payloads.py regen`` and says
so in its PR description.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.registry import MECHANISMS
from repro.runner import RunSpec, execute_spec
from repro.runner.cache import without_base

GOLDEN_PATH = Path(__file__).parent / "golden_payloads.json"

WORKLOADS = ("gcn", "mk", "ds", "st")
SCALE = 0.05


def _points(with_base: bool = True) -> dict[str, RunSpec]:
    """Golden grid: point name -> spec, in a fixed order."""
    return {
        f"{mechanism}/{workload}/nsb={'T' if nsb else 'F'}": RunSpec(
            workload, mechanism=mechanism, nsb=nsb, scale=SCALE, with_base=with_base
        )
        for mechanism in MECHANISMS.names()
        for workload in WORKLOADS
        for nsb in (False, True)
    }


def _canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, allow_nan=False)


def current_payloads() -> dict:
    """Canonical payload of every golden point, as plain JSON data."""
    return {
        name: json.loads(_canonical(execute_spec(spec)))
        for name, spec in _points().items()
    }


def _leaves(obj, path: str = ""):
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _leaves(value, f"{path}.{key}" if path else key)
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _leaves(value, f"{path}[{i}]")
    else:
        yield path, _canonical(obj)


def differing_fields(want, got) -> list[str]:
    """Dotted paths of every leaf that differs (or exists on one side only)."""
    a, b = dict(_leaves(want)), dict(_leaves(got))
    return sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))


class TestGoldenPayloads:
    def test_grid_covers_every_mechanism(self):
        goldens = json.loads(GOLDEN_PATH.read_text())
        assert sorted(goldens) == sorted(_points()), (
            "the golden grid changed (a mechanism was added or removed?): "
            "regenerate with `PYTHONPATH=src python "
            "tests/test_golden_payloads.py regen`"
        )

    def test_payloads_match_goldens(self):
        goldens = json.loads(GOLDEN_PATH.read_text())
        current = current_payloads()
        problems = []
        for name in goldens.keys() | current.keys():
            want, got = goldens.get(name), current.get(name)
            if _canonical(want) != _canonical(got):
                fields = differing_fields(want, got)
                problems.append(f"{name}: {', '.join(fields)}")
        assert not problems, (
            f"{len(problems)} golden payload(s) differ:\n  "
            + "\n  ".join(sorted(problems))
            + "\nIf the model change is intentional, regenerate with "
            "`PYTHONPATH=src python tests/test_golden_payloads.py regen` "
            "and call it out in the PR description."
        )

    def test_no_base_points_are_projections_of_the_goldens(self):
        # The sweep runner derives every with_base=False sim point from
        # its with_base=True twin instead of simulating it. That holds
        # only while the base pass sets nothing but base_cycles and
        # stall_cycles; this fails the day another field depends on it.
        goldens = json.loads(GOLDEN_PATH.read_text())
        problems = []
        for name, spec in _points(with_base=False).items():
            want = without_base(goldens[name])
            got = json.loads(_canonical(execute_spec(spec)))
            if _canonical(want) != _canonical(got):
                fields = differing_fields(want, got)
                problems.append(f"{name}: {', '.join(fields)}")
        assert not problems, (
            f"{len(problems)} point(s) without base cycles differ from "
            "their projected with_base golden:\n  " + "\n  ".join(sorted(problems))
        )


if __name__ == "__main__":
    import sys

    if len(sys.argv) > 1 and sys.argv[1] == "regen":
        payloads = current_payloads()
        GOLDEN_PATH.write_text(
            json.dumps(payloads, indent=1, sort_keys=True, allow_nan=False) + "\n"
        )
        print(f"wrote {GOLDEN_PATH} ({len(payloads)} points)")
