"""Golden result payloads: simulator outputs pinned to committed bytes.

Every registered mechanism (all of ``MECHANISMS``, ``preload`` included)
runs on four workloads with the NSB off and on, at scale 0.05 with the
perfect-memory base pass, on the default kernel. Each point's
:func:`~repro.runner.pool.execute_spec` payload, in canonical JSON, must
equal the one committed in ``golden_payloads.json``.

The engine-equivalence tests compare one kernel against another, so a
change that moves every kernel the same way passes them. This file
compares against fixed expected outputs instead. A failure names every
differing point and, within it, every differing field.

An intentional model change regenerates the file with
``PYTHONPATH=src python tests/test_golden_payloads.py regen`` and says
so in its PR description.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.registry import MECHANISMS
from repro.runner import RunSpec, execute_spec

GOLDEN_PATH = Path(__file__).parent / "golden_payloads.json"

WORKLOADS = ("gcn", "mk", "ds", "st")
SCALE = 0.05


def _points() -> dict[str, RunSpec]:
    """Golden grid: point name -> spec, in a fixed order."""
    return {
        f"{mechanism}/{workload}/nsb={'T' if nsb else 'F'}": RunSpec(
            workload, mechanism=mechanism, nsb=nsb, scale=SCALE, with_base=True
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


if __name__ == "__main__":
    import sys

    if len(sys.argv) > 1 and sys.argv[1] == "regen":
        payloads = current_payloads()
        GOLDEN_PATH.write_text(
            json.dumps(payloads, indent=1, sort_keys=True, allow_nan=False) + "\n"
        )
        print(f"wrote {GOLDEN_PATH} ({len(payloads)} points)")
