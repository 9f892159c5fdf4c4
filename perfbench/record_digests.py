"""Record the output digest of every workload into ``digests.json``.

Usage (from the repository root)::

    PYTHONPATH=src python perfbench/record_digests.py

Each workload's points are swept inline and uncached, and the digest of
their canonical payloads is stored under the workload's name. The
benchmark seed only permutes submission order, so one digest covers
every seed. ``run.py`` fails any pass whose digest differs. Re-record
only when a change is meant to alter simulated results.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from repro.session import Session  # noqa: E402

import workloads  # noqa: E402


def main() -> int:
    document = {}
    for name in workloads.WORKLOADS:
        specs = workloads.specs_for(name, 0)
        with Session(jobs=1, cache=False, progress=False) as session:
            rs = session.sweep(specs)
        digest = workloads.plan_digest(workloads.point_digests(*zip(*rs)))
        document[name] = digest
        print(f"{name}: {digest}")
    (HERE / "digests.json").write_text(
        json.dumps(document, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
