"""The committed performance trajectory: measure, append, gate.

``BENCH_trajectory.json`` records one end-to-end wall time per landed
PR that touched simulator performance: the **cold scale-0.1 paper
figures plan** (every figure's sweep, 279 points) executed serially
against a fresh result cache. One number, one workload mix, measured
the same way every time — so the file reads as the repo's speed history
and a regression shows up as the first non-monotone step.

Timing discipline: the plan is run ``--repeat`` times, each against its
own fresh temporary cache directory and with the process's program memo
cleared, so every run builds its workloads cold; the **minimum** is
recorded.
On shared machines (CI runners, build VMs) the minimum estimates the
noise-free cost; means and medians drift with scheduler interference.
Single runs on such machines vary by tens of percent — never trust one.

Usage::

    python benchmarks/trajectory.py measure             # print one record
    python benchmarks/trajectory.py append --label pr7-foo
    python benchmarks/trajectory.py check               # gate vs last entry

``measure`` prints the measurement as JSON without touching the file.
A record holds the plan's ``points`` and the ones it ``simulated``
(the sweep's ``submitted`` count; the rest are derived from their
``with_base`` twin), so an entry records the work as well as the time.
``check`` gates on time only.
``append`` measures and appends an entry (commit the file with the PR
that changed performance). ``check`` is the CI gate: measure, compare
against the file's last committed entry, and fail only on a *gross*
regression (default 2x and +5s — generous because CI machines are not
the machines the entries were recorded on). Records resting on a
single cold run draw a warning — min-of-1 is not a minimum.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

TRAJECTORY_PATH = Path(__file__).parent / "BENCH_trajectory.json"
DEFAULT_SCALE = 0.1
DEFAULT_REPEAT = 2


def run_figures_plan_once(scale: float) -> tuple[float, int, int]:
    """One cold serial run of the figures plan.

    Returns (wall seconds, points, points simulated): a point whose
    ``with_base`` twin is in the plan is derived, not simulated, so the
    last two differ, and a change in that count is a change in work.
    """
    from repro.analysis.paperfigs import figures_plan
    from repro.runner import pool
    from repro.session import Session

    # Cold means every program build too: an earlier run in this process
    # would otherwise serve them all from the workload memo.
    pool._workload_for.cache_clear()
    plan = figures_plan(scale=scale)
    with tempfile.TemporaryDirectory(prefix="repro-trajectory-") as cache_dir:
        with Session(jobs=1, cache_dir=cache_dir, progress=False) as session:
            start = time.perf_counter()
            session.sweep(plan)
            wall = time.perf_counter() - start
            simulated = session.submitted
    return wall, len(plan.specs), simulated


def measure(scale: float = DEFAULT_SCALE, repeat: int = DEFAULT_REPEAT) -> dict:
    """Min-of-``repeat`` cold figures-plan wall time as a record dict."""
    runs = []
    points = simulated = 0
    for _ in range(max(1, repeat)):
        wall, points, simulated = run_figures_plan_once(scale)
        runs.append(round(wall, 3))
    return {
        "figures_wall_s": min(runs),
        "runs": runs,
        "points": points,
        "simulated": simulated,
        "scale": scale,
    }


def warn_single_run(record: dict, origin: str) -> None:
    """Nag when a record rests on one cold run — min-of-1 is not a min."""
    if len(record.get("runs", ())) == 1:
        print(
            f"::warning::{origin} has a single cold run; one run on a "
            "shared machine varies by tens of percent — re-measure with "
            "--repeat >= 2 before trusting or committing it"
        )


def load_trajectory() -> dict:
    with open(TRAJECTORY_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def save_trajectory(document: dict) -> None:
    TRAJECTORY_PATH.write_text(
        json.dumps(document, indent=2) + "\n", encoding="utf-8"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "command", choices=("measure", "append", "check"), help="see module docstring"
    )
    parser.add_argument("--scale", type=float, default=DEFAULT_SCALE)
    parser.add_argument(
        "--repeat",
        type=int,
        default=DEFAULT_REPEAT,
        help=f"cold runs; the minimum is recorded (default {DEFAULT_REPEAT})",
    )
    parser.add_argument(
        "--label",
        default=None,
        help="entry label for 'append' (e.g. pr7-batched-dram)",
    )
    parser.add_argument(
        "--note", default="", help="one-line what-changed note for 'append'"
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=2.0,
        help="'check' fails when wall > last * threshold (default 2.0)",
    )
    parser.add_argument(
        "--slack",
        type=float,
        default=5.0,
        help="and wall > last + slack seconds (default 5.0; CI machines "
        "are slower and noisier than the recording machines)",
    )
    args = parser.parse_args(argv)

    record = measure(scale=args.scale, repeat=args.repeat)
    print(json.dumps(record, indent=1))
    warn_single_run(record, "this measurement")

    if args.command == "measure":
        return 0

    if args.command == "append":
        if not args.label:
            parser.error("append needs --label")
        document = load_trajectory()
        entry = {"label": args.label, **record}
        if args.note:
            entry["note"] = args.note
        document["entries"].append(entry)
        save_trajectory(document)
        print(f"appended '{args.label}' to {TRAJECTORY_PATH}")
        return 0

    # check: gate against the last committed entry, generously.
    last = load_trajectory()["entries"][-1]
    warn_single_run(last, f"last committed entry '{last['label']}'")
    bound = max(
        last["figures_wall_s"] * args.threshold,
        last["figures_wall_s"] + args.slack,
    )
    wall = record["figures_wall_s"]
    print(
        f"figures plan: {wall:.2f}s vs last committed "
        f"'{last['label']}' {last['figures_wall_s']:.2f}s "
        f"(bound {bound:.2f}s)"
    )
    if wall > bound:
        print(
            "::error::gross figures-plan slowdown vs the committed "
            "trajectory; if intentional, append a new entry with "
            "`python benchmarks/trajectory.py append --label ...` and "
            "explain in the PR"
        )
        return 1
    print("within bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
