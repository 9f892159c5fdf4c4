"""The committed performance record: perfbench runs, appended and gated.

``BENCH_trajectory.json`` is the repository's speed history. An entry
with a ``perfbench`` key is one perfbench record: the final JSON line of
``perfbench/run.py --workload all --seed 1`` run once with ``--trace 0``
(the end-to-end metrics) and once with ``--trace 1`` (the per-layer
metrics, work counters included), plus the label, note, commit, seed and
seconds that produced them. The entries before the first such record,
single figures-plan wall times, are kept as history; nothing reads them.

Usage (from the repository root)::

    python3 benchmarks/trajectory.py append --label faster-cache --note "..."
    python3 benchmarks/trajectory.py check

``append`` runs both passes at ``BENCHMARK.json``'s ``run_seconds`` and
appends the record; commit the file with the change it measures.
``check`` runs both passes at one second each and gates them against the
last entry. It fails when either run is not ``correct`` or has failed
operations, when a per-layer metric whose unit is ``count`` differs from
the record (the work changed: append a new record and say why in its
note), or when a workload's ``wall_s`` exceeds max(2x the record, the
record + 5 s). The timing bound is generous because reference seconds
compare only on like hardware; the counts compare anywhere.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRAJECTORY_PATH = ROOT / "benchmarks" / "BENCH_trajectory.json"
SEED = 1
CHECK_SECONDS = 1
WALL_FACTOR = 2.0
WALL_SLACK_S = 5.0


class TrajectoryError(Exception):
    """A record or run that cannot be gated at all."""


def perfbench(trace: int, seconds: float) -> dict:
    """One perfbench run over every workload; its final JSON line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", "all"]
    cmd += ["--seed", str(SEED), "--seconds", f"{seconds:g}", "--trace", str(trace)]
    lines = []
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        for line in proc.stdout:
            print(line, end="", flush=True)
            lines.append(line)
    if proc.returncode != 0 or not lines:
        raise TrajectoryError(f"perfbench --trace {trace} exited {proc.returncode}")
    return json.loads(lines[-1])


def measure(seconds: float) -> dict:
    """Both passes: end-to-end metrics, then per-layer metrics."""
    return {"end_to_end": perfbench(0, seconds), "per_layer": perfbench(1, seconds)}


def gate(record: dict, runs: dict) -> list[str]:
    """Why ``runs`` fails against ``record``; empty when it passes."""
    failures = [
        f"{name} run: correct={run['correct']}, failed={run['failed']}"
        for name, run in runs.items()
        if run["correct"] is not True or run["failed"] > 0
    ]
    recorded = record["per_layer"]["metrics"]
    measured = runs["per_layer"]["metrics"]
    for key in sorted(recorded.keys() | measured.keys()):
        metric = recorded.get(key) or measured[key]
        was = recorded.get(key, {}).get("value")
        now = measured.get(key, {}).get("value")
        if metric["unit"] == "count" and now != was:
            failures.append(f"{key} = {now}, recorded {was}")
    timed = runs["end_to_end"]["metrics"]
    for key, metric in record["end_to_end"]["metrics"].items():
        if key.endswith(".wall_s"):
            bound = max(metric["value"] * WALL_FACTOR, metric["value"] + WALL_SLACK_S)
            now = timed.get(key, {}).get("value")
            if now is None or now > bound:
                failures.append(f"{key} = {now} s, bound {bound:.3f} s")
    return failures


def load() -> dict:
    return json.loads(TRAJECTORY_PATH.read_text(encoding="utf-8"))


def last_record(document: dict) -> tuple[str, dict]:
    """The last entry's label and perfbench record."""
    entries = document["entries"]
    last = entries[-1] if entries else {}
    if "perfbench" not in last:
        raise TrajectoryError(
            f"the last entry ({last.get('label', 'none')}) has no perfbench "
            "record; append one with 'trajectory.py append --label ...'"
        )
    return last["label"], last["perfbench"]


def commit() -> str | None:
    """The measured checkout's commit, ``-dirty`` with uncommitted changes."""
    proc = subprocess.run(
        ["git", "describe", "--always", "--dirty"],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    return proc.stdout.strip() or None


def append(label: str, note: str) -> int:
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    document = load()
    entry = {
        "label": label,
        "note": note,
        "commit": commit(),
        "seed": SEED,
        "seconds": seconds,
        "perfbench": measure(seconds),
    }
    document["entries"].append(entry)
    TRAJECTORY_PATH.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")
    print(f"appended '{label}' to {TRAJECTORY_PATH.name}")
    return 0


def check() -> int:
    label, record = last_record(load())
    failures = gate(record, measure(CHECK_SECONDS))
    for failure in failures:
        print(f"check failed: {failure}")
    if failures:
        print(
            f"against '{label}'; if the work changed on purpose, append a "
            "new record and say why in its note"
        )
        return 1
    print(f"matches '{label}': counts equal, wall_s within bound")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("command", choices=("append", "check"))
    parser.add_argument("--label", help="entry label for 'append'")
    parser.add_argument("--note", default="", help="what changed, for 'append'")
    args = parser.parse_args(argv)
    if args.command == "append" and not args.label:
        parser.error("append needs --label")
    try:
        return append(args.label, args.note) if args.command == "append" else check()
    except TrajectoryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
