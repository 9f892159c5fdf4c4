"""The repository benchmark: three workloads, end-to-end and per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload figures --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0

Workloads: ``figures`` (the cold scale-0.1 paper figures plan, then warm
passes over the filled cache), ``paper-scale`` (a 24-point uncached
scale-1.0 grid) and ``serve`` (``repro serve`` plus one queue worker,
driven by one closed-loop client). See ``perfbench/README.md``.

Each pass runs in a fresh interpreter (``child.py``); passes repeat
while another one fits in ``--seconds``. Every process of a run is
pinned to one CPU beside a host-speed sampler (``hostspeed.py``), and
timings are reported in reference seconds: the interval's idle time as
it was, its busy time scaled by the CPU's measured speed. Each timing is
a trimmed mean over the run's passes and repetitions; ``setup_s`` and
``peak_rss_mb`` are medians. With ``--trace 0`` the last stdout line
carries the end-to-end metrics; with ``--trace 1`` untraced and traced
passes alternate, a per-layer self-time table is printed, and the last
line carries the per-layer metrics. Any output mismatch counts as a
failed operation and makes ``correct`` false.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"
# Kept in step with workloads.WORKLOADS; this process never imports repro.
WORKLOADS = ("figures", "paper-scale", "serve")

#: Set-up samples per run: each untraced pass gives one, and set-up-only
#: children make up the rest.
SETUP_SAMPLES = 5
#: Passes every run makes, however short its --seconds.
MIN_PASSES = 2
CHILD_TIMEOUT_S = 150.0

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "warm_s": "s",
    "queue_b8_s": "s",
    "peak_rss_mb": "MiB",
}

#: Per-layer metric -> unit, in report order.
LAYER_UNITS = {
    "points": "count",
    "workloads.build_s": "s",
    "workloads.builds": "count",
    "sim.npu.self_s": "s",
    "sim.npu.runs": "count",
    "sim.memory.self_s": "s",
    "sim.memory.calls": "count",
    "sim.memory.demand_lines": "count",
    "sim.memory.l2_misses": "count",
    "sim.memory.nsb_hits": "count",
    "sim.ns_per_demand_line": "ns",
    "sim.cycles": "count",
    "sim.run_s.inorder": "s",
    "sim.run_s.stream": "s",
    "sim.run_s.nvr": "s",
    "prefetch.self_s": "s",
    "prefetch.port.self_s": "s",
    "prefetch.hook_calls": "count",
    "prefetch.issued": "count",
    "prefetch.useful_ratio": "ratio",
    "core.nvr.self_s": "s",
    "core.runahead_invocations": "count",
    "core.runahead_denied_busy": "count",
    "runner.self_s": "s",
    "runner.execute.self_s": "s",
    "runner.cache.get_s": "s",
    "runner.cache.put_s": "s",
    "runner.cache.hits": "count",
    "runner.queue.unit_s": "s",
    "runner.queue.exec_s": "s",
    "runner.queue.units": "count",
    "runner.queue.failed": "count",
    "server.submit_s": "s",
    "server.first_point_s": "s",
    "server.results_s": "s",
    "server.cached_at_submit": "count",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
}

#: Counters that must repeat exactly in every pass, traced or not.
DETERMINISTIC = (
    "points",
    "cycles",
    "l2_misses",
    "nsb_hits",
    "prefetch_issued",
    "prefetch_useful",
    "runahead_invocations",
    "runahead_denied_busy",
)


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def run_child(workload: str, seed: int, tmp: Path, trace: bool, setup_only: bool):
    """Start one child pass; returns (interval up to ``ready``, result doc)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_CACHE_DIR"] = str(tmp / "default-cache")
    cmd = [sys.executable, str(HERE / "child.py"), workload, "--seed", str(seed), "--tmp", str(tmp)]
    cmd += ["--reference", str(tmp.parent / "serve-reference.json")]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    start = time.monotonic()
    # Its own process group, so the child's daemon and worker can be
    # found (and, on any failure, killed) together with it.
    proc = subprocess.Popen(
        cmd, env=env, stdout=subprocess.PIPE, cwd=tmp, start_new_session=True
    )
    stragglers = False
    try:
        first = proc.stdout.readline()
        ready = (start, time.monotonic())
        rest, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        try:
            os.killpg(proc.pid, 0)
            stragglers = proc.returncode is not None
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if first.strip() != b"ready" or proc.returncode != 0:
        raise RuntimeError(f"{workload} pass failed (exit {proc.returncode})")
    if stragglers:
        raise RuntimeError(f"{workload} pass left processes running")
    if setup_only and workload != "serve":
        return ready, None
    return ready, json.loads(rest.decode().strip().splitlines()[-1])


def layer_metrics(doc: dict) -> dict:
    """Per-layer metrics of one traced pass."""
    self_ns: dict = {}
    calls: dict = {}
    inclusive: dict = {}
    worker_exec = 0
    for name, snap in doc["traces"]:
        for group, target in (("self_ns", self_ns), ("calls", calls), ("inclusive_ns", inclusive)):
            for key, value in snap[group].items():
                target[key] = target.get(key, 0) + value
        if name == "worker":
            worker_exec += snap["inclusive_ns"].get("runner.execute:execute_spec:all", 0)

    def s(layer):
        return self_ns.get(layer, 0) / 1e9

    def calls_with(prefix, method_prefix=""):
        return sum(
            value
            for key, value in calls.items()
            if key.startswith(prefix + ":") and key.count(":") == 1
            and key.split(":", 1)[1].startswith(method_prefix)
        )

    def labelled(key, group=inclusive):
        return sum(v for k, v in group.items() if k.startswith(key + ":"))

    counters = doc["counters"]
    demand_lines = calls.get("sim.memory:demand_line", 0)
    simulated_ns = labelled("sim.npu:run") - inclusive.get("sim.npu:run:base", 0)
    issued = counters["prefetch_issued"]
    client = dict(doc["traces"])["client"]
    unattributed = doc["timed_s"] - sum(client["self_ns"].values()) / 1e9
    return {
        "points": counters["points"],
        "workloads.build_s": s("workloads.build"),
        "workloads.builds": calls.get("workloads.build:build_workload", 0),
        "sim.npu.self_s": s("sim.npu"),
        "sim.npu.runs": calls.get("sim.npu:run", 0),
        "sim.memory.self_s": s("sim.memory"),
        "sim.memory.calls": calls_with("sim.memory"),
        "sim.memory.demand_lines": demand_lines,
        "sim.memory.l2_misses": counters["l2_misses"],
        "sim.memory.nsb_hits": counters["nsb_hits"],
        "sim.ns_per_demand_line": (
            simulated_ns / demand_lines if demand_lines else 0.0
        ),
        "sim.cycles": counters["cycles"],
        "sim.run_s.inorder": inclusive.get("sim.npu:run:inorder", 0) / 1e9,
        "sim.run_s.stream": inclusive.get("sim.npu:run:stream", 0) / 1e9,
        "sim.run_s.nvr": inclusive.get("sim.npu:run:nvr", 0) / 1e9,
        "prefetch.self_s": s("prefetch"),
        "prefetch.port.self_s": s("prefetch.port"),
        "prefetch.hook_calls": calls_with("prefetch", "on_"),
        "prefetch.issued": issued,
        "prefetch.useful_ratio": counters["prefetch_useful"] / issued if issued else 0.0,
        "core.nvr.self_s": s("core.nvr"),
        "core.runahead_invocations": counters["runahead_invocations"],
        "core.runahead_denied_busy": counters["runahead_denied_busy"],
        "runner.self_s": s("runner"),
        "runner.execute.self_s": s("runner.execute"),
        "runner.cache.get_s": s("runner.cache.get"),
        "runner.cache.put_s": s("runner.cache.put"),
        "runner.cache.hits": calls.get("runner.cache.get:get:hit", 0),
        "runner.queue.unit_s": labelled("runner.queue.unit:_process_unit") / 1e9,
        "runner.queue.exec_s": worker_exec / 1e9,
        "runner.queue.units": calls.get("runner.queue.unit:_process_unit", 0),
        "runner.queue.failed": calls.get("runner.queue.unit:_process_unit:failed", 0),
        "server.submit_s": doc.get("submit_s", 0.0),
        "server.first_point_s": doc.get("first_point_s") or 0.0,
        "server.results_s": doc.get("results_s", 0.0),
        "server.cached_at_submit": doc.get("cached_at_submit", 0),
        "trace.unattributed_s": unattributed,
    }


def central(values) -> float:
    """Trimmed mean: the mean without the highest and lowest tenth.

    A run has only a few cold passes, so every one of them counts; of
    the many warm repetitions, a stall or two is dropped.
    """
    values = sorted(values)
    cut = len(values) // 10
    return statistics.fmean(values[cut : len(values) - cut])


def intervals(docs, key: str) -> list:
    """Every timed interval of ``key`` over passes and their repetitions."""
    return [interval for doc in docs for interval in doc[key]]


def layer_table(doc: dict) -> str:
    """Self time per layer and process; the client rows sum to its wall."""
    lines = []
    for name, snap in doc["traces"]:
        rows = sorted(snap["self_ns"].items(), key=lambda kv: -kv[1])
        if name == "client":
            wall = doc["timed_s"]
            attributed = sum(v for _, v in rows) / 1e9
            lines.append(f"{name} process: traced wall {wall:.3f}s = layers + unattributed")
        else:
            lines.append(f"{name} process (runs beside the client; not in its sum)")
        for layer, ns in rows:
            lines.append(f"  {layer:<24} {ns / 1e9:10.4f} s")
        if name == "client":
            lines.append(f"  {'unattributed':<24} {wall - attributed:10.4f} s")
            lines.append(f"  {'total':<24} {wall:10.4f} s")
    return "\n".join(lines)


def measure(args, base: Path) -> dict:
    untraced: list = []
    traced: list = []
    setup: list = []
    n = 0

    def one_pass(trace: bool, setup_only: bool = False) -> dict | None:
        nonlocal n
        tmp = base / f"pass-{n}"
        n += 1
        tmp.mkdir()
        try:
            ready, doc = run_child(args.workload, args.seed, tmp, trace, setup_only)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        if not trace:
            setup.append(doc["setup_s"] if args.workload == "serve" else ready)
        return doc

    sampler = hostspeed.Sampler(base / "hostspeed.json")
    try:
        # Passes repeat while another one still fits in --seconds of wall
        # clock, so a run takes about as long on a slow host as on a fast one.
        start = time.monotonic()
        last = 0.0
        while len(untraced) < MIN_PASSES or time.monotonic() - start + last <= args.seconds:
            pass_start = time.monotonic()
            untraced.append(one_pass(False))
            if args.trace:
                traced.append(one_pass(True))
            last = time.monotonic() - pass_start
        if not args.trace:
            while len(setup) < SETUP_SAMPLES:
                one_pass(False, setup_only=True)
    finally:
        samples = sampler.stop()

    def reference_s(spans) -> list:
        return [hostspeed.normalise(interval, samples) for interval in spans]

    docs = untraced + traced
    attempted = sum(doc["attempted"] for doc in docs)
    failed = sum(doc["failed"] for doc in docs)
    expected = json.loads(DIGESTS.read_text())[args.workload]
    for doc in docs:
        if doc["digest"] != expected:
            print(f"perfbench: output digest {doc['digest']} != {expected}", file=sys.stderr)
            failed += doc["counters"]["points"]
    first = {key: docs[0]["counters"][key] for key in DETERMINISTIC}
    repeat = all(
        {key: doc["counters"][key] for key in DETERMINISTIC} == first for doc in docs
    )
    if not repeat:
        print("perfbench: deterministic counters differ between passes", file=sys.stderr)

    raw: dict = {}
    if args.trace:
        layers = [layer_metrics(doc) for doc in traced]
        values = {key: statistics.median(m[key] for m in layers) for key in LAYER_UNITS if key != "trace.overhead_s"}
        values["trace.overhead_s"] = central(
            reference_s(intervals(traced, "wall_s"))
        ) - central(reference_s(intervals(untraced, "wall_s")))
        for key in ("workloads.builds", "sim.npu.runs", "sim.memory.demand_lines"):
            if len({m[key] for m in layers}) > 1:
                repeat = False
                print(f"perfbench: traced counter {key} differs between passes", file=sys.stderr)
        print(layer_table(traced[-1]))
        units = LAYER_UNITS
    else:
        values = {"setup_s": statistics.median(reference_s(setup))}
        raw = {"setup_s": statistics.median(end - start for start, end in setup)}
        for key in ("wall_s", "warm_s", "queue_b8_s"):
            values[key] = central(reference_s(intervals(untraced, key)))
            raw[key] = central(end - start for start, end in intervals(untraced, key))
        values["peak_rss_mb"] = statistics.median(doc["peak_rss_mb"] for doc in untraced)
        units = E2E_UNITS
    for key, unit in units.items():
        value = values[key]
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        note = f" (wall clock {raw[key]:.6g} s)" if key in raw else ""
        print(f"{args.workload} {key} = {shown} {unit}{note}")
    print(f"{args.workload} passes = {len(untraced)} untraced, {len(traced)} traced")
    return {
        "correct": failed == 0 and repeat,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": values[key], "unit": unit} for key, unit in units.items()},
    }


def measure_all(args, base: Path) -> dict:
    """Every workload in turn; metric names get a ``<workload>.`` prefix."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        (base / name).mkdir()
        result = measure(argparse.Namespace(**{**vars(args), "workload": name}), base / name)
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    return combined


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an error, so every child process group is
    # killed and reaped on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "repro" / "__init__.py").is_file():
        return fail(f"no repro package under {SRC}; run from a full checkout")
    # One CPU for every process of the run, the host-speed sampler
    # included, so the sampler sees the speed the measured code gets.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    scratch = ROOT / ".perfbench-tmp"
    scratch.mkdir(exist_ok=True)
    base = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        result = (measure_all if args.workload == "all" else measure)(args, base)
    except (RuntimeError, OSError, subprocess.SubprocessError) as exc:
        return fail(str(exc))
    finally:
        shutil.rmtree(base, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
