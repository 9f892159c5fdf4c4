"""Command-line interface.

Usage::

    python -m repro run ds --mechanism nvr --dtype fp16 --scale 0.5
    python -m repro compare gcn --nsb --jobs 4
    python -m repro sweep --workloads ds,gcn --mechanisms inorder,nvr
    python -m repro sweep --spec plan.json --jobs 4
    python -m repro ablate nvr-depth --workloads ds,gcn --jobs 4
    python -m repro profile --workloads gcn,mk --mechanisms inorder,nvr
    python -m repro workloads
    python -m repro overhead
    python -m repro figures --scale 0.6 --jobs 4 -o EXPERIMENTS.md
    python -m repro plan export --figures --scale 0.1 --out plan.json
    python -m repro queue worker --work-dir work/ &
    python -m repro sweep --backend queue --work-dir work/ --workloads ds
    python -m repro queue status --work-dir work/ [--json]
    python -m repro serve --work work/ --port 8080
    python -m repro fleet run -n 4 --scale 0.25 -o EXP.md
    python -m repro fleet up --work-dir work/ -n 8
    python -m repro fleet status --work-dir work/
    python -m repro fleet down --work-dir work/
    python -m repro cache
    python -m repro cache gc --max-mb 64 --dry-run
    python -m repro cache gc --max-mb 16 --tenant alice
    python -m repro cache clear
    python -m repro cache push --remote /mnt/shared/repro-cache
    python -m repro cache pull --remote rsync://host/module/repro-cache

Every executing subcommand (``run``, ``compare``, ``sweep``, ``ablate``,
``figures``) shares one parent parser of session flags —
``--jobs/--backend/--work-dir/--no-cache/--cache-dir`` — and builds one
:class:`~repro.session.Session` from them: ``--jobs N`` fans plans out
over N worker processes and every result (single ``run`` points
included) is memoised in the on-disk cache (``.repro-cache/`` or
``$REPRO_CACHE_DIR``; disable with ``--no-cache``), so repeated and
overlapping invocations only simulate new points. ``plan export`` writes
a sweep's points as a wire-format plan file that ``sweep --spec``
executes anywhere. ``--backend queue`` runs the missing points
off-process: they become claimable unit files under ``--work-dir`` and
any number of ``repro queue worker`` processes *pull* them, heartbeating
a lease so crashed workers' units are re-enqueued automatically; ``queue
status`` inspects a work directory and ``touch <work-dir>/stop`` drains
the workers. ``fleet`` owns the *lifecycle* of local workers: ``fleet
up`` starts N ``queue worker`` subprocesses on this machine, ``fleet
status``/``down`` inspect and drain them from any process sharing the
work directory, and ``fleet run`` is the one-command path — raise a
herded (restart-on-death) fleet, drain a figures or plan sweep through
it, tear it down. ``cache gc`` bounds the cache's size with
least-recently-accessed eviction, and ``cache push``/``pull --remote``
sync entries with a shared directory or rsync tier so fleets on
different filesystems share warmth (pulls are salt/spec-verified,
exactly like cache reads) — machines that share nothing export their
slice of a plan, ``sweep --spec`` it, and ``cache push`` the results
for the submitter to ``cache pull``.
``serve`` turns the same machinery into a long-lived daemon: sweeps
arrive over HTTP (``POST /v1/sweeps``), dedupe point-by-point against
the cache, and only the misses hit the queue — see
:mod:`repro.server` and ``docs/server.md``. An ``X-Repro-Tenant``
header selects an isolated per-tenant cache namespace, which ``cache
gc/clear --tenant`` manage individually.

``sweep`` expands its axis flags through a declarative
:class:`~repro.session.Grid` and dumps its ``--json`` payload from the
:class:`~repro.resultset.ResultSet` record format.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

from .analysis import format_table, table1_overhead, table2_workloads
from .analysis.experiments import ABLATION_WORKLOADS, ABLATIONS
from .analysis.paperfigs import figures_plan, generate_report
from .analysis.profile import profile_grid, profile_json
from .api import DTYPE_BYTES, MECHANISM_ORDER, compare_mechanisms
from .check import cli as check_cli
from .errors import ConfigError, ReproError
from .runner import (
    Fleet,
    LocalDriver,
    Plan,
    ResultCache,
    WorkQueue,
    pull_cache,
    push_cache,
    result_to_payload,
    run_queue_worker,
    trace_to_payload,
    units_per_minute,
)
from .runner.queue import (
    DEFAULT_HEARTBEAT,
    DEFAULT_LEASE_TIMEOUT,
    DEFAULT_POLL,
    LEASE_TIMEOUT_ENV,
    QueueStatus,
)
from .session import (
    Grid,
    Session,
    add_session_arguments,
    resolve_cache_dir,
    session_from_args,
)
from .utils import sanitize_nonfinite
from .workloads import WORKLOAD_ORDER


def _cmd_run(args: argparse.Namespace) -> int:
    with session_from_args(args, quiet=True) as session:
        result = session.run(
            args.workload,
            mechanism=args.mechanism,
            dtype=args.dtype,
            nsb=args.nsb,
            scale=args.scale,
            seed=args.seed,
            with_base=True,
        )
    stats = result.stats
    print(f"workload   : {result.program_name}")
    print(f"mechanism  : {result.mechanism} ({result.mode})")
    print(f"cycles     : {result.total_cycles}")
    print(f"base/stall : {result.base_cycles} / {result.stall_cycles}")
    print(f"L2 misses  : {stats.l2.demand_misses}")
    print(f"accuracy   : {stats.prefetch.accuracy:.3f}")
    print(f"coverage   : {stats.coverage():.3f}")
    print(f"off-chip   : {stats.traffic.off_chip_total_bytes} bytes")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    with session_from_args(args) as session:
        results = compare_mechanisms(
            args.workload,
            session=session,
            dtype=args.dtype,
            nsb=args.nsb,
            scale=args.scale,
            seed=args.seed,
        )
    base = results["inorder"].total_cycles
    rows = [
        [
            name,
            r.total_cycles,
            round(r.total_cycles / base, 3),
            round(r.stats.prefetch.accuracy, 3),
            round(r.stats.coverage(), 3),
            r.stats.l2.demand_misses,
        ]
        for name, r in results.items()
    ]
    print(
        format_table(
            ["mechanism", "cycles", "norm", "accuracy", "coverage", "misses"],
            rows,
            title=f"{args.workload} ({args.dtype}, nsb={args.nsb})",
        )
    )
    return 0


def _csv(text: str, known: tuple[str, ...], axis: str) -> tuple[str, ...]:
    """Parse a comma-separated axis value; ``all`` selects every option."""
    if text.strip().lower() == "all":
        return known
    values = tuple(v.strip() for v in text.split(",") if v.strip())
    for value in values:
        if value not in known:
            raise SystemExit(f"unknown {axis} '{value}' (known: {', '.join(known)})")
    return values


def _nonneg_float(text: str) -> float:
    value = float(text)
    if not (value >= 0) or value == float("inf"):  # rejects NaN too
        raise argparse.ArgumentTypeError(f"must be a finite value >= 0, got {text}")
    return value


def _numbers(text: str, parse, axis: str) -> tuple:
    try:
        return tuple(parse(v) for v in text.split(","))
    except ValueError:
        raise SystemExit(f"invalid {axis} list '{text}'") from None


def _sweep_grid(args: argparse.Namespace) -> Grid:
    """The sweep CLI's axis flags as a declarative :class:`Grid`."""
    return Grid(
        workload=_csv(args.workloads, WORKLOAD_ORDER, "workload"),
        mechanism=_csv(
            args.mechanisms,
            tuple(MECHANISM_ORDER) + ("preload",),
            "mechanism",
        ),
        dtype=_csv(args.dtypes, tuple(DTYPE_BYTES), "dtype"),
        nsb=(False, True) if args.nsb == "both" else (args.nsb == "on",),
        scale=_numbers(args.scales, float, "scale"),
        seed=_numbers(args.seeds, int, "seed"),
        with_base=args.with_base,
    )


def _payload_records(specs, results) -> list[dict]:
    """Content-addressed records, re-serialised exactly as a worker would.

    Payloads are a pure function of the spec, so ``repro sweep --spec
    --json`` dumps identical records whichever backend (or pulled cache)
    served the plan — the byte-for-byte check ``queue-smoke`` performs.
    """
    return [
        {
            "key": spec.key(),
            "spec": spec.to_dict(),
            "payload": (
                trace_to_payload(result)
                if spec.kind == "trace"
                else result_to_payload(result)
            ),
        }
        for spec, result in zip(specs, results)
    ]


def _sweep_spec(args: argparse.Namespace, session: Session) -> None:
    """Execute ``--spec PLAN`` (``sweep`` and ``fleet run``).

    Prints the plan's summary line and, with ``--json``, dumps the raw
    payload records: plans mix kinds (sim/trace/with_base), so there
    is no per-point metrics table.
    """
    rs = session.sweep(Plan.load(args.spec))
    report = session.last_report
    print(
        f"plan {args.spec}: {report.total} points, "
        f"{report.submitted} simulated, {report.derived} derived, "
        f"{report.cache_hits} cached"
    )
    if args.json is not None:
        records = _payload_records(rs.specs, rs.results)
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(
                sanitize_nonfinite(records),
                handle,
                indent=1,
                sort_keys=True,
                allow_nan=False,
            )
        print(f"wrote {args.json} ({len(records)} records)")


def _write_report(args: argparse.Namespace, session: Session) -> None:
    """Render the figures report to ``-o`` (``figures`` and ``fleet run``)."""
    text = generate_report(scale=args.scale, seed=args.seed, session=session)
    with open(args.output, "w") as handle:
        handle.write(text)
    print(f"wrote {args.output} ({len(text)} chars)")


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.spec is not None:
        with session_from_args(args) as session:
            _sweep_spec(args, session)
        return 0
    with session_from_args(args) as session:
        rs = session.sweep(_sweep_grid(args))
    rows = [
        [
            spec.workload,
            spec.mechanism,
            spec.dtype,
            "y" if spec.nsb else "n",
            spec.scale,
            spec.seed,
            result.total_cycles,
            round(result.stats.prefetch.accuracy, 3),
            round(result.stats.coverage(), 3),
            result.stats.traffic.off_chip_total_bytes,
        ]
        for spec, result in rs
    ]
    report = session.last_report
    print(
        format_table(
            [
                "workload",
                "mech",
                "dtype",
                "nsb",
                "scale",
                "seed",
                "cycles",
                "accuracy",
                "coverage",
                "off-chip B",
            ],
            rows,
            title=(
                f"sweep: {report.total} points, {report.submitted} simulated,"
                f" {report.derived} derived, {report.cache_hits} cached"
            ),
        )
    )
    if args.json is not None:
        rs.to_json(args.json)
        print(f"wrote {args.json} ({len(rs)} records)")
    return 0


def _cmd_ablate(args: argparse.Namespace) -> int:
    study = ABLATIONS[args.study]
    workloads = _csv(args.workloads, WORKLOAD_ORDER, "workload")
    kwargs = dict(workloads=workloads, scale=args.scale, seed=args.seed)
    if args.values is not None:
        kwargs["values"] = _numbers(args.values, int, "values")
    with session_from_args(args) as session:
        result = study(session=session, **kwargs)
    geomeans = result.geomean_speedups()
    rows = [
        [value]
        + [result.cycles[w][i] for w in result.workloads]
        + [round(geomeans[i], 3)]
        for i, value in enumerate(result.values)
    ]
    print(
        format_table(
            [result.axis] + list(result.workloads) + ["geomean speedup"],
            rows,
            title=(
                f"ablation {result.name}: cycles per {result.axis} "
                f"(scale {args.scale:g}, seed {args.seed})"
            ),
        )
    )
    print(
        f"# best {result.axis}: {result.best_value()} "
        f"(geomean speedup {max(geomeans):.3f} over "
        f"{result.axis}={result.values[0]})"
    )
    if args.json is not None:
        record = {
            "name": result.name,
            "axis": result.axis,
            "values": result.values,
            "workloads": result.workloads,
            "cycles": result.cycles,
            "geomean_speedups": geomeans,
            "scale": args.scale,
            "seed": args.seed,
        }
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(
                sanitize_nonfinite(record),
                handle,
                indent=2,
                sort_keys=True,
                allow_nan=False,
            )
        print(f"# wrote {args.json}")
    return 0


def _cmd_plan_export(args: argparse.Namespace) -> int:
    if args.figures:
        plan = figures_plan(scale=args.scale, seed=args.seed)
    else:
        plan = _sweep_grid(args).plan(source="sweep")
    path = plan.save(args.out)
    print(f"wrote {path}: {len(plan)} points " f"({len(plan.unique_specs())} unique)")
    return 0


def _cmd_queue_worker(args: argparse.Namespace) -> int:
    def log(text: str) -> None:
        print(text, file=sys.stderr, flush=True)

    done = run_queue_worker(
        args.work_dir,
        worker_id=args.worker_id,
        idle_timeout=args.idle_timeout,
        max_units=args.max_units,
        poll=args.poll,
        heartbeat=args.heartbeat,
        log=log,
    )
    print(f"executed {done} unit(s) from {args.work_dir}")
    return 0


def _print_queue_lines(status: QueueStatus, deep: bool) -> None:
    """The queue part of ``queue status`` and ``fleet status``."""
    queued = f"{status.queued}"
    if deep:
        queued += f" ({status.queued_points} point(s))"
    print(f"queued    : {queued}")
    print(
        f"claimed   : {status.claimed} "
        f"({status.expired} lease-expired, recoverable)"
    )
    print(f"results   : {status.results}")
    print(f"failed    : {status.failed}")
    print(f"stopping  : {'yes' if status.stopping else 'no'}")


def _cmd_queue_status(args: argparse.Namespace) -> int:
    queue = WorkQueue(args.work_dir)
    deep = not args.shallow
    status = queue.status(args.lease_timeout, deep=deep)
    if args.json:
        # The machine contract: the same document 'repro serve' embeds
        # under "queue" in GET /v1/stats.
        document = {"work_dir": str(queue.root), **status.to_dict()}
        print(json.dumps(document, indent=2, sort_keys=True, allow_nan=False))
        return 0
    print(f"work dir  : {queue.root}")
    _print_queue_lines(status, deep)
    if status.corrupt:
        print(
            f"# quarantined {status.corrupt} corrupt unit(s) into failed/ "
            "(interrupted or foreign enqueue)"
        )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    # Imported lazily: the server package is only needed by this one
    # subcommand, and every other CLI path should not pay for it.
    from .server import SweepEngine, SweepServer

    engine = SweepEngine(
        args.work_dir,
        cache_dir=getattr(args, "cache_dir", None),
        lease_timeout=args.lease_timeout,
    )

    async def _serve() -> None:
        server = SweepServer(engine, host=args.host, port=args.port)
        await server.start()
        # Flushed immediately so scripts (and CI) can scrape the bound
        # port even when --port 0 asked the OS to pick one.
        print(f"serving on http://{server.host}:{server.port}", flush=True)
        try:
            await server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await server.stop()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    return 0


def _cmd_fleet_up(args: argparse.Namespace) -> int:
    driver = LocalDriver(args.work_dir, worker_args=args.worker_arg or ())
    fleet = Fleet(args.work_dir, driver)
    handles = fleet.up(args.size)
    for handle in handles:
        print(f"started {handle.id}")
    print(
        f"fleet up: {len(handles)} worker(s) on {fleet.queue.root} "
        f"(state: {fleet.state_path})"
    )
    return 0


def _cmd_fleet_status(args: argparse.Namespace) -> int:
    fleet = Fleet.attach(args.work_dir)
    status = fleet.status()
    print(f"work dir  : {fleet.queue.root}")
    print(f"workers   : {status.running}/{len(status.workers)} running")
    for wid, state in sorted(status.workers.items()):
        print(f"  {wid}: {state}")
    _print_queue_lines(fleet.queue.status(deep=True), deep=True)
    stats = fleet.queue.worker_stats()
    if stats:
        print("throughput:")
        for entry in stats:
            rate = units_per_minute(entry)
            print(
                f"  {entry.get('worker')}: {entry.get('units', 0)} unit(s), "
                f"{entry.get('points', 0)} point(s), "
                f"{entry.get('failures', 0)} failure(s), "
                f"{rate:.1f} units/min"
            )
    return 0


def _cmd_fleet_down(args: argparse.Namespace) -> int:
    fleet = Fleet.attach(args.work_dir)
    count = len(fleet.workers)
    fleet.down(drain_timeout=args.drain_timeout)
    print(f"fleet down: drained {count} worker(s) on {fleet.queue.root}")
    return 0


def _cmd_fleet_run(args: argparse.Namespace) -> int:
    scratch = None
    work_dir = args.work_dir
    if work_dir is None:
        scratch = tempfile.TemporaryDirectory(prefix="repro-fleet-")
        work_dir = scratch.name

    def log(text: str) -> None:
        print(f"# {text}", file=sys.stderr, flush=True)

    try:
        session = Session.fleet(
            work_dir,
            size=args.size,
            # Poll fast enough that worker pickup latency never
            # dominates a small plan.
            worker_args=args.worker_arg or ["--poll", "0.05"],
            timeout=args.timeout,
            batch=getattr(args, "queue_batch", None),
            cache=False if getattr(args, "no_cache", False) else None,
            cache_dir=getattr(args, "cache_dir", None),
            progress=True,
        )
        with session:
            fleet = session._fleet
            fleet.log = log
            if args.test_kill_worker:
                fleet.arm_chaos()
            if args.spec is not None:
                _sweep_spec(args, session)
            else:
                _write_report(args, session)
            if args.test_kill_worker and fleet.restarts < 1:
                raise ConfigError(
                    "--test-kill-worker: the chaos hook never fired (the "
                    "plan drained before any unit was observed claimed) — "
                    "use a larger plan or more workers"
                )
    finally:
        if scratch is not None:
            scratch.cleanup()
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    records = profile_grid(
        _csv(args.workloads, WORKLOAD_ORDER, "workload"),
        _csv(
            args.mechanisms,
            tuple(MECHANISM_ORDER) + ("preload",),
            "mechanism",
        ),
        nsb=args.nsb,
        dtype=args.dtype,
        scale=args.scale,
        seed=args.seed,
        repeat=args.repeat,
    )
    rows = [
        [
            r.workload,
            r.mechanism,
            round(r.build_s, 3),
            round(r.simulate_s, 3),
            r.total_cycles,
            round(r.kcycles_per_s, 1),
        ]
        for r in records
    ]
    print(
        format_table(
            ["workload", "mech", "build_s", "sim_s", "cycles", "kcyc/s"],
            rows,
            title=(
                f"profile (scale={args.scale}, min of {args.repeat} "
                f"repeat{'s' if args.repeat != 1 else ''})"
            ),
        )
    )
    # Per-level memory breakdown: where demand lines were served (NSB /
    # L2 / DRAM fill) and prefetch effectiveness.
    mem_rows = [
        [
            r.workload,
            r.mechanism,
            r.nsb_hits,
            r.l2_hits,
            r.dram_fills,
            r.pf_useful,
            r.pf_late,
        ]
        for r in records
    ]
    print()
    print(
        format_table(
            [
                "workload",
                "mech",
                "nsb_hits",
                "l2_hits",
                "dram_fills",
                "pf_useful",
                "pf_late",
            ],
            mem_rows,
            title="memory breakdown",
        )
    )
    if args.json is not None:
        Path(args.json).write_text(profile_json(records) + "\n", encoding="utf-8")
        print(f"wrote {args.json} ({len(records)} records)")
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    with session_from_args(args) as session:
        _write_report(args, session)
    return 0


def _print_cache_stats(cache: ResultCache) -> None:
    entries = cache.entries()
    size = cache.size_bytes()
    print(f"cache dir : {cache.root}")
    print(f"entries   : {len(entries)}")
    print(f"size      : {size / 1024:.1f} KiB")
    if cache.tenant is None:
        tenants = cache.tenants()
        if tenants:
            print(f"tenants   : {', '.join(tenants)} (scope with --tenant)")


def _cmd_cache(args: argparse.Namespace) -> int:
    cache = ResultCache(
        resolve_cache_dir(getattr(args, "cache_dir", None)),
        tenant=getattr(args, "tenant", None),
    )
    action = getattr(args, "cache_cmd", None)
    if action is None:
        action = "clear" if args.clear else "stats"
    if action == "clear":
        removed = cache.clear()
        print(f"cleared {removed} entries from {cache.root}")
        return 0
    if action in ("push", "pull"):
        sync = push_cache if action == "push" else pull_cache
        report = sync(cache, args.remote)
        print(report.summary(action))
        return 0
    if action == "gc":
        report = cache.gc(int(args.max_mb * 1024 * 1024), dry_run=args.dry_run)
        verb = "would evict" if report.dry_run else "evicted"
        print(
            f"{verb} {report.removed}/{report.examined} entries "
            f"({report.freed_bytes / 1024:.1f} KiB) from {cache.root}"
        )
        print(
            f"kept      : {report.kept} entries "
            f"({report.kept_bytes / 1024:.1f} KiB <= {args.max_mb:g} MB)"
        )
        return 0
    _print_cache_stats(cache)
    return 0


def _cmd_workloads(args: argparse.Namespace) -> int:
    rows = [
        [
            r.short,
            r.full_name,
            r.domain,
            r.gather_elements,
            round(r.footprint_kib),
            round(r.reuse_factor, 1),
        ]
        for r in table2_workloads(scale=args.scale, seed=args.seed)
    ]
    print(
        format_table(
            ["short", "workload", "domain", "gathers", "KiB", "reuse"],
            rows,
            title="Table II workloads",
        )
    )
    return 0


def _cmd_overhead(args: argparse.Namespace) -> int:
    report = table1_overhead()
    rows = [
        [name, entries, bits, paper, "yes" if ok else "no"]
        for name, entries, bits, paper, ok in report.rows()
    ]
    print(
        format_table(
            ["structure", "entries", "bits", "paper", "match"],
            rows,
            title="Table I - NVR hardware overhead",
        )
    )
    print(f"total: {report.total_bits} bits ({report.total_kib:.2f} KiB)")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    return check_cli.run(args)


def _add_sweep_axis_arguments(parser: argparse.ArgumentParser) -> None:
    """The sweep-plan expansion axes (shared by ``sweep``/``plan export``)."""
    parser.add_argument(
        "--workloads",
        default="all",
        help="comma-separated workloads, or 'all'",
    )
    parser.add_argument(
        "--mechanisms",
        default=",".join(MECHANISM_ORDER),
        help="comma-separated mechanisms, or 'all'",
    )
    parser.add_argument(
        "--dtypes", default="fp16", help="comma-separated dtypes, or 'all'"
    )
    parser.add_argument(
        "--nsb",
        choices=("off", "on", "both"),
        default="off",
        help="sweep the NSB axis (default off)",
    )
    parser.add_argument("--scales", default="0.5", help="comma-separated trace scales")
    parser.add_argument("--seeds", default="0", help="comma-separated RNG seeds")
    parser.add_argument(
        "--with-base",
        action="store_true",
        help="also run perfect-memory passes (base/stall split)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    # One parent parser owns the session flags for every executing
    # subcommand; `session_from_args` fills the real defaults, so the
    # flags may be repeated at any nesting level without clobbering
    # (see repro.session.add_session_arguments).
    session_parent = argparse.ArgumentParser(add_help=False)
    add_session_arguments(session_parent)
    cache_parent = argparse.ArgumentParser(add_help=False)
    cache_parent.add_argument(
        "--cache-dir",
        default=argparse.SUPPRESS,
        help="cache directory (default $REPRO_CACHE_DIR or .repro-cache)",
    )

    run_p = sub.add_parser(
        "run", parents=[session_parent], help="run one workload/mechanism"
    )
    run_p.add_argument("workload", choices=list(WORKLOAD_ORDER))
    run_p.add_argument(
        "--mechanism",
        default="nvr",
        choices=list(MECHANISM_ORDER) + ["preload"],
    )
    run_p.add_argument("--dtype", default="fp16", choices=list(DTYPE_BYTES))
    run_p.add_argument("--nsb", action="store_true")
    run_p.add_argument("--scale", type=float, default=0.5)
    run_p.add_argument("--seed", type=int, default=0)
    run_p.set_defaults(fn=_cmd_run)

    cmp_p = sub.add_parser(
        "compare",
        parents=[session_parent],
        help="run all mechanisms on a workload",
    )
    cmp_p.add_argument("workload", choices=list(WORKLOAD_ORDER))
    cmp_p.add_argument("--dtype", default="fp16", choices=list(DTYPE_BYTES))
    cmp_p.add_argument("--nsb", action="store_true")
    cmp_p.add_argument("--scale", type=float, default=0.5)
    cmp_p.add_argument("--seed", type=int, default=0)
    cmp_p.set_defaults(fn=_cmd_compare)

    sweep_p = sub.add_parser(
        "sweep",
        parents=[session_parent],
        help="run an explicit (workload x mechanism x ...) plan",
    )
    _add_sweep_axis_arguments(sweep_p)
    sweep_p.add_argument(
        "--spec",
        default=None,
        metavar="PLAN",
        help="execute an exported plan file instead of the axis flags "
        "(prints a summary; use --json for the result records)",
    )
    sweep_p.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="also dump one JSON record per point",
    )
    sweep_p.set_defaults(fn=_cmd_sweep)

    abl_p = sub.add_parser(
        "ablate",
        parents=[session_parent],
        help="NVR/NSB sensitivity sweeps through the runner",
    )
    abl_p.add_argument("study", choices=sorted(ABLATIONS))
    abl_p.add_argument(
        "--values",
        default=None,
        help="comma-separated axis values (default: the study's sweep)",
    )
    abl_p.add_argument(
        "--workloads",
        default=",".join(ABLATION_WORKLOADS),
        help="comma-separated workloads, or 'all'",
    )
    abl_p.add_argument("--scale", type=float, default=0.4)
    abl_p.add_argument("--seed", type=int, default=0)
    abl_p.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="also dump the full ablation record as JSON",
    )
    abl_p.set_defaults(fn=_cmd_ablate)

    plan_p = sub.add_parser(
        "plan",
        help="export wire-format sweep plans "
        "(for 'sweep --spec' and 'fleet run --spec')",
    )
    plan_sub = plan_p.add_subparsers(dest="plan_cmd", required=True)
    exp_p = plan_sub.add_parser(
        "export", help="compile a plan to a JSON file workers can execute"
    )
    exp_p.add_argument(
        "--out",
        "-o",
        default="plan.json",
        help="plan file to write (default plan.json)",
    )
    exp_p.add_argument(
        "--figures",
        action="store_true",
        help="export the full paper-figures plan (everything a "
        "'repro figures' run would simulate; ignores the axis flags)",
    )
    exp_p.add_argument(
        "--scale",
        type=float,
        default=0.6,
        help="figure scale for --figures (default 0.6)",
    )
    exp_p.add_argument(
        "--seed",
        type=int,
        default=0,
        help="RNG seed for --figures (default 0)",
    )
    _add_sweep_axis_arguments(exp_p)
    exp_p.set_defaults(fn=_cmd_plan_export)

    queue_p = sub.add_parser(
        "queue",
        help="pull-based work queue: workers claim units from a shared "
        "--work-dir (pairs with 'sweep --backend queue')",
    )
    queue_sub = queue_p.add_subparsers(dest="queue_cmd", required=True)
    qworker_p = queue_sub.add_parser(
        "worker",
        help="claim and execute queue units until stopped or idle",
    )
    qworker_p.add_argument(
        "--work-dir",
        required=True,
        metavar="DIR",
        help="the shared work directory to pull units from",
    )
    qworker_p.add_argument(
        "--worker-id",
        default=None,
        help="lease identity (default host:pid)",
    )
    qworker_p.add_argument(
        "--idle-timeout",
        type=float,
        default=None,
        metavar="SEC",
        help="exit after this long with an empty queue "
        "(default: wait for work forever)",
    )
    qworker_p.add_argument(
        "--max-units",
        type=int,
        default=None,
        metavar="N",
        help="exit after executing N units",
    )
    qworker_p.add_argument(
        "--poll",
        type=float,
        default=DEFAULT_POLL,
        metavar="SEC",
        help=f"queue re-scan interval when idle (default {DEFAULT_POLL:g})",
    )
    qworker_p.add_argument(
        "--heartbeat",
        type=float,
        default=DEFAULT_HEARTBEAT,
        metavar="SEC",
        help="lease touch interval while executing "
        f"(default {DEFAULT_HEARTBEAT:g}; keep well under the "
        "orchestrator's lease timeout)",
    )
    qworker_p.set_defaults(fn=_cmd_queue_worker)
    qstatus_p = queue_sub.add_parser(
        "status", help="one scan of a work directory's queue state"
    )
    qstatus_p.add_argument(
        "--work-dir",
        required=True,
        metavar="DIR",
        help="the shared work directory to inspect",
    )
    qstatus_p.add_argument(
        "--lease-timeout",
        type=float,
        default=None,
        metavar="SEC",
        help="age that counts a claimed unit's lease as expired "
        f"(default ${LEASE_TIMEOUT_ENV} or {DEFAULT_LEASE_TIMEOUT:g})",
    )
    qstatus_p.add_argument(
        "--shallow",
        action="store_true",
        help="only count files; skip reading queued units (the deep "
        "default also counts points per unit and quarantines corrupt "
        "unit files into failed/)",
    )
    qstatus_p.add_argument(
        "--json",
        action="store_true",
        help="emit the scan as a JSON document (the same shape 'repro "
        "serve' reports under \"queue\" in /v1/stats)",
    )
    qstatus_p.set_defaults(fn=_cmd_queue_status)

    serve_p = sub.add_parser(
        "serve",
        parents=[cache_parent],
        help="sweep-as-a-service daemon: accept sweep submissions over "
        "HTTP, dedupe against the cache, enqueue misses on the work "
        "queue (drain with 'queue worker' or 'fleet up')",
    )
    serve_p.add_argument(
        "--work",
        "--work-dir",
        dest="work_dir",
        required=True,
        metavar="DIR",
        help="the shared work directory (queue units + sweep ledger)",
    )
    serve_p.add_argument(
        "--host",
        default="127.0.0.1",
        help="bind address (default 127.0.0.1)",
    )
    serve_p.add_argument(
        "--port",
        type=int,
        default=8080,
        metavar="N",
        help="bind port (default 8080; 0 = OS-assigned, printed on start)",
    )
    serve_p.add_argument(
        "--lease-timeout",
        type=float,
        default=None,
        metavar="SEC",
        help="age that counts a claimed unit's lease as expired "
        f"(default ${LEASE_TIMEOUT_ENV} or {DEFAULT_LEASE_TIMEOUT:g})",
    )
    serve_p.set_defaults(fn=_cmd_serve)

    fleet_p = sub.add_parser(
        "fleet",
        help="raise, herd and drain fleets of local 'repro queue worker' subprocesses",
    )
    fleet_sub = fleet_p.add_subparsers(dest="fleet_cmd", required=True)

    def _add_worker_arguments(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "-n",
            "--size",
            type=int,
            default=2,
            metavar="N",
            help="workers to start (default 2)",
        )
        p.add_argument(
            "--worker-arg",
            action="append",
            default=None,
            metavar="ARG",
            help="extra 'repro queue worker' argument (repeatable, e.g. "
            "--worker-arg=--heartbeat --worker-arg=0.5)",
        )

    fup_p = fleet_sub.add_parser(
        "up", help="submit N workers against a work directory"
    )
    fup_p.add_argument(
        "--work-dir",
        required=True,
        metavar="DIR",
        help="the shared work directory the workers pull from",
    )
    _add_worker_arguments(fup_p)
    fup_p.set_defaults(fn=_cmd_fleet_up)

    fstatus_p = fleet_sub.add_parser(
        "status",
        help="poll a raised fleet's workers and its queue (from any "
        "process sharing the work dir)",
    )
    fstatus_p.add_argument("--work-dir", required=True, metavar="DIR")
    fstatus_p.set_defaults(fn=_cmd_fleet_status)

    fdown_p = fleet_sub.add_parser(
        "down", help="drain a raised fleet (stop sentinel, then stop hard)"
    )
    fdown_p.add_argument("--work-dir", required=True, metavar="DIR")
    fdown_p.add_argument(
        "--drain-timeout",
        type=float,
        default=10.0,
        metavar="SEC",
        help="seconds to wait for workers to finish their current unit "
        "before stopping them (default 10)",
    )
    fdown_p.set_defaults(fn=_cmd_fleet_down)

    frun_p = fleet_sub.add_parser(
        "run",
        parents=[cache_parent],
        help="one-command fleet lifecycle: up, drain a figures/plan "
        "sweep through the herded fleet, down",
    )
    frun_p.add_argument(
        "--work-dir",
        default=None,
        metavar="DIR",
        help="work directory for the fleet (default: a temporary one)",
    )
    _add_worker_arguments(frun_p)
    frun_p.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SEC",
        help="overall seconds to wait per plan (default: forever)",
    )
    frun_p.add_argument(
        "--queue-batch",
        type=int,
        default=None,
        metavar="N",
        help="points per claimable unit (default 1)",
    )
    frun_p.add_argument("--no-cache", action="store_true", help=argparse.SUPPRESS)
    frun_p.add_argument(
        "--scale", type=float, default=0.6, help="figures scale (default 0.6)"
    )
    frun_p.add_argument("--seed", type=int, default=0)
    frun_p.add_argument(
        "-o",
        "--output",
        default="EXPERIMENTS.md",
        help="figures report path (default EXPERIMENTS.md)",
    )
    frun_p.add_argument(
        "--spec",
        default=None,
        metavar="PLAN",
        help="drain an exported plan file instead of the figures report",
    )
    frun_p.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="with --spec: dump one JSON record per point",
    )
    frun_p.add_argument(
        "--test-kill-worker",
        action="store_true",
        help="restart test hook: SIGKILL one worker once real work is "
        "observed in flight and require the herder to replace it "
        "(exercised by CI)",
    )
    frun_p.set_defaults(fn=_cmd_fleet_run)

    tenant_parent = argparse.ArgumentParser(add_help=False)
    tenant_parent.add_argument(
        "--tenant",
        default=argparse.SUPPRESS,
        metavar="NAME",
        help="scope to one server tenant's cache namespace "
        "(default: the shared default namespace)",
    )

    cache_p = sub.add_parser(
        "cache",
        parents=[cache_parent, tenant_parent],
        help="inspect, garbage-collect or clear the result cache",
    )
    cache_p.add_argument("--clear", action="store_true", help="same as 'cache clear'")
    cache_sub = cache_p.add_subparsers(dest="cache_cmd")
    gc_p = cache_sub.add_parser(
        "gc",
        parents=[cache_parent, tenant_parent],
        help="evict least-recently-accessed entries over a size bound "
        "(per-tenant with --tenant)",
    )
    gc_p.add_argument(
        "--max-mb",
        type=_nonneg_float,
        required=True,
        help="shrink the cache to at most this many megabytes",
    )
    gc_p.add_argument(
        "--dry-run",
        action="store_true",
        help="report what would be evicted without deleting anything",
    )
    cache_sub.add_parser(
        "clear",
        parents=[cache_parent, tenant_parent],
        help="delete every entry (per-tenant with --tenant)",
    )
    push_p = cache_sub.add_parser(
        "push",
        parents=[cache_parent],
        help="copy local entries a remote cache tier is missing",
    )
    push_p.add_argument(
        "--remote",
        required=True,
        metavar="DEST",
        help="remote tier: a directory, rsync://host/module/path, or "
        "host:path (goes through rsync)",
    )
    pull_p = cache_sub.add_parser(
        "pull",
        parents=[cache_parent],
        help="merge a remote tier's entries into the local cache "
        "(salt/spec-verified — foreign-version entries are rejected)",
    )
    pull_p.add_argument(
        "--remote",
        required=True,
        metavar="SRC",
        help="remote tier: a directory, rsync://host/module/path, or "
        "host:path (goes through rsync)",
    )
    cache_p.set_defaults(fn=_cmd_cache)

    wl_p = sub.add_parser("workloads", help="list Table II workloads")
    wl_p.add_argument("--scale", type=float, default=0.3)
    wl_p.add_argument("--seed", type=int, default=0)
    wl_p.set_defaults(fn=_cmd_workloads)

    oh_p = sub.add_parser("overhead", help="Table I hardware overhead")
    oh_p.set_defaults(fn=_cmd_overhead)

    prof_p = sub.add_parser(
        "profile",
        help="time the build/simulate phases per point (uncached, in-process)",
    )
    prof_p.add_argument(
        "--workloads", default="gcn,mk", help="comma-separated workloads, or 'all'"
    )
    prof_p.add_argument(
        "--mechanisms", default="nvr", help="comma-separated mechanisms, or 'all'"
    )
    prof_p.add_argument("--nsb", action="store_true")
    prof_p.add_argument("--dtype", default="fp16", choices=list(DTYPE_BYTES))
    prof_p.add_argument("--scale", type=float, default=0.1)
    prof_p.add_argument("--seed", type=int, default=0)
    prof_p.add_argument(
        "--repeat",
        type=int,
        default=3,
        help="time each phase N times and report the minimum (default 3)",
    )
    prof_p.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="also dump the profile records as JSON",
    )
    prof_p.set_defaults(fn=_cmd_profile)

    fig_p = sub.add_parser(
        "figures", parents=[session_parent], help="regenerate EXPERIMENTS.md"
    )
    fig_p.add_argument("--scale", type=float, default=0.6)
    fig_p.add_argument("--seed", type=int, default=0)
    fig_p.add_argument("-o", "--output", default="EXPERIMENTS.md")
    fig_p.set_defaults(fn=_cmd_figures)

    check_p = sub.add_parser(
        "check",
        help="static analysis: machine-check the repo's correctness "
        "contracts (rule catalog in docs/static-analysis.md)",
    )
    check_cli.add_arguments(check_p)
    check_p.set_defaults(fn=_cmd_check)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ReproError as exc:
        # Config mistakes (a corrupt plan or result file, an inconsistent
        # override) are user input errors: report them as one clean line,
        # not a traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
