"""Command-line interface.

Usage::

    python -m repro run ds --mechanism nvr --dtype fp16 --scale 0.5
    python -m repro compare gcn --nsb --jobs 4
    python -m repro sweep --workloads ds,gcn --mechanisms inorder,nvr
    python -m repro sweep --spec plan.json --jobs 4
    python -m repro ablate nvr-depth --workloads ds,gcn --jobs 4
    python -m repro workloads
    python -m repro overhead
    python -m repro figures --scale 0.6 --jobs 4 -o EXPERIMENTS.md
    python -m repro plan export --figures --scale 0.1 --out plan.json
    python -m repro queue worker --work-dir work/ &
    python -m repro sweep --backend queue --work-dir work/ --workloads ds
    python -m repro queue status --work-dir work/ [--json]
    python -m repro serve --work work/ --port 8080
    python -m repro cache
    python -m repro cache gc --max-mb 64 --dry-run
    python -m repro cache clear

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
their claims so crashed workers' units are re-enqueued automatically; ``queue
status`` inspects a work directory and ``touch <work-dir>/stop`` drains
the workers. ``cache gc`` bounds the cache's size with
least-recently-accessed eviction. A cache directory moves between
machines as a plain copy: every read checks the entry's salt and spec,
so machines that share nothing export their slice of a plan, ``sweep
--spec`` it, and copy the cache directory back to the submitter.
``serve`` turns the same machinery into a long-lived daemon: sweeps
arrive over HTTP (``POST /v1/sweeps``), dedupe point-by-point against
the cache, and only the misses hit the queue — see
:mod:`repro.server` and ``docs/server.md``.

``sweep`` expands its axis flags through a declarative
:class:`~repro.session.Grid` and dumps its ``--json`` payload from the
:class:`~repro.resultset.ResultSet` record format.
"""

from __future__ import annotations

import argparse
import json
import sys

from .analysis import format_table
from .analysis.experiments import ABLATION_WORKLOADS, ABLATIONS, run_ablation
from .analysis.paperfigs import FIGURES, figures_plan, generate_report
from .api import DTYPE_BYTES, MECHANISM_ORDER, compare_mechanisms
from .check import cli as check_cli
from .errors import ConfigError, ReproError
from .runner import (
    Plan,
    ResultCache,
    WorkQueue,
    result_to_payload,
    run_queue_worker,
    trace_to_payload,
)
from .runner.queue import (
    DEFAULT_HEARTBEAT,
    DEFAULT_LEASE_TIMEOUT,
    DEFAULT_POLL,
    LEASE_TIMEOUT_ENV,
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
            raise ConfigError(f"unknown {axis} '{value}' (known: {', '.join(known)})")
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
        raise ConfigError(f"invalid {axis} list '{text}'") from None


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
    --json`` dumps identical records whichever backend (or copied cache)
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
    """Execute ``--spec PLAN``.

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
    workloads = _csv(args.workloads, WORKLOAD_ORDER, "workload")
    values = None if args.values is None else _numbers(args.values, int, "values")
    with session_from_args(args) as session:
        result = run_ablation(
            args.study,
            values,
            workloads=workloads,
            scale=args.scale,
            seed=args.seed,
            session=session,
        )
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
    queued = f"{status.queued}"
    if deep:
        queued += f" ({status.queued_points} point(s))"
    print(f"work dir  : {queue.root}")
    print(f"queued    : {queued}")
    print(
        f"claimed   : {status.claimed} "
        f"({status.expired} lease-expired, recoverable)"
    )
    print(f"results   : {status.results}")
    print(f"failed    : {status.failed}")
    print(f"stopping  : {'yes' if status.stopping else 'no'}")
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


def _cmd_figures(args: argparse.Namespace) -> int:
    with session_from_args(args) as session:
        text = generate_report(scale=args.scale, seed=args.seed, session=session)
    with open(args.output, "w") as handle:
        handle.write(text)
    print(f"wrote {args.output} ({len(text)} chars)")
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    cache = ResultCache(resolve_cache_dir(getattr(args, "cache_dir", None)))
    action = getattr(args, "cache_cmd", None)
    if action is None:
        action = "clear" if args.clear else "stats"
    if action == "clear":
        removed = cache.clear()
        print(f"cleared {removed} entries from {cache.root}")
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
    print(f"cache dir : {cache.root}")
    print(f"entries   : {len(cache.entries())}")
    print(f"size      : {cache.size_bytes() / 1024:.1f} KiB")
    return 0


def _cmd_workloads(args: argparse.Namespace) -> int:
    table2 = FIGURES["table2"]
    print(table2.render(table2.run(scale=args.scale, seed=args.seed)), end="")
    return 0


def _cmd_overhead(args: argparse.Namespace) -> int:
    table1 = FIGURES["table1"]
    print(table1.render(table1.run()), end="")
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
        help="export wire-format sweep plans (for 'sweep --spec')",
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
        help="identity in stats and failure reports (default host:pid)",
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
        help="claim touch interval while executing "
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
        help="age that counts a claimed unit's heartbeat as expired "
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
        "queue (drain with 'queue worker')",
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
        help="age that counts a claimed unit's heartbeat as expired "
        f"(default ${LEASE_TIMEOUT_ENV} or {DEFAULT_LEASE_TIMEOUT:g})",
    )
    serve_p.set_defaults(fn=_cmd_serve)

    cache_p = sub.add_parser(
        "cache",
        parents=[cache_parent],
        help="inspect, garbage-collect or clear the result cache",
    )
    cache_p.add_argument("--clear", action="store_true", help="same as 'cache clear'")
    cache_sub = cache_p.add_subparsers(dest="cache_cmd")
    gc_p = cache_sub.add_parser(
        "gc",
        parents=[cache_parent],
        help="evict least-recently-accessed entries over a size bound",
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
    cache_sub.add_parser("clear", parents=[cache_parent], help="delete every entry")
    cache_p.set_defaults(fn=_cmd_cache)

    wl_p = sub.add_parser("workloads", help="list Table II workloads")
    wl_p.add_argument("--scale", type=float, default=0.3)
    wl_p.add_argument("--seed", type=int, default=0)
    wl_p.set_defaults(fn=_cmd_workloads)

    oh_p = sub.add_parser("overhead", help="Table I hardware overhead")
    oh_p.set_defaults(fn=_cmd_overhead)

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
