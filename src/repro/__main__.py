"""Command-line interface for QC-tree warehouses.

The CLI wraps the most common warehouse operations so a reproduced
pipeline can be driven from the shell::

    python -m repro build sales.csv --dims Store,Product,Season \\
        --measures Sale --aggregate "avg(Sale)" --out sales.qct
    python -m repro stats sales.qct
    python -m repro point sales.qct --table sales.csv "S2,*,f"
    python -m repro range sales.qct --table sales.csv "S1|S2,*,f"
    python -m repro iceberg sales.qct --table sales.csv --threshold 9
    python -m repro fsck sales.qct --table sales.csv
    python -m repro dump sales.qct --table sales.csv
    python -m repro serve sales.qct --table sales.csv --workers 4
    python -m repro bench-serve sales.qct --table sales.csv --workers 4

Cells use ``,`` between dimensions and ``*`` for ALL; range dimensions
separate candidate values with ``|``.

``serve`` starts a :class:`~repro.serving.server.QCServer` and speaks a
line protocol on stdin/stdout (one request per line, one response per
request), so a shell, a pipe, or an inetd-style wrapper can drive the
concurrent warehouse::

    point S2,*,f
    range S1|S2,*,f
    iceberg 9 >=
    rollup S2,P1,f
    insert S3,P1,s,5.0
    stats
    health
    quit

``health`` prints the JSON health/readiness report (liveness, snapshot
staleness, queue depth, worker liveness, degraded state, breaker state)
— the line a probe or load balancer should poll.

Both ``serve`` and ``bench-serve`` accept ``--processes N`` to serve
reads from N forked worker processes over one shared-memory packed
snapshot (:class:`~repro.shard.server.ShardServer`) instead of GIL-bound
threads; SIGTERM cleanup of ``/dev/shm`` segments is installed
automatically.

``serve --async --port N`` serves the same line protocol over TCP
through the asyncio front door (:mod:`repro.serving.async_server`)
instead of stdin — tens of thousands of connections, per-connection
in-flight caps, early protocol-level load shedding, and ``@<seconds>``
deadline budgets; stdin becomes a control channel (``quit``/EOF stops).

``bench-serve`` drives a closed-loop (or, with ``--rate``, open-loop)
point-query workload through the server and prints a JSON report.
``--open-loop --rate R`` instead drives a seeded Poisson/uniform arrival
schedule over the asyncio TCP transport and measures latency from the
*scheduled* send instant — free of coordinated omission
(:mod:`repro.serving.arrivals`).
``--chaos`` runs the same mixed read/write workload under seeded fault
injection (worker kills, write-pipeline crashes, op errors/stalls) with
retrying clients, and reports what the fault-tolerance machinery did.

Exit status: 0 on success, 1 on any error (bad input, missing or
corrupt files), 2 when ``fsck`` finds corruption.
"""

from __future__ import annotations

import argparse
import sys

from repro import __version__
from repro.core.piece import Piece, paired_table
from repro.core.serialize import load_qctree_from
from repro.core.warehouse import QCWarehouse
from repro.cube.schema import Schema
from repro.cube.table import BaseTable
from repro.errors import ReproError
from repro.reliability.fsck import fsck_tree
from repro.serving.protocol import parse_cell, parse_range_spec as parse_range


def _schema_from_args(args) -> Schema:
    return Schema(
        dimensions=tuple(args.dims.split(",")),
        measures=tuple(args.measures.split(",")) if args.measures else (),
    )


def _load_warehouse(args):
    """The saved pair behind every query/serve command, through the one
    pair loader (:meth:`Piece.load <repro.core.piece.Piece.load>`), so
    the CLI answers exactly what ``QCWarehouse.load`` answers."""
    dim_names = load_qctree_from(args.tree).dim_names
    schema = Schema(dimensions=dim_names,
                    measures=args_measures(args, dim_names))
    piece, _, _ = Piece.load(args.tree, args.table, schema)
    aggregate = piece.tree.aggregate
    if args.segmented:
        # Segmented ingest: the snapshot's table seeds the store (a
        # bootstrap bigger than --seal-rows seals immediately) and the
        # background compactor starts right away; the .qct tree is used
        # for its schema + aggregate spec.
        from repro.segments import SegmentedWarehouse

        warehouse = SegmentedWarehouse(
            piece.table, aggregate=aggregate,
            full_refreeze_ratio=args.refreeze_ratio,
            seal_rows=args.seal_rows,
        )
        warehouse.start_compactor()
        return warehouse
    return QCWarehouse(
        piece.table, aggregate=aggregate, tree=piece.tree,
        serve_frozen=args.engine != "dict",
        full_refreeze_ratio=args.refreeze_ratio,
    )


def _workload_table(warehouse) -> BaseTable:
    """A populated table to draw workload cells/records from.

    ``warehouse.table`` is the whole base table for a monolithic store,
    but only the mutable *head* for a segmented one — empty right after
    the bootstrap seal — so take the oldest populated piece.
    """
    for piece in warehouse.pieces():
        if piece.n_rows:
            return piece.table
    return warehouse.table


def args_measures(args, dim_names):
    if args.measures:
        return tuple(args.measures.split(","))
    # Infer measures from the CSV header: everything after the dimensions.
    import csv

    with open(args.table, newline="") as fp:
        header = next(csv.reader(fp))
    return tuple(header[len(dim_names):])


def cmd_build(args) -> int:
    schema = _schema_from_args(args)
    table = BaseTable.from_csv(args.csv, schema)
    warehouse = QCWarehouse(table, aggregate=args.aggregate)
    # Written the way ``save()`` writes it: the label dictionaries ride
    # along, so the file pairs with any CSV holding the same rows.
    warehouse.save(args.out)
    stats = warehouse.stats()
    print(
        f"built {args.out}: {stats['classes']} classes, "
        f"{stats['nodes']} nodes, {stats['links']} links "
        f"from {stats['n_rows']} rows"
    )
    return 0


def cmd_stats(args) -> int:
    tree = load_qctree_from(args.tree)
    for key, value in tree.stats().items():
        print(f"{key}: {value}")
    print(f"aggregate: {tree.aggregate.name}")
    print(f"dimensions: {', '.join(tree.dim_names)}")
    return 0


def cmd_point(args) -> int:
    warehouse = _load_warehouse(args)
    value = warehouse.point(parse_cell(args.cell))
    print("NULL" if value is None else value)
    return 0


def cmd_range(args) -> int:
    warehouse = _load_warehouse(args)
    results = warehouse.range(parse_range(args.spec))
    for cell, value in sorted(results.items()):
        print(f"{','.join(map(str, cell))}\t{value}")
    print(f"# {len(results)} cells", file=sys.stderr)
    return 0


def cmd_iceberg(args) -> int:
    warehouse = _load_warehouse(args)
    for upper_bound, value in warehouse.iceberg(args.threshold, op=args.op):
        print(f"{','.join(map(str, upper_bound))}\t{value}")
    return 0


def cmd_dump(args) -> int:
    warehouse = _load_warehouse(args)
    print(warehouse.tree.dump(decoder=warehouse.table.decode_value))
    return 0


def _serve_dispatch(server, warehouse, line, out) -> bool:
    """Handle one ``serve`` protocol line; False means quit.

    Parsing and response framing come from
    :mod:`repro.serving.protocol` — the same definition the asyncio TCP
    front door speaks, so stdin and TCP sessions are interchangeable.
    """
    from repro.serving import protocol

    parsed = protocol.parse_line(line, n_dims=warehouse.table.n_dims)
    if parsed.kind == "quit":
        return False
    if parsed.kind == "stats":
        print(protocol.format_response(parsed, server.stats()),
              file=out, flush=True)
        return True
    if parsed.kind == "write":
        getattr(server, parsed.command)([parsed.args[0]])
        print(protocol.format_response(parsed, None), file=out, flush=True)
        return True
    # Queries (health included) go through the worker pool: a reply
    # proves a live worker, not just a live control thread.
    value = server.submit(
        parsed.op, *parsed.args, timeout=parsed.timeout, **parsed.kwargs
    ).result()
    print(protocol.format_response(parsed, value), file=out, flush=True)
    return True


def _make_server(warehouse, args, **extra):
    """Build the server the flags ask for: a thread-pool ``QCServer``,
    or — with ``--processes N`` — a multi-process ``ShardServer`` over a
    shared-memory packed snapshot (with SIGTERM segment cleanup so a
    supervisor kill leaves no ``/dev/shm`` litter)."""
    from repro.serving.server import QCServer

    if args.processes:
        if args.segmented:
            raise ReproError(
                "--processes serves one packed snapshot and cannot "
                "scatter-gather a --segmented warehouse"
            )
        from repro.shard import ShardServer, install_signal_cleanup

        install_signal_cleanup()
        return ShardServer(
            warehouse, processes=args.processes, workers=args.workers,
            queue_size=args.queue_size, default_timeout=args.timeout,
            warm_keys=args.warm_keys, **extra,
        )
    return QCServer(
        warehouse, workers=args.workers, queue_size=args.queue_size,
        default_timeout=args.timeout, warm_keys=args.warm_keys, **extra,
    )


def cmd_serve(args) -> int:
    warehouse = _load_warehouse(args)
    try:
        server = _make_server(warehouse, args, cache_size=args.cache_size)
    except BaseException:
        # A stranded segment compactor (non-daemon) would hang exit.
        warehouse.close()
        raise
    stats = warehouse.stats()
    detail = (
        f"{stats['segments_live']} segments"
        if stats.get("serving") == "segmented"
        else f"{stats['classes']} classes"
    )
    fleet = (f"{args.processes} processes, " if args.processes else "")
    if args.use_async:
        return _serve_async(server, args, detail, fleet)
    print(
        f"serving {args.tree}: {detail}, "
        f"{fleet}{args.workers} workers, queue {args.queue_size} "
        f"(point/range/iceberg/rollup/…; 'quit' to stop)",
        file=sys.stderr,
    )
    from repro.serving import protocol

    try:
        for raw_line in sys.stdin:
            line = raw_line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                if not _serve_dispatch(server, warehouse, line, sys.stdout):
                    break
            except ReproError as exc:
                print(protocol.format_error(exc), file=sys.stdout, flush=True)
    finally:
        server.close()
    return 0


def _serve_async(server, args, detail: str, fleet: str) -> int:
    """``serve --async``: the asyncio TCP front door in the foreground.

    The listener runs in a dedicated loop thread
    (:class:`~repro.serving.async_server.AsyncServerThread`); stdin
    stays a control channel — EOF or a ``quit`` line drains the
    transport and shuts the server down.
    """
    from repro.serving.async_server import AsyncServerThread

    try:
        handle = AsyncServerThread(
            server, host=args.host, port=args.port,
            max_connections=args.max_connections,
            max_inflight=args.max_inflight,
            default_timeout=args.timeout,
        )
    except BaseException:
        server.close()
        raise
    print(
        f"serving {args.tree} on {handle.host}:{handle.port} (async): "
        f"{detail}, {fleet}{args.workers} workers, "
        f"queue {args.queue_size}, "
        f"max {args.max_connections} connections × "
        f"{args.max_inflight} in flight "
        f"('quit' or EOF on stdin to stop)",
        file=sys.stderr,
    )
    try:
        for raw_line in sys.stdin:
            if raw_line.strip() in ("quit", "exit"):
                break
    except KeyboardInterrupt:
        pass
    finally:
        handle.close()
        server.close()
    if handle.leftover_tasks:  # pragma: no cover - defensive
        print(
            f"error: {len(handle.leftover_tasks)} asyncio tasks survived "
            f"the drain", file=sys.stderr,
        )
        return 1
    return 0


def cmd_bench_serve(args) -> int:
    import json

    from repro.reliability.faults import ChaosMonkey, ServingFaults
    from repro.serving.retry import RetryPolicy
    from repro.serving.workload import (
        point_requests,
        register_stalled_point,
        run_closed_loop,
        run_mixed,
        run_open_loop,
    )

    warehouse = _load_warehouse(args)
    try:
        sample_table = _workload_table(warehouse)
        requests = point_requests(sample_table, args.requests, seed=7)
        faults = ServingFaults() if args.chaos else None
        server = _make_server(warehouse, args, faults=faults)
    except BaseException:
        # A stranded segment compactor (non-daemon) would hang exit.
        warehouse.close()
        raise
    with server:
        if args.open_loop:
            # True open-loop over the asyncio TCP front door: seeded
            # arrival schedule fixed up front, latency measured from the
            # scheduled send instant (coordinated-omission-free).
            if not args.rate:
                raise ReproError("--open-loop requires --rate")
            from repro.serving.arrivals import (
                ArrivalSchedule,
                request_plan,
                run_open_loop_tcp,
            )
            from repro.serving.async_server import AsyncServerThread

            plan = request_plan(sample_table, args.requests, seed=7)
            schedule = ArrivalSchedule(
                args.rate, args.requests, kind=args.arrival,
                seed=args.arrival_seed,
            )
            handle = AsyncServerThread(server, port=0)
            try:
                result = run_open_loop_tcp(
                    handle.host, handle.port, plan, schedule,
                    connections=args.connections, warmup=8,
                )
                result["transport"] = handle.door.describe()
            finally:
                handle.close()
            if handle.leftover_tasks:  # pragma: no cover - defensive
                raise ReproError(
                    f"{len(handle.leftover_tasks)} asyncio tasks "
                    f"survived the transport drain"
                )
        else:
            if args.chaos and not args.stall_us:
                # Stretch the run so the injection stream actually
                # lands; an unstalled in-memory workload outruns the
                # monkey.
                args.stall_us = 500.0
            if args.stall_us:
                op = register_stalled_point(server, args.stall_us / 1e6)
                requests = [(op, a) for _, a in requests]
            if args.chaos:
                # Mixed read/write workload under seeded fault
                # injection: retrying clients against killed workers,
                # crashed write phases, and injected op errors/stalls.
                record = next(sample_table.iter_records())
                batches = [("insert", [record]), ("delete", [record])]
                retry = RetryPolicy()
                ops = ("point_stall",) if args.stall_us else ("point",)
                with ChaosMonkey(faults, seed=args.chaos_seed,
                                 interval_s=0.005, ops=ops) as monkey:
                    result = run_mixed(
                        server, requests, clients=args.clients,
                        write_batches=batches * max(args.writes, 4),
                        timeout=args.timeout, retry=retry,
                        tolerate_write_errors=True,
                    )
                server.recover()  # clear degraded state the monkey left
                result["chaos"] = monkey.summary()
            elif args.rate:
                result = run_open_loop(server, requests, args.rate,
                                       timeout=args.timeout)
            elif args.writes:
                record = next(sample_table.iter_records())
                batches = [("insert", [record]), ("delete", [record])]
                result = run_mixed(server, requests, clients=args.clients,
                                   write_batches=batches * args.writes,
                                   timeout=args.timeout)
            else:
                result = run_closed_loop(server, requests,
                                         clients=args.clients,
                                         timeout=args.timeout)
        result["server"] = server.stats()
        counters = result["server"]["counters"]
        result["ledger_ok"] = (
            counters["submitted"] == counters["completed"]
            + counters["timeouts"] + counters["errors"]
            + counters["cancelled"]
        )
    print(json.dumps(result, indent=2, sort_keys=True))
    return 0 if result["ledger_ok"] else 1


def cmd_fsck(args) -> int:
    tree = load_qctree_from(args.tree)
    table = None
    if args.table is not None:
        schema = Schema(
            dimensions=tree.dim_names,
            measures=args_measures(args, tree.dim_names),
        )
        table = BaseTable.from_csv(args.table, schema)
        # Check the *stored* tree (never a rebuilt one) against the rows
        # under the codes it was saved with; a legacy file without
        # dictionaries is checked under the CSV's own sorted codes.
        paired = paired_table(tree, table)
        if paired is not None:
            table = paired
    report = fsck_tree(
        # --samples 0 means "check every class".
        tree, table=table, samples=args.samples or None, seed=args.seed
    )
    for issue in report.issues:
        print(issue)
    print(f"{args.tree}: {report.summary()}")
    return 0 if report.ok else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="QC-tree warehouse command line"
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="build a QC-tree from a CSV")
    p_build.add_argument("csv")
    p_build.add_argument("--dims", required=True,
                         help="comma-separated dimension column names")
    p_build.add_argument("--measures", default="",
                         help="comma-separated measure column names")
    p_build.add_argument("--aggregate", default="count",
                         help='aggregate spec, e.g. count or "avg(Sale)"')
    p_build.add_argument("--out", required=True, help="output .qct path")
    p_build.set_defaults(func=cmd_build)

    p_stats = sub.add_parser("stats", help="show a saved tree's statistics")
    p_stats.add_argument("tree")
    p_stats.set_defaults(func=cmd_stats)

    def with_table(p):
        p.add_argument("tree")
        p.add_argument("--table", required=True,
                       help="CSV base table (for label encoding)")
        p.add_argument("--engine", default="frozen",
                       choices=["frozen", "dict"],
                       help="query engine: the read-optimized frozen view "
                            "(default) or the mutable dict-backed tree")
        # What the shared loader reads of flags only some of these
        # commands have; those flags take their defaults from here.
        p.set_defaults(measures=None, segmented=False,
                       refreeze_ratio=0.25, seal_rows=2048)
        return p

    p_point = with_table(sub.add_parser("point", help="answer a point query"))
    p_point.add_argument("cell", help='e.g. "S2,*,f"')
    p_point.set_defaults(func=cmd_point)

    p_range = with_table(sub.add_parser("range", help="answer a range query"))
    p_range.add_argument("spec", help='e.g. "S1|S2,*,f"')
    p_range.set_defaults(func=cmd_range)

    p_ice = with_table(sub.add_parser("iceberg", help="pure iceberg query"))
    p_ice.add_argument("--threshold", type=float, required=True)
    p_ice.add_argument("--op", default=">=", choices=[">=", ">", "<=", "<"])
    p_ice.set_defaults(func=cmd_iceberg)

    p_dump = with_table(sub.add_parser("dump", help="pretty-print the tree"))
    p_dump.set_defaults(func=cmd_dump)

    def with_server(p):
        with_table(p)
        p.add_argument("--workers", type=int, default=4,
                       help="reader worker threads (default 4)")
        p.add_argument("--queue-size", type=int, default=128,
                       help="admission queue bound (default 128)")
        p.add_argument("--timeout", type=float, default=None,
                       help="per-request deadline in seconds (default none)")
        p.add_argument("--warm-keys", type=int, default=32,
                       help="hottest cache keys replayed after each "
                            "snapshot swap (default 32; 0 disables)")
        p.add_argument("--refreeze-ratio", type=float,
                       help="dirty fraction above which a write recompiles "
                            "the frozen view instead of patching it "
                            "(default 0.25; 0 always recompiles, 1 always "
                            "patches)")
        p.add_argument("--processes", type=int, default=0,
                       help="serve reads from N forked worker processes "
                            "over a shared-memory packed snapshot "
                            "(ShardServer; breaks the GIL cap for "
                            "CPU-bound traffic; default 0 = threads only; "
                            "incompatible with --segmented)")
        p.add_argument("--segmented", action="store_true",
                       help="serve from a SegmentedWarehouse: writes land "
                            "in a small head that seals into immutable "
                            "segments, queries scatter-gather, a background "
                            "compactor merges segments (write latency "
                            "bounded by head size, not cube size)")
        p.add_argument("--seal-rows", type=int,
                       help="head rows at which a segmented warehouse "
                            "seals the head into a segment (default 2048; "
                            "only with --segmented)")
        return p

    p_serve = with_server(sub.add_parser(
        "serve",
        help="serve queries over stdin/stdout through a QCServer, or "
             "over TCP with --async",
    ))
    p_serve.add_argument("--cache-size", type=int, default=4096,
                         help="LSN-stamped result cache entries (default "
                              "4096; 0 disables)")
    p_serve.add_argument("--async", dest="use_async", action="store_true",
                         help="serve the line protocol over TCP through "
                              "the asyncio front door instead of stdin "
                              "(stdin becomes a control channel: 'quit' "
                              "or EOF stops the server)")
    p_serve.add_argument("--host", default="127.0.0.1",
                         help="listen address for --async "
                              "(default 127.0.0.1)")
    p_serve.add_argument("--port", type=int, default=0,
                         help="listen port for --async (default 0 = "
                              "ephemeral; the bound port is printed)")
    p_serve.add_argument("--max-connections", type=int, default=10_000,
                         help="concurrent TCP session cap for --async "
                              "(default 10000); beyond it connections "
                              "get one rejection line and are closed")
    p_serve.add_argument("--max-inflight", type=int, default=32,
                         help="per-connection admitted-but-unanswered "
                              "request cap for --async (default 32); at "
                              "the cap the socket stops being read (TCP "
                              "backpressure)")
    p_serve.set_defaults(func=cmd_serve)

    p_bench = with_server(sub.add_parser(
        "bench-serve",
        help="drive a point-query workload through a QCServer and "
             "print a JSON report",
    ))
    p_bench.add_argument("--requests", type=int, default=2000,
                         help="number of point requests (default 2000)")
    p_bench.add_argument("--clients", type=int, default=4,
                         help="closed-loop client threads (default 4)")
    p_bench.add_argument("--rate", type=float, default=None,
                         help="open-loop arrival rate in req/s "
                              "(default: closed loop)")
    p_bench.add_argument("--open-loop", action="store_true",
                         help="drive the workload over the asyncio TCP "
                              "front door on a seeded open-loop arrival "
                              "schedule (coordinated-omission-free; "
                              "requires --rate); reports latency from "
                              "the scheduled send instant per op family")
    p_bench.add_argument("--arrival", default="poisson",
                         choices=["poisson", "uniform"],
                         help="open-loop inter-arrival process "
                              "(default poisson)")
    p_bench.add_argument("--arrival-seed", type=int, default=0,
                         help="arrival schedule seed (default 0)")
    p_bench.add_argument("--connections", type=int, default=4,
                         help="open-loop client connections (default 4)")
    p_bench.add_argument("--stall-us", type=float, default=0.0,
                         help="simulated per-request downstream I/O stall "
                              "in microseconds (default 0)")
    p_bench.add_argument("--writes", type=int, default=0,
                         help="concurrent insert+delete write pairs to "
                              "apply during the run (default 0)")
    p_bench.add_argument("--chaos", action="store_true",
                         help="run the mixed workload under seeded fault "
                              "injection (worker kills, write-pipeline "
                              "crashes, op faults) with retrying clients")
    p_bench.add_argument("--chaos-seed", type=int, default=0,
                         help="chaos injection seed (default 0)")
    p_bench.set_defaults(func=cmd_bench_serve)

    p_fsck = sub.add_parser(
        "fsck", help="verify a saved tree's invariants (exit 2 on corruption)"
    )
    p_fsck.add_argument("tree")
    p_fsck.add_argument("--table", default=None,
                        help="CSV base table enabling aggregate re-derivation")
    p_fsck.add_argument("--measures", default="",
                        help="comma-separated measure column names "
                             "(inferred from the CSV header by default)")
    p_fsck.add_argument("--samples", type=int, default=64,
                        help="classes to re-aggregate (0 = all; default 64)")
    p_fsck.add_argument("--seed", type=int, default=0,
                        help="sampling seed (default 0)")
    p_fsck.set_defaults(func=cmd_fsck)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
