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

``serve --processes N`` serves reads from N forked worker processes
over one shared-memory packed snapshot
(:class:`~repro.shard.server.ShardServer`) instead of GIL-bound threads;
SIGTERM cleanup of ``/dev/shm`` segments is installed automatically.

``serve --async --port N`` serves the same line protocol over TCP
through the asyncio front door (:mod:`repro.serving.async_server`)
instead of stdin — tens of thousands of connections, per-connection
in-flight caps, early protocol-level load shedding, and ``@<seconds>``
deadline budgets; stdin becomes a control channel (``quit``/EOF stops).

Exit status: 0 on success, 1 on any error (bad input, a command line
``argparse`` rejects, missing or corrupt files), 2 when ``fsck`` finds
corruption.
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


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1 like every other error; ``argparse``'s own 2
    is what ``fsck`` reports corruption with."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _int_in(low: int, high=None):
    """An ``argparse`` ``type=`` for an integer flag in ``low..high``:
    out of range is a usage error (one ``error:`` line, exit 1), not a
    traceback from whatever constructor the number reaches."""
    bounds = f">= {low}" if high is None else f"in {low}..{high}"

    def parse(text: str) -> int:
        value = int(text)
        if value < low or (high is not None and value > high):
            raise argparse.ArgumentTypeError(f"must be {bounds}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid … value"
    return parse


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
            piece.table, aggregate=aggregate, seal_rows=args.seal_rows,
        )
        warehouse.start_compactor()
        return warehouse
    return QCWarehouse(piece.table, aggregate=aggregate, tree=piece.tree)


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
    # Queries go through the worker pool unless the answer is a cache
    # hit; ``health`` is never cached, so its reply still proves a live
    # worker, not just a live control thread.
    value = server.query(
        parsed.op, *parsed.args, timeout=parsed.timeout, **parsed.kwargs
    )
    print(protocol.format_response(parsed, value), file=out, flush=True)
    return True


def _make_server(warehouse, args):
    """Build the server the flags ask for: a thread-pool ``QCServer``,
    or — with ``--processes N`` — a multi-process ``ShardServer`` over a
    shared-memory packed snapshot (with SIGTERM segment cleanup so a
    supervisor kill leaves no ``/dev/shm`` litter)."""
    from repro.serving.server import QCServer

    options = dict(
        workers=args.workers, queue_size=args.queue_size,
        default_timeout=args.timeout, warm_keys=args.warm_keys,
        cache_size=args.cache_size,
    )
    if args.processes:
        if args.segmented:
            raise ReproError(
                "--processes serves one packed snapshot and cannot "
                "scatter-gather a --segmented warehouse"
            )
        from repro.shard import ShardServer, install_signal_cleanup

        install_signal_cleanup()
        return ShardServer(warehouse, processes=args.processes, **options)
    return QCServer(warehouse, **options)


def cmd_serve(args) -> int:
    warehouse = _load_warehouse(args)
    try:
        server = _make_server(warehouse, args)
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
    parser = _Parser(
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
        # What the shared loader reads of flags only some of these
        # commands have; those flags take their defaults from here.
        p.set_defaults(measures=None, segmented=False)
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

    p_serve = with_table(sub.add_parser(
        "serve",
        help="serve queries over stdin/stdout through a QCServer, or "
             "over TCP with --async",
    ))
    # What stays settable, and why.  --processes / --segmented / --async
    # each pick a server, store or transport that benchmarks/e2e has a
    # workload on both sides of (shard_bulk, ingest_seg, door_tcp against
    # olap_inproc); the rest are deployment and tuning values (pool and
    # queue sizes, deadlines, cache sizes, listen address, connection
    # caps, the seal threshold).  The read engine and the refreeze
    # thresholds are not here: the code chooses those from what it
    # observes (degraded or not; the dirty share of a batch).
    p_serve.add_argument("--workers", type=_int_in(1), default=4,
                         help="reader worker threads (default 4)")
    p_serve.add_argument("--queue-size", type=_int_in(1), default=128,
                         help="admission queue bound (default 128)")
    p_serve.add_argument("--timeout", type=float, default=None,
                         help="per-request deadline in seconds (default none)")
    p_serve.add_argument("--warm-keys", type=int, default=32,
                         help="hottest cache keys replayed after each "
                              "snapshot swap (default 32; 0 disables)")
    p_serve.add_argument("--processes", type=_int_in(0), default=0,
                         help="serve reads from N forked worker processes "
                              "over a shared-memory packed snapshot "
                              "(ShardServer; breaks the GIL cap for "
                              "CPU-bound traffic; default 0 = threads only; "
                              "incompatible with --segmented)")
    p_serve.add_argument("--segmented", action="store_true",
                         help="serve from a SegmentedWarehouse: writes land "
                              "in a small head that seals into immutable "
                              "segments, queries scatter-gather, a background "
                              "compactor merges segments (write latency "
                              "bounded by head size, not cube size)")
    p_serve.add_argument("--seal-rows", type=_int_in(1), default=2048,
                         help="head rows at which a segmented warehouse "
                              "seals the head into a segment (default 2048; "
                              "only with --segmented)")
    p_serve.add_argument("--cache-size", type=_int_in(0), default=4096,
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
    p_serve.add_argument("--port", type=_int_in(0, 65535), default=0,
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
