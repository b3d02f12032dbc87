"""Command-line interface for QC-tree warehouses.

The CLI wraps the most common warehouse operations so a reproduced
pipeline can be driven from the shell::

    python -m repro build sales.csv --dims Store,Product,Season \\
        --measures Sale --aggregate "avg(Sale)" --out sales.d
    python -m repro stats sales.d
    python -m repro point sales.d "S2,*,f"
    python -m repro range sales.d "S1|S2,*,f"
    python -m repro iceberg sales.d --threshold 9
    python -m repro fsck sales.d
    python -m repro dump sales.d
    python -m repro serve sales.d --workers 4

``build`` writes a checkpoint directory (:mod:`repro.core.manifest`: the
base table as a piece file and a manifest naming its checksum, the
schema and the aggregate); every other verb opens it through
``recover`` with the write-ahead log ``DIR/wal.log``, so it also sees
the writes a killed ``serve`` logged.  Opening builds the tree from the table.

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

Each write is fsynced to ``DIR/wal.log`` before its ``OK`` is sent;
``quit`` or EOF closes the server and checkpoints ``DIR``.  One
``serve`` runs per directory: it holds a lock on ``DIR/serve.lock``, and
a second one exits 1 with an ``error:`` line.

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
corruption: a table that fails its checksum or does not read, or a
tree that fails verification.
"""

from __future__ import annotations

import argparse
import fcntl
import math
import os
import sys
from collections import Counter

from repro import __version__
from repro.core.manifest import load_manifest, manifest_schema
from repro.core.warehouse import QCWarehouse
from repro.cube.schema import Schema
from repro.cube.table import BaseTable
from repro.errors import RecoveryError, ReproError
from repro.reliability.fsck import FsckReport
from repro.segments import SegmentedWarehouse
from repro.serving.protocol import (
    label_parsers,
    parse_cell,
    parse_range_spec as parse_range,
    read_labels,
)

#: The write-ahead log ``serve`` keeps inside the checkpoint directory.
WAL_NAME = "wal.log"


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


def _seconds(text: str) -> float:
    """An ``argparse`` ``type=`` for a deadline: positive and finite
    (``0`` or less expires every request unseen)."""
    value = float(text)
    if not 0 < value < math.inf:  # nan fails both comparisons
        raise argparse.ArgumentTypeError(
            f"must be a positive number of seconds, got {text}")
    return value


_seconds.__name__ = "float"


def _schema_from_args(args) -> Schema:
    return Schema(
        dimensions=tuple(args.dims.split(",")),
        measures=tuple(args.measures.split(",")) if args.measures else (),
    )


def _open_store(directory, segmented=None, **options) -> QCWarehouse:
    """The store in checkpoint ``directory``, for every verb: the
    manifest's schema, then ``recover`` with ``DIR/wal.log``.  None for
    ``segmented`` lets the directory pick the class (sealed segments
    make it a SegmentedWarehouse); ``options`` go to its constructor."""
    payload = load_manifest(directory)
    schema = manifest_schema(payload, directory)
    if segmented is None:
        segmented = bool(payload["segments"])
    store = SegmentedWarehouse if segmented else QCWarehouse
    return store.recover(directory, os.path.join(directory, WAL_NAME),
                         schema, **options)


def cmd_build(args) -> int:
    if os.path.isdir(args.out) and os.listdir(args.out):
        raise ReproError(f"{args.out} is not empty; build writes a new store")
    schema = _schema_from_args(args)
    table = BaseTable.from_csv(args.csv, schema)
    warehouse = QCWarehouse(table, aggregate=args.aggregate)
    warehouse.checkpoint(args.out)
    stats = warehouse.stats()
    print(
        f"built {args.out}: {stats['classes']} classes, "
        f"{stats['nodes']} nodes, {stats['links']} links "
        f"from {stats['n_rows']} rows"
    )
    return 0


def cmd_stats(args) -> int:
    store = _open_store(args.directory)
    sizes = Counter()
    for piece in store.pieces():
        sizes.update(piece.frozen_view().stats())
    for key, value in sizes.items():
        print(f"{key}: {value}")
    print(f"aggregate: {store.aggregate.name}")
    print(f"dimensions: {', '.join(store.table.schema.dimension_names)}")
    return 0


def cmd_point(args) -> int:
    store = _open_store(args.directory)
    parsers = label_parsers(store.label_types)
    value = store.point(read_labels(parse_cell(args.cell), parsers))
    print("NULL" if value is None else value)
    return 0


def cmd_range(args) -> int:
    store = _open_store(args.directory)
    parsers = label_parsers(store.label_types)
    results = store.range(read_labels(parse_range(args.spec), parsers))
    for cell, value in sorted(results.items()):
        print(f"{','.join(map(str, cell))}\t{value}")
    print(f"# {len(results)} cells", file=sys.stderr)
    return 0


def cmd_iceberg(args) -> int:
    store = _open_store(args.directory)
    for upper_bound, value in store.iceberg(args.threshold, op=args.op):
        print(f"{','.join(map(str, upper_bound))}\t{value}")
    return 0


def cmd_dump(args) -> int:
    for piece in _open_store(args.directory).pieces():
        print(f"# {piece.name}")
        print(piece.frozen_view().dump(decoder=piece.table.decode_value))
    return 0


def _make_server(warehouse, args):
    """Build the server the flags ask for: a thread-pool ``QCServer``,
    or — with ``--processes N`` — a multi-process ``ShardServer`` over a
    shared-memory packed snapshot (with SIGTERM segment cleanup so a
    supervisor kill leaves no ``/dev/shm`` litter)."""
    from repro.serving.server import QCServer

    options = dict(
        workers=args.workers, queue_size=args.queue_size,
        default_timeout=args.timeout, cache_size=args.cache_size,
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
    load_manifest(args.directory)  # no lock file in a non-store
    # One serve per directory: two would interleave DIR/wal.log and
    # leave it unopenable.  The lock dies with the descriptor.
    with open(os.path.join(args.directory, "serve.lock"), "w") as lock:
        try:
            fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise ReproError(f"{args.directory} is already being served "
                             "(serve.lock is held)") from None
        options = {"seal_rows": args.seal_rows} if args.segmented else {}
        warehouse = _open_store(args.directory, args.segmented, **options)
        try:
            if args.segmented:
                warehouse.start_compactor()
            server = _make_server(warehouse, args)
        except BaseException:
            # A stranded segment compactor (non-daemon) would hang exit.
            warehouse.close()
            raise
        health = warehouse.segment_health()
        detail = (f"{health['segments_live']} segments" if health
                  else f"{warehouse.serving_tree.n_classes} classes")
        fleet = (f"{args.processes} processes, " if args.processes else "")
        serve = _serve_async if args.use_async else _serve_lines
        try:
            code = serve(server, args,
                         f"{detail}, {fleet}{args.workers} workers")
        finally:
            server.close()
        # Every acknowledged write is in the log already; the checkpoint
        # folds them into DIR and empties the log.
        warehouse.checkpoint(args.directory)
    return code


def _serve_lines(server, args, detail: str) -> int:
    """``serve``: the line protocol on stdin/stdout until ``quit`` or
    EOF.  Parsing and response framing come from
    :mod:`repro.serving.protocol` — the same definition the asyncio TCP
    front door speaks, so stdin and TCP sessions are interchangeable."""
    from repro.serving import protocol

    print(
        f"serving {args.directory}: {detail}, queue {args.queue_size} "
        f"(point/range/iceberg/rollup/…; 'quit' to stop)",
        file=sys.stderr,
    )
    parse = protocol.line_parser(server.warehouse)
    for raw_line in sys.stdin:
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            parsed = parse(line)
            if parsed.kind == "quit":
                break
            if parsed.kind == "stats":
                value = server.stats()
            elif parsed.kind == "write":
                value = getattr(server, parsed.command)([parsed.args[0]])
            else:
                # Through the worker pool unless the answer is a cache
                # hit; ``health`` is never cached, so its reply still
                # proves a live worker, not just a live control thread.
                value = server.query(parsed.op, *parsed.args,
                                     timeout=parsed.timeout, **parsed.kwargs)
            print(protocol.format_response(parsed, value), flush=True)
        except ReproError as exc:
            print(protocol.format_error(exc), flush=True)
    return 0


def _serve_async(server, args, detail: str) -> int:
    """``serve --async``: the asyncio TCP front door in the foreground.

    The listener runs in a dedicated loop thread
    (:class:`~repro.serving.async_server.AsyncServerThread`); stdin
    stays a control channel — EOF or a ``quit`` line drains the
    transport.
    """
    from repro.serving.async_server import AsyncServerThread

    handle = AsyncServerThread(
        server, host=args.host, port=args.port,
        max_connections=args.max_connections,
        max_inflight=args.max_inflight,
        default_timeout=args.timeout,
    )
    print(
        f"serving {args.directory} on {handle.host}:{handle.port} (async): "
        f"{detail}, queue {args.queue_size}, "
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
    if handle.leftover_tasks:  # pragma: no cover - defensive
        print(
            f"error: {len(handle.leftover_tasks)} asyncio tasks survived "
            f"the drain", file=sys.stderr,
        )
        return 1
    return 0


def cmd_fsck(args) -> int:
    # An unreadable manifest, or one naming no schema, is an error
    # (exit 1); a sound manifest naming a damaged table is corruption.
    manifest_schema(load_manifest(args.directory), args.directory)
    try:
        store = _open_store(args.directory)
    except RecoveryError as exc:
        report = FsckReport()
        report.add("unreadable", str(exc))
    else:
        report = store.verify(deep=True)
    for issue in report.issues:
        print(issue)
    print(f"{args.directory}: {report.summary()}")
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
    p_build.add_argument("--out", required=True,
                         help="checkpoint directory to create")
    p_build.set_defaults(func=cmd_build)

    def with_directory(p):
        p.add_argument("directory", help="checkpoint directory (build --out)")
        return p

    p_stats = with_directory(
        sub.add_parser("stats", help="show a store's tree statistics"))
    p_stats.set_defaults(func=cmd_stats)

    p_point = with_directory(
        sub.add_parser("point", help="answer a point query"))
    p_point.add_argument("cell", help='e.g. "S2,*,f"')
    p_point.set_defaults(func=cmd_point)

    p_range = with_directory(
        sub.add_parser("range", help="answer a range query"))
    p_range.add_argument("spec", help='e.g. "S1|S2,*,f"')
    p_range.set_defaults(func=cmd_range)

    p_ice = with_directory(
        sub.add_parser("iceberg", help="pure iceberg query"))
    p_ice.add_argument("--threshold", type=float, required=True)
    p_ice.add_argument("--op", default=">=", choices=[">=", ">", "<=", "<"])
    p_ice.set_defaults(func=cmd_iceberg)

    p_dump = with_directory(
        sub.add_parser("dump", help="pretty-print every piece's tree"))
    p_dump.set_defaults(func=cmd_dump)

    p_serve = with_directory(sub.add_parser(
        "serve",
        help="serve queries over stdin/stdout through a QCServer, or "
             "over TCP with --async; writes are logged to DIR/wal.log "
             "and checkpointed into DIR on quit",
    ))
    # What stays settable, and why.  --processes / --segmented / --async
    # each pick a server, store or transport that benchmarks/e2e has a
    # workload on both sides of (shard_bulk, ingest_seg, door_tcp against
    # olap_inproc); the rest are deployment and tuning values (pool and
    # queue sizes, deadlines, cache sizes, listen address, connection
    # caps, the seal threshold).  The read engine and the refreeze
    # thresholds are not here: reads always come from the frozen view,
    # and the refreeze mode follows the dirty share of a batch.
    p_serve.add_argument("--workers", type=_int_in(1), default=4,
                         help="reader worker threads (default 4)")
    p_serve.add_argument("--queue-size", type=_int_in(1), default=128,
                         help="admission queue bound (default 128)")
    p_serve.add_argument("--timeout", type=_seconds, default=None,
                         help="per-request deadline in seconds (default none)")
    p_serve.add_argument("--processes", type=_int_in(0), default=0,
                         help="serve reads from N forked worker processes "
                              "over a shared-memory packed snapshot "
                              "(ShardServer; breaks the GIL cap for "
                              "CPU-bound traffic; default 0 = threads only; "
                              "incompatible with --segmented)")
    p_serve.add_argument("--segmented", action="store_true",
                         help="open DIR as a SegmentedWarehouse: writes land "
                              "in a small head that seals into immutable "
                              "segments, queries scatter-gather, a background "
                              "compactor merges segments (write latency "
                              "bounded by head size, not cube size); plain "
                              "serve refuses a DIR holding segments")
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

    p_fsck = with_directory(sub.add_parser(
        "fsck", help="verify a store's tables and the trees built from "
                     "them (exit 2 on corruption)"
    ))
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
