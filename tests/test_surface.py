"""The served surface is one list, spelled consistently everywhere.

A query family exists in three places — the snapshot's methods, the
server's op table and the line protocol (parser, formatter, framing
rule).  Each gap between them used to be
found at runtime; this file finds it at test time.

The *option* surface is pinned the same way: the keywords of every
constructor, method and function ``benchmarks/e2e/README.md`` § "What
the program must keep exporting" lists, and the flags of every CLI verb,
are literals here — so a new option is a visible diff, the way a new
snapshot op is.
"""

from __future__ import annotations

import argparse
import importlib
import inspect

from repro.__main__ import build_parser
from repro.core.warehouse import QCWarehouse
from repro.serving import QCServer, ServingSnapshot, protocol
from repro.serving.server import SNAPSHOT_OPS

#: The argument each protocol command takes; a command added to the
#: protocol without an entry here fails the test that walks COMMANDS.
ARGUMENT = dict.fromkeys(protocol.ROLLUP_FAMILY | {"point", "class", "open"},
                         " S2,P1,f")
ARGUMENT.update({
    "range": " S1|S2,*,f", "iceberg": " 9 >=", "stats": "", "health": "",
    "insert": " S3,P1,s,5.0", "delete": " S3,P1,s,5.0",
})


def test_every_snapshot_op_is_a_snapshot_method():
    for op in SNAPSHOT_OPS:
        assert callable(getattr(ServingSnapshot, op, None)), op


def test_every_protocol_command_is_parsed_served_formatted_and_framed(
        sales_table):
    commands = set(protocol.COMMANDS) - {"quit", "exit"}
    with QCServer(QCWarehouse(sales_table, "avg(Sale)"), workers=1) as server:
        for command in sorted(commands):
            parsed = protocol.parse_line(command + ARGUMENT[command],
                                         n_dims=sales_table.n_dims)
            assert parsed.command == command
            if parsed.kind == "query":
                assert parsed.op in SNAPSHOT_OPS + ("health",), command
                value = server.query(parsed.op, *parsed.args)
            else:
                assert parsed.kind in ("write", "stats"), command
                value = server.stats() if parsed.kind == "stats" else None
            response = protocol.format_response(parsed, value)
            assert protocol.response_complete(command, response.split("\n"))
    # ... and nothing the snapshot serves is unreachable from the wire,
    # bar the one family the protocol has no grammar for.
    reachable = {
        protocol.COMMAND_OPS.get(command, command) for command in commands
    }
    assert set(SNAPSHOT_OPS) - reachable == {"iceberg_in_range"}


#: ``module:qualified name`` -> its parameters, in order (``self`` /
#: ``cls`` dropped).  ``ShardServer`` and ``AsyncServerThread`` forward
#: ``**kwargs`` to ``QCServer`` and ``AsyncQCServer``.
KEYWORDS = {
    "repro:QCWarehouse": ("table", "aggregate", "cache_size"),
    "repro:QCWarehouse.point": ("raw_cell",),
    "repro:QCWarehouse.range": ("raw_spec",),
    "repro:QCWarehouse.iceberg": ("threshold", "op"),
    "repro:QCWarehouse.maintain": ("inserts", "deletes"),
    "repro:QCWarehouse.save": ("tree_path", "table_path"),
    "repro:QCWarehouse.stats": (),
    "repro:QCWarehouse.snapshot_view": (),
    "repro:QCWarehouse.attach_wal": ("wal_path",),
    "repro.segments:SegmentedWarehouse": (
        "table", "aggregate", "cache_size", "seal_rows",
        "compact_min_segments"),
    "repro.segments:SegmentedWarehouse.point": ("raw_cell",),
    "repro.segments:SegmentedWarehouse.range": ("raw_spec",),
    "repro.segments:SegmentedWarehouse.iceberg": ("threshold", "op"),
    "repro.segments:SegmentedWarehouse.maintain": ("inserts", "deletes"),
    "repro.segments:SegmentedWarehouse.compact_once": (),
    "repro.segments:SegmentedWarehouse.checkpoint": ("directory",),
    "repro.segments:SegmentedWarehouse.stats": (),
    "repro.segments:SegmentedWarehouse.close": (),
    "repro.serving:QCServer": (
        "warehouse", "workers", "queue_size", "default_timeout",
        "cache_size", "name", "supervised",
        "supervise_interval", "quarantine_after", "breaker", "faults"),
    "repro.serving:QCServer.submit": ("op", "args", "timeout", "kwargs"),
    "repro.serving:QCServer.write": ("inserts", "deletes"),
    "repro.serving:QCServer.stats": (),
    "repro.serving:QCServer.close": ("timeout",),
    "repro.shard:ShardServer": (
        "warehouse", "processes", "workers", "kwargs"),
    "repro.shard:ShardServer.submit": ("op", "args", "timeout", "kwargs"),
    "repro.shard:ShardServer.write": ("inserts", "deletes"),
    "repro.shard:ShardServer.map_query": ("op", "calls", "timeout"),
    "repro.shard:ShardServer.stats": (),
    "repro.shard:ShardServer.close": ("timeout",),
    "repro.serving:AsyncServerThread": (
        "server", "host", "port", "name", "kwargs"),
    "repro.serving:AsyncServerThread.close": (),
    "repro.serving:AsyncQCServer": (
        "server", "host", "port", "max_connections", "max_inflight",
        "default_timeout", "name"),
    "repro.serving:LineClient": ("host", "port", "timeout"),
    "repro.serving:LineClient.call": ("line",),
    "repro.serving:LineClient.close": (),
    "repro.serving:ArrivalSchedule": ("rate_hz", "n", "kind", "seed"),
    "repro.serving:run_open_loop_tcp": (
        "host", "port", "plan", "schedule", "connections", "warmup"),
    "repro.serving:parse_line": ("line", "n_dims"),
    "repro.serving.protocol:format_response": ("parsed", "value"),
    "repro.shard:attach_packed": ("buffer", "verify"),
    "repro.shard:pack_snapshot_bytes": ("tree", "table", "stamp"),
    "repro:BaseTable.from_records": ("records", "schema"),
    "repro:Schema": ("dimensions", "measures"),
    "repro:locate": ("tree", "cell", "counter"),
    "repro:point_query_raw": ("tree", "table", "raw_cell"),
    "repro:range_query_raw": ("tree", "table", "raw_spec"),
    "repro.cube.aggregates:values_close": ("a", "b", "rel_tol", "abs_tol"),
    "repro.data.synthetic:zipf_table": (
        "n_rows", "n_dims", "cardinality", "zipf", "seed", "n_measures",
        "measure_high"),
    "repro.data.workloads:point_query_workload": (
        "table", "n_queries", "seed", "star_probability",
        "miss_probability"),
    "repro.data.workloads:range_query_workload": (
        "table", "n_queries", "seed", "min_range_dims", "max_range_dims",
        "values_per_range", "star_probability"),
}

#: CLI verb -> its positionals and flags, in declaration order.
CLI_FLAGS = {
    "build": ("csv", "--dims", "--measures", "--aggregate", "--out"),
    "stats": ("directory",),
    "point": ("directory", "cell"),
    "range": ("directory", "spec"),
    "iceberg": ("directory", "--threshold", "--op"),
    "dump": ("directory",),
    "serve": (
        "directory", "--workers", "--queue-size", "--timeout",
        "--processes", "--segmented", "--seal-rows",
        "--cache-size", "--async", "--host", "--port", "--max-connections",
        "--max-inflight"),
    "fsck": ("directory",),
}


def test_keyword_surface_is_pinned():
    found = {}
    for name in KEYWORDS:
        module, _, path = name.partition(":")
        target = importlib.import_module(module)
        for part in path.split("."):
            target = getattr(target, part)
        found[name] = tuple(
            p for p in inspect.signature(target).parameters
            if p not in ("self", "cls")
        )
    assert found == KEYWORDS


def test_cli_flag_surface_is_pinned():
    verbs = next(
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ).choices
    found = {
        verb: tuple(
            action.option_strings[0] if action.option_strings
            else action.dest
            for action in parser._actions
            if not isinstance(action, argparse._HelpAction)
        )
        for verb, parser in verbs.items()
    }
    assert found == CLI_FLAGS
