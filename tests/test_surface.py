"""The served surface is one list, spelled consistently everywhere.

A query family exists in four places — the snapshot's methods, the
server's op table, the line protocol (parser, formatter, framing rule)
and the shard router's prefix list.  Each gap between them used to be
found at runtime; this file finds it at test time.
"""

from __future__ import annotations

from repro.core.warehouse import QCWarehouse
from repro.serving import QCServer, ServingSnapshot, protocol
from repro.serving.server import SNAPSHOT_OPS
from repro.shard import ShardRouter

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


def test_router_prefixes_only_snapshot_ops():
    assert set(ShardRouter.PREFIX_OPS) <= set(SNAPSHOT_OPS)
    for op in ShardRouter.PREFIX_OPS:
        assert ShardRouter.prefix_key(op, (("S1", "*"),)) == "S1"
