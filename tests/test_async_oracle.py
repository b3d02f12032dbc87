"""Differential oracle: asyncio transport ≡ direct ``QCServer.submit``.

Every answer that crosses the TCP front door must be byte-identical to
what the same request produces through the in-process future API — the
transport is a carrier, never an interpreter.  Hypothesis drives random
programs over all ten snapshot ops (plus writes mid-stream), and each
transport answer is compared against the expected response *formatted
through the same protocol module*, so any divergence is in the
transport, not the formatting.

The shard-server leg runs the same program shape against a forked
multi-process fleet (seeded ``random`` programs rather than hypothesis:
a process fleet per hypothesis example would dominate the suite's
runtime without adding coverage — the transport code under test is
identical either way).
"""

from __future__ import annotations

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.warehouse import QCWarehouse
from repro.errors import CircuitOpenError
from repro.serving import AsyncServerThread, LineClient, QCServer, protocol
from repro.shard import ShardServer

from .conftest import make_random_table

#: Ops whose request line takes one cell argument.
CELL_COMMANDS = (
    "point", "rollup", "rollups", "drilldowns", "rollup_exceptions",
    "class", "open",
)


def expected_response(server, parsed: protocol.ParsedLine) -> str:
    """What the transport must answer, computed through the direct
    future API and the shared formatter."""
    try:
        if parsed.kind == "write":
            getattr(server, parsed.command)([parsed.args[0]])
            return protocol.format_response(parsed, None)
        value = server.submit(parsed.op, *parsed.args,
                              timeout=parsed.timeout).result()
        return protocol.format_response(parsed, value)
    except Exception as exc:
        return protocol.format_error(exc)


def assert_answers_match(got: str, want: str, line: str) -> None:
    if got.startswith("error:"):
        # Compare by error *type*: message text may embed state that a
        # concurrent run could phrase differently; the wire contract
        # clients dispatch on is the type prefix.
        assert got.split(":")[1] == want.split(":")[1], (line, got, want)
    elif line.split()[-1] == "health":
        # Health answers embed live readings (oldest read age, transport
        # request counters) that tick between the two calls; the oracle
        # property is the stable routing verdict.
        import json

        got_d, want_d = json.loads(got), json.loads(want)
        for key in ("status", "live", "ready", "closed"):
            assert got_d[key] == want_d[key], (key, got, want)
    else:
        assert got == want, (line, got, want)


def check_line(client, server, table, line: str) -> None:
    got = client.call(line)
    parsed = protocol.parse_line(line, n_dims=table.n_dims)
    want = expected_response(server, parsed)
    assert_answers_match(got, want, line)


def render_cell(table, values) -> str:
    return ",".join(
        "*" if v is None else str(table.decode_value(j, v % max(
            1, table.cardinality(j))))
        for j, v in enumerate(values)
    )


def program_lines(table, rng: random.Random, n: int) -> list:
    """``n`` random request lines exercising every op family."""
    lines = []
    for _ in range(n):
        roll = rng.random()
        cell = render_cell(
            table,
            [None if rng.random() < 0.4 else rng.randrange(8)
             for _ in range(table.n_dims)],
        )
        if roll < 0.55:
            command = rng.choice(CELL_COMMANDS)
            lines.append(f"{command} {cell}")
        elif roll < 0.7:
            spec = []
            for j in range(table.n_dims):
                r = rng.random()
                card = max(1, table.cardinality(j))
                if r < 0.3:
                    spec.append("*")
                elif r < 0.6:
                    spec.append(str(table.decode_value(j, rng.randrange(card))))
                else:
                    spec.append("|".join(
                        str(table.decode_value(j, c))
                        for c in rng.sample(range(card), min(2, card))
                    ))
            lines.append("range " + ",".join(spec))
        elif roll < 0.85:
            lines.append(f"iceberg {rng.randint(1, 6)} "
                         f"{rng.choice(['>=', '>', '<=', '<'])}")
        elif roll < 0.95:
            lines.append(f"point {cell}")
        else:
            lines.append("health" if rng.random() < 0.5 else f"open {cell}")
    return lines


class WriteStream:
    """Valid mid-stream writes: deletes only remove records previously
    inserted by this stream, so every write succeeds on both paths (a
    *failing* identical batch would be quarantined by the server after
    repeated crashes — correct behavior, but stateful in a way that
    would make the two paths legitimately diverge)."""

    def __init__(self, table, rng: random.Random):
        self.table = table
        self.rng = rng
        self.pool: list = []

    def next_line(self) -> str:
        if self.pool and self.rng.random() < 0.4:
            return f"delete {self.pool.pop()}"
        record = ",".join(
            str(self.table.decode_value(
                j, self.rng.randrange(max(1, self.table.cardinality(j)))
            ))
            for j in range(self.table.n_dims)
        ) + f",{float(self.rng.randint(1, 9))}"
        self.pool.append(record)
        return f"insert {record}"


def test_shard_server_oracle_over_async_transport():
    """The same program shape against a forked two-process fleet: the
    transport bridges ``ShardServer.submit`` futures identically,
    mid-stream writes (which republish the shared-memory snapshot)
    included.

    First in the module on purpose: the fleet must fork while no
    transport's loop thread is running, and ``thread_setup`` below keeps
    one running from its first use to the end of the module."""
    table = make_random_table(17, n_dims=3, cardinality=3, n_rows=30)
    server = ShardServer(QCWarehouse(table, aggregate="count"),
                         processes=2, cache_size=0)
    handle = None
    try:
        # Transport starts after the fleet forks (the fork-safety order
        # the shard server warns about).
        handle = AsyncServerThread(server, port=0)
        for seed in (1, 2, 3):
            rng = random.Random(seed)
            writes = WriteStream(table, rng)
            client = LineClient(handle.host, handle.port)
            try:
                for i, line in enumerate(program_lines(table, rng, 10)):
                    check_line(client, server, table, line)
                    if i % 5 == 4:
                        check_line(client, server, table,
                                   writes.next_line())
            finally:
                client.close()
    finally:
        if handle is not None:
            handle.close()
        server.close()


@pytest.fixture(scope="module")
def thread_setup():
    table = make_random_table(13, n_dims=3, cardinality=3, n_rows=40)
    server = QCServer(QCWarehouse(table, aggregate="sum(m)"), workers=2,
                      cache_size=0)
    handle = AsyncServerThread(server, port=0)
    yield table, server, handle
    handle.close()
    server.close()


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_async_answers_equal_direct_submit(thread_setup, seed):
    """Random all-op programs with mid-stream writes: transport answer
    == direct-submit answer, for every line, in order."""
    table, server, handle = thread_setup
    rng = random.Random(seed)
    writes = WriteStream(table, rng)
    client = LineClient(handle.host, handle.port)
    try:
        for i, line in enumerate(program_lines(table, rng, 12)):
            check_line(client, server, table, line)
            if i % 4 == 3:
                # Mid-stream write over the wire; subsequent queries see
                # the new snapshot on both paths.
                check_line(client, server, table, writes.next_line())
    finally:
        client.close()


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_pipelined_read_only_oracle(thread_setup, seed):
    """Many requests pipelined before any response is read: responses
    come back in submission order and still match direct submit."""
    table, server, handle = thread_setup
    rng = random.Random(seed ^ 0xA5A5)
    lines = program_lines(table, rng, 10)
    # Read-only lines only: pipelined writes would interleave with the
    # expected-answer computation below.
    lines = [ln for ln in lines if not ln.startswith(("insert", "delete"))]
    client = LineClient(handle.host, handle.port)
    try:
        for line in lines:
            client.send(line)
        for line in lines:
            got = client.read_response()
            parsed = protocol.parse_line(line, n_dims=table.n_dims)
            want = expected_response(server, parsed)
            assert_answers_match(got, want, line)
    finally:
        client.close()


def test_budget_prefix_answers_or_expires(thread_setup):
    """A generous @budget answers normally; queries agree with direct
    submit carrying the same timeout."""
    table, server, handle = thread_setup
    client = LineClient(handle.host, handle.port)
    try:
        line = "@5 point " + ",".join(["*"] * table.n_dims)
        check_line(client, server, table, line)
    finally:
        client.close()


def close_breaker(server, table) -> None:
    """Close ``server``'s breaker the way a client would, should
    anything have left this module-scoped server's breaker open
    (readiness is false then): wait out the cooldown and let one good
    ``point`` be the half-open probe.  (The refused cells of the random
    programs above do not open it: a request the op refuses is the
    client's error, not a breaker failure.)"""
    deadline = time.monotonic() + 10.0
    while server.breaker.state != "closed":
        assert time.monotonic() < deadline, server.breaker.snapshot()
        try:
            server.query("point", ("*",) * table.n_dims)
        except CircuitOpenError:
            time.sleep(0.05)


def test_transport_registers_in_stats_and_health(thread_setup):
    table, server, handle = thread_setup
    stats = server.stats()
    assert any(
        t["kind"] == "asyncio" and t["listening"]
        for t in stats["transports"]
    )
    close_breaker(server, table)
    report = server.query("health")
    assert report["transports"][0]["port"] == handle.port
    assert report["ready"]
