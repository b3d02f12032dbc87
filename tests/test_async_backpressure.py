"""Overload and backpressure properties of the asyncio front door.

The transport's job under pressure is to say *no* early and cheaply:
slow-loris clients must not grow server memory (the read loop stops
reading at the in-flight cap, pushing back through TCP), floods beyond
capacity must be shed with an explicit ``ServerOverloadedError`` on the
wire (not buffered into oblivion), thousands of idle connections must
cost only their sockets, and a close must drain everything it admitted
— no orphaned asyncio task, no stranded future, and an admission ledger
that still balances to the last request.
"""

from __future__ import annotations

import resource
import socket
import threading
import time

import pytest

from repro.core.warehouse import QCWarehouse
from repro.reliability.faults import ServingFaults
from repro.serving import AsyncServerThread, LineClient, QCServer

from .conftest import make_random_table


def ledger_balanced(server) -> bool:
    counters = server.stats()["counters"]
    return counters["submitted"] == (
        counters["completed"] + counters["timeouts"]
        + counters["errors"] + counters["cancelled"]
    )


def make_server(*, workers=1, queue_size=128, stall_s=0.0, cache=0):
    table = make_random_table(9, n_dims=2, cardinality=3, n_rows=20)
    faults = ServingFaults()
    server = QCServer(QCWarehouse(table, aggregate="count"),
                      workers=workers, queue_size=queue_size,
                      cache_size=cache, faults=faults)
    if stall_s:
        faults.arm("op:point", times=None, delay_s=stall_s, exc=None)
    return table, server


def point_line(table) -> str:
    return "point " + ",".join(["*"] * table.n_dims)


# -- slow-loris / in-flight cap ----------------------------------------------


def test_slow_loris_client_is_capped_not_buffered():
    """A client that pipelines 200 requests and never reads gets at most
    ``max_inflight`` admitted at a time: the read loop stops reading its
    socket, so a slow-loris costs one connection's bounded state, not
    200 queued requests."""
    table, server = make_server(workers=1, stall_s=0.05)
    handle = AsyncServerThread(server, port=0, max_inflight=4)
    try:
        before = server.stats()["counters"]["submitted"]
        sock = socket.create_connection((handle.host, handle.port))
        sock.sendall((point_line(table) + "\n").encode() * 200)
        time.sleep(0.3)  # enough for ~6 stalled services, not 200
        submitted = server.stats()["counters"]["submitted"] - before
        # cap (4) + the handful already answered in 0.3 s of 50 ms
        # stalls; nowhere near the 200 the client offered.
        assert submitted <= 12, submitted
        sock.close()
    finally:
        handle.close()
        server.close()
    assert ledger_balanced(server)


def test_broken_peer_mid_flight_keeps_ledger_balanced():
    """A client that pipelines work and disconnects without reading:
    the responder drains the admitted answers into the void, and every
    submission is still accounted for."""
    table, server = make_server(workers=2, stall_s=0.01)
    handle = AsyncServerThread(server, port=0, max_inflight=8)
    try:
        for _ in range(3):
            sock = socket.create_connection((handle.host, handle.port))
            sock.sendall((point_line(table) + "\n").encode() * 20)
            sock.close()  # vanish with responses unread
        deadline = time.time() + 5.0
        while time.time() < deadline and not ledger_balanced(server):
            time.sleep(0.02)
    finally:
        handle.close()
        server.close()
    assert ledger_balanced(server)


# -- early shedding ----------------------------------------------------------


def test_overload_sheds_early_on_the_wire():
    """Offered load ≫ capacity with a tiny admission queue: the excess
    comes back as protocol-level ``ServerOverloadedError`` lines in one
    round trip — workers never see those requests."""
    table, server = make_server(workers=1, queue_size=2, stall_s=0.05)
    handle = AsyncServerThread(server, port=0, max_inflight=64)
    try:
        client = LineClient(handle.host, handle.port)
        n = 40
        for _ in range(n):
            client.send(point_line(table))
        responses = [client.read_response() for _ in range(n)]
        client.close()
        shed = [r for r in responses
                if r.startswith("error: ServerOverloadedError")]
        ok = [r for r in responses if not r.startswith("error:")]
        assert shed, "expected protocol-level shedding under overload"
        assert ok, "some requests should still be served"
        assert len(shed) + len(ok) == n
        assert handle.door.describe()["shed_early"] == len(shed)
        assert server.stats()["counters"]["shed"] == len(shed)
    finally:
        handle.close()
        server.close()
    assert ledger_balanced(server)


def test_connection_cap_rejects_with_one_line():
    table, server = make_server()
    handle = AsyncServerThread(server, port=0, max_connections=3)
    try:
        keep = [socket.create_connection((handle.host, handle.port))
                for _ in range(3)]
        # Let the event loop accept all three before offering a fourth.
        deadline = time.time() + 2.0
        while (time.time() < deadline
               and handle.door.describe()["connections"]["active"] < 3):
            time.sleep(0.01)
        extra = socket.create_connection((handle.host, handle.port))
        line = extra.makefile().readline()
        assert line.startswith("error: ServerOverloadedError"), line
        assert extra.recv(1) == b""  # server closed it
        extra.close()
        for sock in keep:
            sock.close()
        assert handle.door.describe()["connections"]["rejected"] >= 1
    finally:
        handle.close()
        server.close()


# -- many idle connections ---------------------------------------------------


def test_thousands_of_idle_connections_are_cheap():
    """Hold as many idle connections as the fd budget allows (10k on a
    full-size box; both socket ends live in this process, so each costs
    two descriptors) — the server must accept them all and still answer
    new work promptly."""
    soft, _ = resource.getrlimit(resource.RLIMIT_NOFILE)
    n = max(64, min(10_000, (soft - 256) // 2))
    table, server = make_server(workers=2)
    handle = AsyncServerThread(server, port=0, max_connections=n + 10)
    idle = []
    try:
        for _ in range(n):
            idle.append(socket.create_connection((handle.host, handle.port)))
        deadline = time.time() + 30.0
        while (time.time() < deadline
               and handle.door.describe()["connections"]["active"] < n):
            time.sleep(0.05)
        assert handle.door.describe()["connections"]["active"] == n
        # The crowd is idle, not in the way: a working client gets
        # answered with all n connections still open.
        client = LineClient(handle.host, handle.port)
        start = time.perf_counter()
        assert not client.call(point_line(table)).startswith("error:")
        assert time.perf_counter() - start < 2.0
        client.close()
    finally:
        for sock in idle:
            sock.close()
        handle.close()
        server.close()
    assert ledger_balanced(server)


# -- deadline propagation ----------------------------------------------------


def test_budget_prefix_expires_queued_request():
    """A 1 ms budget behind a 50 ms stall: the queued request's deadline
    passes before a worker frees up, so the wire answer is
    ``DeadlineExceededError`` — the client's give-up time was honored
    server-side instead of serving into the void."""
    table, server = make_server(workers=1, stall_s=0.05)
    handle = AsyncServerThread(server, port=0)
    try:
        client = LineClient(handle.host, handle.port)
        client.send(point_line(table))          # occupies the worker
        client.send(f"@0.001 {point_line(table)}")  # expires in queue
        first = client.read_response()
        second = client.read_response()
        client.close()
        assert not first.startswith("error:")
        assert second.startswith("error: DeadlineExceededError"), second
        assert server.stats()["counters"]["timeouts"] >= 1
    finally:
        handle.close()
        server.close()
    assert ledger_balanced(server)


# -- clean drain on close ----------------------------------------------------


def test_close_with_work_in_flight_leaves_nothing_behind():
    """Close the transport while stalled requests are in flight: every
    admitted request resolves, no asyncio task survives the loop, no
    non-daemon thread outlives the close, and the ledger balances."""
    table, server = make_server(workers=2, stall_s=0.03)
    handle = AsyncServerThread(server, port=0, max_inflight=16)
    socks = []
    try:
        for _ in range(4):
            sock = socket.create_connection((handle.host, handle.port))
            sock.sendall((point_line(table) + "\n").encode() * 10)
            socks.append(sock)
        time.sleep(0.05)  # ensure some requests are genuinely in flight
    finally:
        handle.close()
        for sock in socks:
            sock.close()
    assert handle.leftover_tasks == ()
    assert not any(
        t.name.startswith("qcasync") for t in threading.enumerate()
    ), [t.name for t in threading.enumerate()]
    server.close()
    assert ledger_balanced(server)
    leaked = [t for t in threading.enumerate()
              if t is not threading.main_thread() and not t.daemon]
    assert not leaked, leaked


def test_close_is_idempotent_and_unregisters_transport():
    table, server = make_server()
    handle = AsyncServerThread(server, port=0)
    assert server.transports and server.transports[0] is handle.door
    handle.close()
    handle.close()  # second close is a no-op
    assert server.transports == ()
    assert "transports" not in server.stats()
    server.close()
    assert ledger_balanced(server)


def test_health_degrades_when_listener_stops():
    """Readiness is gated on the listener: a registered transport that
    is no longer accepting flips the health report to degraded."""
    table, server = make_server(workers=2)
    handle = AsyncServerThread(server, port=0)
    try:
        assert server.query("health")["ready"]
        # Simulate a wedged listener without tearing down the loop.
        handle.door._closing = True
        report = server.query("health")
        assert not report["ready"]
        assert report["status"] == "degraded"
        handle.door._closing = False
        assert server.query("health")["ready"]
    finally:
        handle.close()
        server.close()


@pytest.mark.parametrize("garbage", [
    "frobnicate 1,2", "point", "iceberg nope", "@-1 point *,*",
    "@abc point *,*", "", "   ", "@nan point *,*", "@inf point *,*",
])
def test_garbage_lines_get_typed_errors_and_hold_no_state(garbage):
    table, server = make_server()
    handle = AsyncServerThread(server, port=0)
    try:
        client = LineClient(handle.host, handle.port)
        # Garbage lines still produce exactly one error response each
        # (blank lines are skipped by the protocol, so follow with a
        # real request to prove the stream stays in sync).
        if garbage.strip():
            client.send(garbage)
            assert client.read_response().startswith("error:")
        else:
            sock_line = garbage + "\n" + point_line(table)
            client.send(sock_line.split("\n")[-1])
            assert not client.read_response().startswith("error:")
        assert not client.call(point_line(table)).startswith("error:")
        client.close()
    finally:
        handle.close()
        server.close()
    assert ledger_balanced(server)
