"""A cache hit is answered by the thread that read it.

``QCServer.cached_answer`` is the one hit path: the asyncio door calls
it on its loop thread, the synchronous ``query()`` family on the
caller's.  These tests pin what that buys (a hit needs no worker), what
it must not change (wire order and framing, the ledger, the cache's own
counters, no stale answer across a publish) and where it must stand
aside (a fault plan, a breaker that is not CLOSED, everything that is
not cacheable).
"""

from __future__ import annotations

import socket
import threading

import pytest

from repro.core.query_cache import MISS
from repro.core.warehouse import QCWarehouse
from repro.errors import CircuitOpenError
from repro.reliability.faults import ServingFaults
from repro.serving import (
    AsyncServerThread,
    CircuitBreaker,
    LineClient,
    QCServer,
)
from repro.serving.health import CLOSED, OPEN

from .test_async_backpressure import ledger_balanced
from .test_serving_faults import wait_until

HOT = ("S2", "*", "f")
HOT_LINE = "point S2,*,f"


def counters(server) -> dict:
    return server.stats()["counters"]


def cache_hits(server) -> int:
    return server.stats()["cache"]["hits"]


@pytest.fixture
def warehouse(sales_table):
    return QCWarehouse(sales_table, aggregate="avg(Sale)")


@pytest.fixture
def served(warehouse):
    """``(server, door handle)`` with HOT already cached."""
    server = QCServer(warehouse, workers=2)
    handle = AsyncServerThread(server, port=0)
    assert server.point(HOT) == 9.0  # the miss that fills the cache
    yield server, handle
    handle.close()
    server.close()
    assert handle.leftover_tasks == ()
    assert ledger_balanced(server)


class Gate:
    """An op that parks every worker that runs it until released."""

    def __init__(self, server, workers: int):
        self.release = threading.Event()
        self.entered = threading.Semaphore(0)
        server.register_op("gate", self._op)
        self.futures = [server.submit("gate") for _ in range(workers)]
        for _ in range(workers):
            assert self.entered.acquire(timeout=5.0), "a worker never parked"

    def _op(self, snapshot):
        self.entered.release()
        assert self.release.wait(30.0)
        return "released"

    def open(self) -> None:
        self.release.set()
        for future in self.futures:
            assert future.result(timeout=5.0) == "released"


def test_a_hit_needs_no_worker(served):
    """Both workers parked: a cached ``point`` still answers — through
    the door (loop thread) and through ``server.point()`` (caller's
    thread) — with the ledger and the cache counting it exactly once."""
    server, handle = served
    gate = Gate(server, workers=2)
    try:
        before, hits = counters(server), cache_hits(server)
        client = LineClient(handle.host, handle.port, timeout=2.0)
        try:
            assert client.call(HOT_LINE) == "9.0"
            assert client.call(HOT_LINE) == "9.0"
        finally:
            client.close()
        answers = []
        caller = threading.Thread(
            target=lambda: answers.append(server.point(HOT))
        )
        caller.start()
        caller.join(2.0)
        assert not caller.is_alive(), "server.point() waited for a worker"
        assert answers == [9.0]
        after = counters(server)
        assert after["submitted"] - before["submitted"] == 3
        assert after["completed"] - before["completed"] == 3
        assert cache_hits(server) - hits == 3
        assert server.stats()["ops"]["point"]["count"] == 4  # + the fill
    finally:
        gate.open()
    assert ledger_balanced(server)


def test_pipelined_miss_hit_hit_keeps_submission_order(warehouse):
    """``[stalled miss, hit, hit]`` in one socket write: the hits are
    *answered* at once (they need no worker, and the one worker is busy
    with the miss) yet nothing reaches the wire before the miss does —
    then all three leave in submission order, framed as ever."""
    cold = ("S1", "*", "*")
    stalled = threading.Event()
    proceed = threading.Event()

    def point(snapshot, cell):
        if cell == cold:
            stalled.set()
            assert proceed.wait(30.0)
        return snapshot.point(cell)

    server = QCServer(warehouse, workers=1)
    server.register_op("point", point)
    handle = AsyncServerThread(server, port=0)
    sock = None
    try:
        assert server.point(HOT) == 9.0
        before, hits = counters(server), cache_hits(server)
        sock = socket.create_connection((handle.host, handle.port),
                                        timeout=5.0)
        sock.sendall(b"point S1,*,*\npoint S2,*,f\npoint S2,*,f\n")
        assert stalled.wait(5.0)
        assert wait_until(lambda: cache_hits(server) - hits == 2), (
            "the hits behind the stalled miss were not answered"
        )
        assert counters(server)["completed"] - before["completed"] == 2
        sock.settimeout(0.1)
        with pytest.raises(socket.timeout):
            sock.recv(1)  # ... but a hit may not overtake the miss
        proceed.set()
        sock.settimeout(5.0)
        data = b""
        while data.count(b"\n") < 3:
            chunk = sock.recv(4096)
            assert chunk, data
            data += chunk
        assert data == b"9.0\n9.0\n9.0\n"
    finally:
        proceed.set()
        if sock is not None:
            sock.close()
        handle.close()
        server.close()
    assert ledger_balanced(server)


def test_no_stale_hit_across_a_publish(served):
    """After a write's ``OK`` the cell it changed reads the new value —
    on the writing connection, on a second one and in process — though
    the old value was cached.  The swap leaves the cache cold: the
    first read misses and fills it, the next one hits."""
    server, handle = served
    first = LineClient(handle.host, handle.port, timeout=5.0)
    second = LineClient(handle.host, handle.port, timeout=5.0)
    try:
        for client in (first, second, first):
            assert client.call(HOT_LINE) == "9.0"  # hits: HOT is hot
        assert first.call("insert S2,P2,f,3.0") == "OK"
        cache = server.stats()["cache"]
        assert first.call(HOT_LINE) == "6.0"
        missed = server.stats()["cache"]
        assert (missed["hits"], missed["misses"]) == (
            cache["hits"], cache["misses"] + 1)
        assert second.call(HOT_LINE) == "6.0"
        hit = server.stats()["cache"]
        assert (hit["hits"], hit["misses"]) == (
            cache["hits"] + 1, cache["misses"] + 1)
        assert server.point(HOT) == 6.0
        assert second.call("delete S2,P2,f,3.0") == "OK"
        assert second.call(HOT_LINE) == "9.0"
        assert first.call(HOT_LINE) == "9.0"
    finally:
        first.close()
        second.close()


def test_a_fault_plan_keeps_every_request_on_a_worker(warehouse):
    """With a plan installed its ``op:<name>`` site must keep firing:
    a cached key goes through admission and a worker, as before."""
    faults = ServingFaults()
    server = QCServer(warehouse, workers=1, faults=faults)
    handle = AsyncServerThread(server, port=0)
    try:
        assert server.point(HOT) == 9.0
        assert server.point(HOT) == 9.0  # a hit — found by a worker
        assert server.cached_answer("point", (HOT,), {}) is MISS
        faults.arm("op:point", times=2)
        with LineClient(handle.host, handle.port, timeout=5.0) as client:
            assert client.call(HOT_LINE).startswith("error: InjectedFault")
        with pytest.raises(Exception, match="injected fault at op:point"):
            server.point(HOT)
        assert faults.fired("op:point") == 2
    finally:
        handle.close()
        server.close()
    assert ledger_balanced(server)


def test_a_breaker_that_is_not_closed_sheds_and_probes_as_before(warehouse):
    """Open: a cached key is shed like any request (``CircuitOpenError``
    on the wire and in process).  Half-open: the cached key is the
    probe, a worker round trip — an inline hit would neither spend the
    probe slot nor close the breaker."""
    now = [100.0]
    breaker = CircuitBreaker(error_threshold=0.5, min_requests=4,
                             cooldown_s=1.0, clock=lambda: now[0])
    server = QCServer(warehouse, workers=1, breaker=breaker)
    handle = AsyncServerThread(server, port=0)
    try:
        assert server.point(HOT) == 9.0
        for _ in range(4):
            breaker.on_failure()
        assert breaker.state == OPEN
        hits = cache_hits(server)
        with LineClient(handle.host, handle.port, timeout=5.0) as client:
            assert client.call(HOT_LINE).startswith(
                "error: CircuitOpenError")
            with pytest.raises(CircuitOpenError):
                server.point(HOT)
            assert counters(server)["breaker_rejected"] == 2
            assert cache_hits(server) == hits  # nobody looked
            now[0] += 2.0  # past the cooldown: the next request probes
            assert server.cached_answer("point", (HOT,), {}) is MISS
            assert breaker.state == OPEN  # ... and that spent no slot
            assert client.call(HOT_LINE) == "9.0"
            assert breaker.state == CLOSED  # only on_success closes it
            assert cache_hits(server) == hits + 1  # the worker's lookup
            assert client.call(HOT_LINE) == "9.0"  # inline again
        assert cache_hits(server) == hits + 2
    finally:
        handle.close()
        server.close()
    assert ledger_balanced(server)


def test_uncacheable_requests_keep_their_path(served):
    """``stats`` is answered on the loop, ``health`` and the rollup
    family by a worker every time: none is ever a cache hit."""
    server, handle = served
    with LineClient(handle.host, handle.port, timeout=5.0) as client:
        hits = cache_hits(server)
        for _ in range(2):
            assert client.call("rollup S2,P1,f").endswith("# 2 classes")
            assert client.call("rollups S2,P1,f").endswith("classes")
            assert '"status": "ok"' in client.call("health")
        assert server.cached_answer("rollup", (("S2", "P1", "f"),), {}) is MISS
        assert server.cached_answer("health", (), {}) is MISS
        assert server.cached_answer("no_such_op", (HOT,), {}) is MISS
        assert cache_hits(server) == hits
        gate = Gate(server, workers=2)
        try:
            assert '"submitted"' in client.call("stats")  # needs no worker
        finally:
            gate.open()


def read_until_closed(sock) -> bytes:
    data = b""
    while True:
        chunk = sock.recv(65536)
        if not chunk:
            return data
        data += chunk


def test_a_burst_of_hits_over_the_cap_is_answered_in_order(served):
    """200 pipelined hits and a last line without its newline, against a
    cap of 32 slots: every one is answered, in order, and the session
    ends on the peer's EOF once the last is written."""
    server, handle = served
    with socket.create_connection((handle.host, handle.port),
                                  timeout=5.0) as sock:
        sock.sendall(b"point S2,*,f\n" * 200 + b"point S1,P2,s")
        sock.shutdown(socket.SHUT_WR)
        assert read_until_closed(sock) == b"9.0\n" * 200 + b"12.0\n"


def test_malformed_lines_are_answered_not_trusted(served):
    """A line that is not UTF-8 gets a typed error and the stream goes
    on; a line over the limit gets one and ends the session (nothing
    after it can be trusted to be a line)."""
    server, handle = served
    with socket.create_connection((handle.host, handle.port),
                                  timeout=5.0) as sock:
        sock.sendall(b"point \xff\xfe\npoint S2,*,f\n"
                     + b"point " + b"x" * 70_000 + b"\npoint S2,*,f\n")
        first, second, third, *rest = read_until_closed(sock).split(b"\n")
    assert first.startswith(b"error: UnicodeDecodeError")
    assert second == b"9.0"
    assert third.startswith(b"error: ValueError: request line exceeds")
    assert rest == [b""]  # the line behind the oversized one went unread
    assert handle.door.describe()["protocol_errors"] == 2
