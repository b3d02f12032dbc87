"""The shard server's direct path: a read sent by the thread that
submitted it.

``ShardServer.submit`` sends a snapshot op as one frame on its worker's
pipe from the calling thread; the caller that waits on the future reads the
answer off the pipe itself while no other thread does, and the pipe's
receiver thread reads for everyone else.  No pool thread forwards and
waits.  These tests pin what that path must keep from the pool's —
deadlines, the RPC timeout, shedding and readiness, the cache's counts,
crash handling — who reads each answer, and the cases that must still
go through the pool.  Every server here is closed by the fixture, which
then requires a balanced admission ledger.
"""

from __future__ import annotations

import concurrent.futures
import cProfile
import faulthandler
import fcntl
import os
import pstats
import signal
import struct
import sys
import termios
import threading
import time
from contextlib import contextmanager

import pytest

from repro.core.warehouse import QCWarehouse
from repro.errors import (
    DeadlineExceededError,
    QueryError,
    ServerOverloadedError,
    WorkerCrashedError,
)
from repro.reliability.faults import InjectedFault, ServingFaults
from repro.serving import AsyncServerThread, LineClient, QCServer
from repro.shard import ShardServer, created_segments, frame, worker
from repro.shard.pipe import CALLER, PipeState

CELL = ("S2", "*", "f")  # 9.0 in the paper's sales table


def balanced(counters) -> bool:
    return counters["submitted"] == (
        counters["completed"] + counters["timeouts"]
        + counters["errors"] + counters["cancelled"]
    )


@pytest.fixture
def make_server(sales_table):
    servers = []

    def make(**kwargs):
        kwargs.setdefault("processes", 1)
        kwargs.setdefault("workers", 1)
        kwargs.setdefault("supervise_interval", 0.02)
        server = ShardServer(
            QCWarehouse(sales_table, aggregate="avg(Sale)"), **kwargs
        )
        servers.append(server)
        return server

    yield make
    for server in servers:
        server.close()
        counters = server.stats()["counters"]
        assert balanced(counters), counters
    assert created_segments() == []


@pytest.fixture
def server(make_server):
    return make_server()


@contextmanager
def stopped(pid: int):
    """Hold a worker process in SIGSTOP for the block."""
    os.kill(pid, signal.SIGSTOP)
    try:
        yield
    finally:
        os.kill(pid, signal.SIGCONT)


class Unroused(PipeState):
    """A pipe whose receiver is never roused: only a hang-up wakes it."""

    def rouse(self) -> int:
        return 0


def wait_until(predicate, timeout_s: float = 5.0) -> bool:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


def record_pool(server) -> list:
    """The ops the thread pool serves from now on (the direct path never
    reaches ``_serve``)."""
    served = []
    serve = server._serve

    def recording(request):
        served.append(request.op)
        serve(request)

    server._serve = recording
    return served


class TestDirectPath:
    def test_twenty_thousand_reads_finish(self, make_server):
        """The loop behind a hang seen once: 20,000 direct reads on one
        worker did not finish within 120 s, and no stack was taken.  A
        recurrence now dumps every thread's stack and ends the run
        rather than hanging it.  No cache: every read is forwarded."""
        server = make_server(cache_size=0)
        faulthandler.dump_traceback_later(120, exit=True)
        try:
            for _ in range(20_000):
                assert server.submit("point", CELL).result() == 9.0
        finally:
            faulthandler.cancel_dump_traceback_later()

    def test_answers_while_the_pool_is_parked(self, server):
        """The only pool thread is held by a custom op; a point query
        still answers, through the fleet."""
        gate, entered = threading.Event(), threading.Event()

        def park(snapshot):
            entered.set()
            gate.wait(10)
            return "parked"

        server.register_op("park", park)
        parked = server.submit("park")
        try:
            assert entered.wait(5)
            answered = server.shard_health()["workers"][0]["answered"]
            assert server.submit("point", CELL).result(timeout=5) == 9.0
            assert server.shard_health()["workers"][0]["answered"] \
                == answered + 1
        finally:
            gate.set()
        assert parked.result(timeout=5) == "parked"

    @pytest.mark.parametrize("via", ["timeout", "budget"])
    def test_deadline_expires_at_a_stopped_worker(self, server, via):
        """A deadline that passes while the worker cannot read is
        answered unrun, as the pool answers one that waited queued —
        through ``submit(timeout=)`` and the door's ``@budget``."""
        pid = server._handles[0].pid
        if via == "timeout":
            with stopped(pid):
                future = server.submit("point", CELL, timeout=0.2)
                time.sleep(0.4)
            with pytest.raises(DeadlineExceededError):
                future.result(timeout=5)
        else:
            door = AsyncServerThread(server)
            try:
                with LineClient(door.host, door.port) as client:
                    with stopped(pid):
                        client.send("@0.2 point S2,*,f")
                        time.sleep(0.4)
                    answer = client.read_response()
            finally:
                door.close()
            assert answer.startswith("error: DeadlineExceededError"), answer
        counters = server.stats()["counters"]
        assert counters["timeouts"] == 1
        assert counters["completed"] == 0

    def test_deadline_fails_while_the_worker_is_still_stopped(self, server):
        """The supervisor's scan fails a forward at its deadline, well
        before ``SHARD_RPC_TIMEOUT_S``: the caller has its outcome while
        the worker cannot answer, and the late answer is dropped."""
        handle = server._handles[0]
        with stopped(handle.pid):
            future = server.submit("point", CELL, timeout=0.2)
            with pytest.raises(DeadlineExceededError, match="did not answer"):
                future.result(timeout=2)
            assert server.shard_health()["workers"][0]["inflight"] == 0
        assert wait_until(lambda: handle.pipe.charged == 0)
        assert handle.answered == 0
        counters = server.stats()["counters"]
        assert (counters["timeouts"], counters["completed"]) == (1, 0)

    def test_a_stopped_worker_shows_wedged(self, server, monkeypatch):
        """A forward held past ``WEDGE_TIMEOUT_S`` marks its worker
        process wedged in ``workers``, as a pool thread would be."""
        monkeypatch.setattr(server, "WEDGE_TIMEOUT_S", 0.1)
        with stopped(server._handles[0].pid):
            future = server.submit("point", CELL)
            time.sleep(0.2)
            workers = server.stats()["workers"]
            assert workers["wedged"] == 1
            assert workers["oldest_read_s"] >= 0.2
        assert future.result(timeout=5) == 9.0
        assert server.worker_health()["wedged"] == 0

    def test_rpc_timeout_fails_a_wedged_forward(self, server, monkeypatch):
        """A worker alive but silent past ``SHARD_RPC_TIMEOUT_S``: the
        supervisor fails the forward, and the late answer is dropped."""
        monkeypatch.setattr(server, "SHARD_RPC_TIMEOUT_S", 0.3)
        handle = server._handles[0]
        with stopped(handle.pid):
            future = server.submit("point", CELL)
            assert server.shard_health()["workers"][0]["inflight"] == 1
            with pytest.raises(DeadlineExceededError, match="did not answer"):
                future.result(timeout=5)
            assert server.shard_health()["workers"][0]["inflight"] == 0
        # The worker reads the request after SIGCONT and answers it; the
        # answer finds no sink and is dropped, uncounted.
        assert wait_until(lambda: handle.pipe.charged == 0)
        assert handle.answered == 0
        assert server.submit("point", CELL).result(timeout=5) == 9.0
        counters = server.stats()["counters"]
        assert (counters["timeouts"], counters["completed"]) == (1, 1)

    def test_sheds_at_queue_size_forwards_in_flight(self, make_server):
        server = make_server(queue_size=4)
        with stopped(server._handles[0].pid):
            futures = [server.submit("point", CELL) for _ in range(4)]
            with pytest.raises(ServerOverloadedError):
                server.submit("point", CELL)
            assert server.stats()["counters"]["shed"] == 1
            assert server.health()["ready"] is False
        assert [f.result(timeout=5) for f in futures] == [9.0] * 4
        assert server.health()["ready"] is True
        assert server.stats()["counters"]["submitted"] == 4

    def test_concurrent_submitters_leave_nothing_owed(self, make_server):
        """Eight threads racing on both pipes (and on the pool when a
        send lock is taken), switching every 10 µs: every answer right,
        and the in-flight count, pipe charges and ``pending`` tables all
        back to zero — a lost update in any of them would show."""
        server = make_server(processes=2, workers=2, cache_size=0)
        cells = [(s, p, t) for s in ("S1", "S2") for p in ("P1", "P2", "*")
                 for t in ("s", "f", "*")]
        expected = {cell: server.warehouse.point(cell) for cell in cells}
        wrong = []

        def reader(seed: int) -> None:
            for i in range(150):
                cell = cells[(seed * 7 + i) % len(cells)]
                if server.submit("point", cell).result(timeout=10) \
                        != expected[cell]:
                    wrong.append(cell)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=reader, args=(seed,))
                       for seed in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert wrong == []
        assert server._inflight == 0
        for handle in server._handles:
            assert (handle.pipe.charged, handle.pipe.pending) == (0, {})
        assert server.stats()["counters"]["completed"] == 8 * 150
        # A contended send lock is waited for, not answered on the
        # parent (≤ 1 % in measured runs; not waiting: ≈ 30 %).
        assert server.shard_health()["local_fallbacks"] <= 8 * 150 // 20

    def test_submits_beside_a_map_query_stay_on_the_fleet(
            self, make_server):
        """One worker, one thread streaming ``map_query`` batches
        (point, iceberg, range) while this one submits: the batches hold
        the send lock often, and the submits wait for it instead of
        running the kernel on the parent."""
        server = make_server(cache_size=0)
        spec = (["S1", "S2"], "*", "*")
        expected = {
            "point": [9.0] * 64,
            "iceberg": [server.warehouse.iceberg(5)],
            "range": [server.warehouse.range(spec)],
        }
        batches = [("point", [(CELL,)] * 64), ("iceberg", [(5,)]),
                   ("range", [(spec,)])]
        stop, wrong = threading.Event(), []

        def bulk() -> None:
            k = 0
            while not stop.is_set():
                op, calls = batches[k % len(batches)]
                if server.map_query(op, calls) != expected[op]:
                    wrong.append(op)
                k += 1

        streamer = threading.Thread(target=bulk)
        streamer.start()
        try:
            answers = [server.submit("point", CELL).result(timeout=10)
                       for _ in range(300)]
        finally:
            stop.set()
            streamer.join(30)
        assert answers == [9.0] * 300 and wrong == []
        # 0 of 300 in measured runs; not waiting for the lock: 2–45 %.
        assert server.shard_health()["local_fallbacks"] <= 300 // 50

    def test_armed_op_fault_fails_one_read_on_the_pool(self, make_server):
        """An armed ``op:point`` site sends the read to the pool, where
        it fires as on any server: one ``submit`` fails with the
        injected error, and the next, the site spent, answers from the
        fleet."""
        faults = ServingFaults()
        server = make_server(faults=faults, cache_size=0)
        served = record_pool(server)
        faults.arm("op:point", times=1, exc=InjectedFault)
        with pytest.raises(InjectedFault):
            server.submit("point", CELL).result(timeout=5)
        assert server.submit("point", CELL).result(timeout=5) == 9.0
        assert served == ["point"]
        assert faults.fired("op:point") == 1
        shard = server.shard_health()
        assert shard["workers"][0]["answered"] == 1
        assert shard["local_fallbacks"] == 1
        counters = server.stats()["counters"]
        assert (counters["completed"], counters["errors"]) == (1, 1)
        assert balanced(counters), counters

    def test_slow_op_fault_holds_only_its_own_read(self, make_server):
        """A delayed ``op:point`` sleeps on a pool thread: a forward and
        a publish to the same worker both finish while it sleeps."""
        faults = ServingFaults()
        server = make_server(faults=faults, cache_size=0)
        faults.arm("op:point", times=1, delay_s=2.0, exc=None)
        slow = server.submit("point", CELL)
        assert wait_until(lambda: faults.fired("op:point") == 1)
        assert server.submit("point", CELL).result(timeout=5) == 9.0
        server.insert([("S3", "P1", "s", 5.0)])
        assert server.shard_health()["workers"][0]["attached_epoch"] == 2
        assert server.submit("point", ("S3", "P1", "s")).result(
            timeout=5) == 5.0
        assert not slow.done()
        assert slow.result(timeout=5) == 9.0

    def test_repr_and_health_agree_on_a_hung_up_pipe(self, make_server):
        """A killed worker whose pipe has hung up, its EOF unread because
        a caller holds the read role: ``repr`` and ``shard_health()``
        read the same pipe state, and both say no process runs."""
        server = make_server(supervised=False)
        handle = server._handles[0]
        with handle.lock:
            assert handle.pipe.take(CALLER)
        try:
            os.kill(handle.pid, signal.SIGKILL)
            assert wait_until(
                lambda: server.shard_health()["processes_alive"] == 0)
            assert "processes=0/1" in repr(server)
        finally:
            handle.do(handle.pipe.give_back)
        assert wait_until(
            lambda: server.shard_health()["process_crashes"] == 1)

    def test_killed_worker_fails_direct_forwards(self, server):
        pid = server._handles[0].pid
        os.kill(pid, signal.SIGSTOP)
        futures = [server.submit("point", CELL) for _ in range(3)]
        os.kill(pid, signal.SIGKILL)
        for future in futures:
            with pytest.raises(WorkerCrashedError):
                future.result(timeout=5)
        assert server.stats()["counters"]["errors"] == 3


class TestWhoReads:
    """Every way to consume a direct forward completes it: a caller in
    ``result()`` / ``exception()`` reads its own answer off the pipe, and
    the receiver reads for consumers that never lead."""

    def test_sequential_results_are_read_by_their_callers(
            self, make_server):
        server = make_server(cache_size=0)
        worker = server.shard_health()["workers"][0]
        for _ in range(100):
            assert server.submit("point", CELL).result() == 9.0
        after = server.shard_health()["workers"][0]
        assert after["read_by_caller"] - worker["read_by_caller"] == 100
        assert after["answered"] - worker["answered"] == 100

    def test_exception_leads_too(self, make_server):
        server = make_server(cache_size=0)
        assert server.submit("point", CELL).exception(timeout=5) is None
        future = server.submit("point", ("S2", "*"))  # wrong arity
        assert isinstance(future.exception(timeout=5), QueryError)
        with pytest.raises(QueryError):
            future.result()
        assert server.shard_health()["workers"][0]["read_by_caller"] == 2

    def test_timed_out_result_then_answer_after_resume(self, server):
        """``result(timeout=)`` at a stopped worker gives up with
        ``TimeoutError`` and the read role; a later ``result()`` gets
        the answer once the worker resumes."""
        handle = server._handles[0]
        with stopped(handle.pid):
            future = server.submit("point", CELL)
            start = time.monotonic()
            with pytest.raises(concurrent.futures.TimeoutError):
                future.result(timeout=0.2)
            assert time.monotonic() - start < 2.0
            assert not future.done()
        assert future.result(timeout=5) == 9.0
        counters = server.stats()["counters"]
        assert (counters["completed"], counters["timeouts"]) == (1, 0)

    @pytest.mark.parametrize("how", ["callback", "wait", "as_completed"])
    def test_consumers_that_never_lead(self, make_server, how):
        """No supervisor scan to fall back on: a done callback added
        from another thread, ``concurrent.futures.wait`` and
        ``as_completed`` each rouse the receiver, and every future
        completes well under a second."""
        server = make_server(supervised=False, cache_size=0)
        futures = [server.submit("point", CELL) for _ in range(5)]
        start = time.monotonic()
        if how == "callback":
            called = threading.Event()
            adder = threading.Thread(
                target=futures[-1].add_done_callback,
                args=(lambda future: called.set(),))
            adder.start()
            adder.join(5)
            assert called.wait(5)
            done = [f for f in futures if f.done()]
            assert futures[-1] in done
        elif how == "wait":
            done, not_done = concurrent.futures.wait(futures, timeout=5)
            assert not not_done
        else:
            done = list(concurrent.futures.as_completed(futures, timeout=5))
        assert time.monotonic() - start < 1.0
        assert [f.result(timeout=5) for f in done] == [9.0] * len(done)
        assert server.shard_health()["workers"][0]["read_by_caller"] == 0

    def test_a_future_nobody_waits_on_completes(self, server):
        """The supervisor's scan finds an answer owed with nobody
        reading and rouses the receiver: counted completed, not a
        timeout, before ``close()``."""
        server.submit("point", CELL)
        assert wait_until(
            lambda: server.stats()["counters"]["completed"] == 1)
        counters = server.stats()["counters"]
        assert counters["timeouts"] == 0
        assert server._handles[0].pipe.owes() is False

    def test_worker_killed_under_a_leading_caller(self, make_server):
        """SIGKILL while a caller leads on the pipe: its ``result()``
        raises ``WorkerCrashedError``, every other forward and the
        ``map_query`` chunk on that pipe fail exactly once, the crash
        counts once, and the slot respawns.  (A slow scan: the
        supervisor rouses the receiver only for replies owed with
        nobody reading across two scans, so the caller leads.)"""
        server = make_server(cache_size=0, supervise_interval=0.5)
        handle = server._handles[0]
        crashes = server.shard_health()["process_crashes"]
        outcome = {}

        def lead() -> None:
            try:
                outcome["lead"] = futures[0].result(timeout=10)
            except Exception as exc:
                outcome["lead"] = exc

        def bulk() -> None:
            try:
                outcome["bulk"] = server.map_query("point", [(CELL,)] * 8)
            except Exception as exc:
                outcome["bulk"] = exc

        os.kill(handle.pid, signal.SIGSTOP)
        futures = [server.submit("point", CELL) for _ in range(3)]
        leader = threading.Thread(target=lead)
        leader.start()
        assert wait_until(lambda: handle.pipe.reader is not None)
        gatherer = threading.Thread(target=bulk)
        gatherer.start()
        assert wait_until(lambda: handle.inflight() == 3 + 8)
        os.kill(handle.pid, signal.SIGKILL)
        leader.join(10)
        gatherer.join(10)
        assert not leader.is_alive() and not gatherer.is_alive()
        assert isinstance(outcome["lead"], WorkerCrashedError), outcome
        assert isinstance(outcome["bulk"], WorkerCrashedError), outcome
        for future in futures[1:]:
            with pytest.raises(WorkerCrashedError):
                future.result(timeout=5)
        counters = server.stats()["counters"]
        assert (counters["errors"], counters["completed"]) == (3 + 8, 0)
        assert wait_until(
            lambda: server.shard_health()["process_restarts"] == 1)
        shard = server.shard_health()
        assert shard["process_crashes"] == crashes + 1
        assert shard["workers"][0]["pid"] != handle.pid
        assert server.submit("point", CELL).result(timeout=5) == 9.0

    def test_pub_ok_read_by_a_leading_caller_acks_the_publish(
            self, server, monkeypatch):
        """A read routed to its worker just before a publish swapped the
        epoch is sent after the announce, so its caller, leading, reads
        the ``pub_ok`` first.  With the receiver never roused, that
        caller is its only reader: the ack releases the writer long
        before ``PUBLISH_ACK_TIMEOUT_S``."""
        monkeypatch.setattr(server, "PUBLISH_ACK_TIMEOUT_S", 60.0)
        handle = server._handles[0]
        monkeypatch.setattr(handle.pipe, "__class__", Unroused)
        monkeypatch.setattr(server, "_pick", lambda: handle)
        writer = threading.Thread(
            target=lambda: server.insert([("S3", "P1", "s", 5.0)]))
        writer.start()
        assert wait_until(lambda: handle.pipe.controls_owed >= 1)
        assert writer.is_alive()  # nobody has read the pub_ok yet
        assert server.submit("point", CELL).result(timeout=5) == 9.0
        writer.join(5)
        assert not writer.is_alive()
        assert handle.attached_epoch == 2
        assert server.shard_health()["workers"][0]["read_by_caller"] == 1


class TestPoolPath:
    def test_busy_send_lock_does_not_block_submit(self, server):
        """A send lock held past ``DIRECT_SEND_WAIT_S``: ``submit``
        returns, and the pool answers while the lock is still held."""
        served = record_pool(server)
        handle = server._handles[0]
        submitted = []
        with handle.send_lock:
            caller = threading.Thread(
                target=lambda: submitted.append(
                    server.submit("point", CELL)
                )
            )
            caller.start()
            caller.join(5)
            assert not caller.is_alive(), "submit() blocked on the pipe"
            assert submitted[0].result(timeout=5) == 9.0
        assert served == ["point"]
        assert server.shard_health()["local_fallbacks"] == 1

    def test_message_over_the_budget_takes_the_pool(self, server):
        served = record_pool(server)
        huge = ("S" * server.DIRECT_SEND_BUDGET, "*", "*")
        assert server.submit("point", huge).result(timeout=5) is None
        assert served == ["point"]
        assert server.shard_health()["local_fallbacks"] == 1

    @pytest.mark.parametrize("why", ["faults", "override"])
    def test_where_the_pool_would_differ(self, make_server, why):
        """A ``register_op`` override runs parent-side, on the pool; a
        fault plan with no ``op:`` site armed no longer sends a snapshot
        op there."""
        server = make_server(faults=ServingFaults() if why == "faults"
                             else None)
        served = record_pool(server)
        answered = server.shard_health()["workers"][0]["answered"]
        if why == "override":
            server.register_op("point", lambda snapshot, cell: "mine")
            assert server.submit("point", CELL).result(timeout=5) == "mine"
            assert served == ["point"]
        else:
            assert server.submit("point", CELL).result(timeout=5) == 9.0
            assert served == []
            assert server.shard_health()["workers"][0]["answered"] \
                == answered + 1


class TestCache:
    def test_counts_match_the_thread_server(self, sales_table):
        """A miss looks up once on the submitting thread, a fill lands
        in the cache, a mutable answer is the caller's copy — the same
        hits and misses as the pool would count."""
        spec = (["S1", "S2"], "*", "s")
        cells = [CELL, ("S1", "P1", "s"), CELL, ("S1", "*", "*"), CELL]
        readouts = []
        for cls, kwargs in ((QCServer, {}), (ShardServer, {"processes": 1})):
            server = cls(QCWarehouse(sales_table, aggregate="avg(Sale)"),
                         workers=1, cache_size=16, **kwargs)
            try:
                for cell in cells:
                    server.submit("point", cell).result(timeout=5)
                server.point(CELL)
                first = server.submit("range", spec).result(timeout=5)
                first.clear()
                assert server.submit("range", spec).result(timeout=5) \
                    == {("S1", "*", "s"): 9.0}
            finally:
                server.close()
            stats = server.stats()
            assert balanced(stats["counters"]), stats["counters"]
            readouts.append((stats["cache"]["hits"],
                             stats["cache"]["misses"],
                             stats["counters"]["submitted"]))
        assert readouts[0] == readouts[1] == (4, 4, 8)


class TestMapQueryTimeout:
    def test_timeout_keeps_the_ledger_balanced(self, server):
        """A ``map_query`` that gives up counts every element it sent —
        the unanswered as timeouts — and leaves nothing in ``pending``."""
        handle = server._handles[0]
        with stopped(handle.pid):
            with pytest.raises(DeadlineExceededError):
                server.map_query("point", [(CELL,)] * 50, timeout=0.2)
            assert handle.pipe.sinks() == {}
        assert wait_until(lambda: handle.pipe.charged == 0)
        counters = server.stats()["counters"]
        assert counters["timeouts"] == 50
        assert balanced(counters), counters
        assert server.map_query("point", [(CELL,)] * 3) == [9.0] * 3


def unread_bytes(sock) -> int:
    """Bytes waiting in ``sock``'s receive queue."""
    return struct.unpack("i", fcntl.ioctl(
        sock.fileno(), termios.FIONREAD, b"\0" * 4))[0]


class TestFrames:
    #: Python/C calls the caller's thread makes per forwarded point read
    #: (cProfile): 103 when the pipe was a ``multiprocessing.Connection``
    #: of pickles, 86–87 over code frames, 85 with the pipe's protocol in
    #: one state, with a small margin.  A cache hit makes 73.
    CALLS_PER_READ = 90

    def test_calls_per_forwarded_read(self, make_server):
        server = make_server(cache_size=0)  # every read is forwarded
        for _ in range(50):
            assert server.submit("point", CELL).result() == 9.0
        profile = cProfile.Profile()
        profile.enable()
        for _ in range(200):
            server.submit("point", CELL).result()
        profile.disable()
        calls = sum(entry[1] for entry in pstats.Stats(profile).stats.values())
        assert calls / 200 <= self.CALLS_PER_READ, calls / 200

    def test_a_buffered_answer_is_read_without_a_poll(
            self, make_server, monkeypatch):
        """Two answers arrive in one read, and the reader finishes only
        the first: the second's caller, leading with nothing left on the
        socket, must find it in the buffer at once, not at
        ``SHARD_RPC_TIMEOUT_S``."""
        monkeypatch.setattr(ShardServer, "SHARD_RPC_TIMEOUT_S", 5.0)
        server = make_server(supervised=False)
        handle = server._handles[0]
        monkeypatch.setattr(handle.pipe, "__class__", Unroused)
        with stopped(handle.pid):
            first = server.submit("point", CELL)
            second = server.submit("point", ("S1", "*", "*"))
            with handle.lock:
                assert handle.pipe.take(CALLER)  # nobody else reads
        try:
            assert wait_until(lambda: unread_bytes(handle.sock)
                              >= 2 * frame.VALUE_FRAME.size)
            assert server._read_one(handle)
        finally:
            handle.do(handle.pipe.give_back)
        assert first.done() and not second.done()
        assert unread_bytes(handle.sock) == 0 and handle.frames.ready()
        began = time.monotonic()
        assert second.result(timeout=5) == 9.0
        assert time.monotonic() - began < 1.0

    def test_eof_in_the_middle_of_a_frame(self, make_server, monkeypatch,
                                          tmp_path):
        """The worker sends half an answer frame and dies: the read
        fails once with ``WorkerCrashedError``, the crash counts once,
        and the slot respawns and answers."""
        cut = tmp_path / "cut"
        answer = worker._answer_point

        def half_once(*args):
            data = answer(*args)
            if cut.exists():
                return data
            cut.touch()
            return data[:len(data) // 2]

        # The fleet forks after this: its workers run the patched one.
        monkeypatch.setattr(worker, "_answer_point", half_once)
        server = make_server()
        handle = server._handles[0]
        future = server.submit("point", CELL)
        assert wait_until(cut.exists)
        assert wait_until(lambda: unread_bytes(handle.sock) > 0)
        os.kill(handle.pid, signal.SIGKILL)
        with pytest.raises(WorkerCrashedError):
            future.result(timeout=5)
        assert wait_until(
            lambda: server.shard_health()["process_restarts"] == 1)
        assert server.shard_health()["process_crashes"] == 1
        assert server.submit("point", CELL).result(timeout=5) == 9.0
