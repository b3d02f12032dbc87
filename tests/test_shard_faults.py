"""Publish-protocol fault injection for the multi-process ShardServer.

Each test drives one failure shape through the shard-specific fault
sites (``shard:publish``, ``shard:attach``) or a hard worker-process
kill, and asserts the protocol's promise: readers keep serving the
last-good epoch, the supervisor converges the fleet back to the
current epoch, and no ``/dev/shm`` segment outlives the server.
"""

from __future__ import annotations

import os
import signal
import socket
import threading
import time

import pytest

from repro.core.warehouse import QCWarehouse
from repro.data.synthetic import zipf_table
from repro.errors import (
    DeadlineExceededError,
    ServerDegradedError,
    WorkerCrashedError,
)
from repro.reliability.faults import ServingFaults
from tests.faults import InjectedCrash
from tests.retry import RetryPolicy
from repro.shard import ShardServer, created_segments
from repro.shard.server import _mp_context
from repro.shard.worker import _BATCH_MIN, worker_main

RECORD = ("S3", "P1", "s", 5.0)
RECORD_IN = (1, 0, 2, 5.0)  # a row of the counted zipf table's kind


@pytest.fixture
def warehouse(sales_table):
    return QCWarehouse(sales_table, aggregate="avg(Sale)")


@pytest.fixture
def faults():
    return ServingFaults()


@pytest.fixture
def server(warehouse, faults):
    srv = ShardServer(warehouse, processes=2, faults=faults,
                      supervise_interval=0.02, cache_size=0)
    yield srv
    srv.close()
    assert created_segments() == []


def wait_until(predicate, timeout_s: float = 10.0) -> bool:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


def fleet_converged(server) -> bool:
    shard = server.shard_health()
    return (shard["processes_alive"] == shard["processes_configured"]
            and all(w["alive"]
                    and w["attached_epoch"] == shard["current_epoch"]
                    for w in shard["workers"]))


def retrying_point(server, cell, attempts: int = 20):
    """Query through worker deaths: WorkerCrashedError is retryable by
    contract (the read never ran)."""
    for _ in range(attempts):
        try:
            return server.point(cell)
        except WorkerCrashedError:
            time.sleep(0.02)
    return server.point(cell)


class TestWorkerKill:
    def test_killed_worker_is_respawned(self, server):
        victim = server.shard_health()["workers"][0]["pid"]
        os.kill(victim, signal.SIGKILL)
        assert wait_until(
            lambda: server.shard_health()["process_crashes"] >= 1
        )
        assert wait_until(lambda: fleet_converged(server))
        shard = server.shard_health()
        assert shard["process_restarts"] >= 1
        assert shard["process_crashes"] >= 1
        assert victim not in [w["pid"] for w in shard["workers"]]
        assert retrying_point(server, ("S2", "*", "f")) == 9.0
        # The whole fleet at once: the supervisor brings every slot back.
        for worker in shard["workers"]:
            os.kill(worker["pid"], signal.SIGKILL)
        assert wait_until(
            lambda: server.shard_health()["process_restarts"] >= 3
        )
        assert wait_until(lambda: fleet_converged(server))
        assert retrying_point(server, ("S2", "*", "f")) == 9.0

    def test_kill_mid_swap_converges(self, server):
        """A worker dying during a publish must not wedge the protocol:
        the publish completes, the respawned worker attaches the new
        epoch, answers reflect the write."""
        victim = server.shard_health()["workers"][1]["pid"]
        os.kill(victim, signal.SIGKILL)
        server.insert([RECORD])  # publish races the death + respawn
        assert retrying_point(server, ("S3", "P1", "s")) == 5.0
        assert wait_until(lambda: fleet_converged(server))
        assert server.shard_health()["current_epoch"] == 2
        assert retrying_point(server, ("S3", "P1", "s")) == 5.0

    def test_whole_fleet_down_falls_back_to_parent(self, warehouse):
        """No supervisor, so the dead fleet stays dead: once every
        receiver has seen its pipe's EOF, a ``submit`` and a
        ``map_query`` are each answered from the parent's snapshot."""
        server = ShardServer(warehouse, processes=2, supervised=False,
                             cache_size=0)
        try:
            for worker in server.shard_health()["workers"]:
                os.kill(worker["pid"], signal.SIGKILL)
            assert wait_until(lambda: (
                server.shard_health()["processes_alive"] == 0
                and server.shard_health()["process_crashes"] == 2
            ))
            cell = ("S2", "*", "f")
            assert server.submit("point", cell).result(timeout=5) == 9.0
            assert server.map_query("point", [(cell,)] * 3) == [9.0] * 3
            shard = server.shard_health()
            assert shard["local_fallbacks"] == 2
            assert [w["answered"] for w in shard["workers"]] == [0, 0]
        finally:
            server.close()
        counters = server.stats()["counters"]
        assert counters["submitted"] == 4 == (
            counters["completed"] + counters["timeouts"]
            + counters["errors"] + counters["cancelled"]
        ), counters
        assert created_segments() == []

    def test_retry_policy_masks_worker_death(self, server):
        retry = RetryPolicy(max_attempts=6, base_delay_s=0.01)
        victim = server.shard_health()["workers"][0]["pid"]
        os.kill(victim, signal.SIGKILL)
        value = retry.call(lambda: server.point(("S2", "*", "f")))
        assert value == 9.0


class TestChunkedMapQuery:
    def test_kill_mid_chunk_fails_each_of_its_elements_once(self, server):
        """``map_query`` sends each of the two workers its chunk as one
        request, answered by one batch-kernel call.  SIGKILL one while its chunk sits unread in its pipe:
        each element of that chunk fails once with the retryable
        ``WorkerCrashedError``, the other chunk is answered, and the
        ledger balances element by element."""
        calls = [((f"S{i % 40}", "P1", "s"),) for i in range(400)]
        victim, survivor = server._handles
        shares = dict(server._place(len(calls), server._routable))
        n_victim = len(shares[victim])
        assert _BATCH_MIN <= n_victim <= len(calls) - _BATCH_MIN
        answered = survivor.answered
        before = server.stats()["counters"]
        outcome = {}

        def bulk() -> None:
            try:
                outcome["value"] = server.map_query("point", calls)
            except Exception as exc:
                outcome["error"] = exc

        os.kill(victim.pid, signal.SIGSTOP)
        thread = threading.Thread(target=bulk)
        thread.start()
        try:
            assert wait_until(lambda: victim.inflight() == n_victim)
        finally:
            os.kill(victim.pid, signal.SIGKILL)
        thread.join(10)
        assert not thread.is_alive()
        assert isinstance(outcome.get("error"), WorkerCrashedError), outcome
        after = server.stats()["counters"]
        assert {key: after[key] - before[key] for key in
                ("submitted", "completed", "errors", "timeouts")} == {
            "submitted": 400, "completed": 400 - n_victim,
            "errors": n_victim, "timeouts": 0,
        }
        assert after["submitted"] == (
            after["completed"] + after["timeouts"]
            + after["errors"] + after["cancelled"]
        ), after
        assert survivor.answered - answered == 400 - n_victim
        assert wait_until(lambda: fleet_converged(server))
        assert server.map_query("point", [(("S2", "*", "f"),)] * 4) \
            == [9.0] * 4


class TestPublishCrash:
    def test_crash_between_pack_and_announce_retries(
            self, server, faults):
        faults.arm("shard:publish", times=1, exc=InjectedCrash)
        server.insert([RECORD])
        counters = server.stats()["counters"]
        assert counters["publish_retries"] == 1
        assert retrying_point(server, ("S3", "P1", "s")) == 5.0
        assert wait_until(lambda: fleet_converged(server))
        # The failed attempt's segment was not leaked: only epochs
        # still referenced remain registered.
        assert wait_until(lambda: len(created_segments()) <= 2)

    def test_persistent_crash_degrades_readers_keep_last_good(
            self, server, faults):
        before = server.point(("*", "*", "*"))
        faults.arm("shard:publish", times=None, exc=InjectedCrash)
        with pytest.raises(ServerDegradedError):
            server.insert([RECORD])
        assert server.write_degraded
        # Readers — including the worker fleet — keep the last-good
        # epoch and keep answering.
        assert server.shard_health()["current_epoch"] == 1
        assert retrying_point(server, ("*", "*", "*")) == before
        assert retrying_point(server, ("S3", "P1", "s")) is None
        # Fault clears: recovery publishes the stuck write to the fleet.
        faults.disarm("shard:publish")
        assert server.recover() is True
        assert retrying_point(server, ("S3", "P1", "s")) == 5.0
        assert wait_until(lambda: fleet_converged(server))
        assert server.shard_health()["current_epoch"] == 2


class TestAttachFailure:
    def test_failed_attach_keeps_last_good_until_reannounce(
            self, server, faults):
        faults.arm("shard:attach", times=1, exc=InjectedCrash)
        server.insert([RECORD])
        # The parent's swap is unaffected: answers reflect the write
        # immediately (local fallback covers unconverged workers).
        assert retrying_point(server, ("S3", "P1", "s")) == 5.0
        shard = server.shard_health()
        assert shard["current_epoch"] == 2
        assert shard["attach_failures"] >= 1
        # The supervisor re-announces until every worker converges.
        assert wait_until(lambda: fleet_converged(server))
        assert server.shard_health()["reannounces"] >= 1
        assert retrying_point(server, ("S3", "P1", "s")) == 5.0

    def test_repeated_attach_failures_eventually_converge(
            self, server, faults):
        faults.arm("shard:attach", times=3, exc=InjectedCrash)
        for i, record in enumerate(
                [RECORD, ("S4", "P1", "s", 7.0), ("S5", "P2", "f", 2.0)]):
            server.insert([record])
            assert retrying_point(server, record[:3]) == record[3]
        assert wait_until(lambda: fleet_converged(server))
        shard = server.shard_health()
        assert shard["current_epoch"] == 4
        assert shard["attach_failures"] >= 3
        # Convergence also releases the superseded segments.
        assert wait_until(lambda: len(created_segments()) == 1)


def gone(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    return False


def on_a_thread(call):
    """Run ``call`` on a thread; returns the thread and a list that gets
    its result, or the exception it raised."""
    outcome = []

    def run():
        try:
            outcome.append(call())
        except Exception as exc:
            outcome.append(exc)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return thread, outcome


def resume(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGCONT)
    except ProcessLookupError:
        pass


class TestStoppedWorker:
    #: A point batch whose chunk is ≈ 2.4 MB of codes: far more than a
    #: stopped worker's socket buffer takes.
    CALLS = [(("*", "*", "*"),)] * 200_000

    @pytest.fixture
    def counted(self):
        """2,000 rows counted: the whole cube's point reads 2000."""
        return QCWarehouse(zipf_table(2000, 3, 10, zipf=1.5, seed=1),
                           aggregate="count")

    @pytest.mark.parametrize("supervised", [True, False])
    def test_a_bulk_send_ends_by_its_deadline(self, counted, supervised):
        """A ``map_query`` whose chunk does not fit a stopped worker's
        pipe raises ``DeadlineExceededError`` by its timeout: its send
        waits for room only until then.  The supervisor plays no part."""
        server = ShardServer(counted, processes=1, cache_size=0,
                             supervised=supervised)
        pid = server._handles[0].pid
        os.kill(pid, signal.SIGSTOP)
        bulk = None
        try:
            began = time.monotonic()
            bulk, outcome = on_a_thread(lambda: server.map_query(
                "point", self.CALLS, timeout=1.0))
            bulk.join(1.5)
            assert not bulk.is_alive(), "map_query waits past its deadline"
            assert time.monotonic() - began < 1.5
            assert isinstance(outcome[0], DeadlineExceededError), outcome
        finally:
            resume(pid)
            if bulk is not None:
                bulk.join()
            server.close()
        counters = server.stats()["counters"]
        assert counters["timeouts"] == len(self.CALLS)
        assert created_segments() == []

    def test_a_write_behind_a_stuck_bulk_send_returns(self, counted):
        """An insert whose announce queues behind that send returns once
        the send gives up.  The worker that missed the deadline is killed
        and respawned, the fleet answers the insert, and the ledger
        counts the batch's calls as timeouts."""
        server = ShardServer(counted, processes=1, cache_size=0,
                             supervise_interval=0.01)
        server.PUBLISH_ACK_TIMEOUT_S = 0.2  # keep the insert quick
        pid = server._handles[0].pid
        os.kill(pid, signal.SIGSTOP)
        bulk = write = None
        try:
            bulk, outcome = on_a_thread(lambda: server.map_query(
                "point", self.CALLS, timeout=1.0))
            time.sleep(0.2)
            write, _wrote = on_a_thread(lambda: server.insert([RECORD_IN]))
            write.join(1.5)
            assert not write.is_alive(), "the insert waits on a stuck send"
            bulk.join(1.5)
            assert isinstance(outcome[0], DeadlineExceededError), outcome
            assert wait_until(lambda: fleet_converged(server))
            assert server.shard_health()["process_restarts"] >= 1
            assert server.map_query("point", self.CALLS[:1]) == [2001]
            counters = server.stats()["counters"]
            assert counters["timeouts"] == len(self.CALLS)
            assert counters["submitted"] == (
                counters["completed"] + counters["timeouts"]
                + counters["errors"] + counters["cancelled"]
            ), counters
        finally:
            resume(pid)
            for thread in (bulk, write):
                if thread is not None:
                    thread.join()
            server.close()
        assert created_segments() == []

    def test_a_busy_worker_that_misses_a_bulk_deadline_is_killed(
            self, counted):
        """A worker busy, not stopped, looks the same to a sender: a
        ``map_query`` chunk queued behind another caller's slow chunk
        misses its short deadline, and the worker is killed.  The slow
        chunk's caller gets the retryable ``WorkerCrashedError``, as
        after any death; the slot is respawned and answers again."""
        server = ShardServer(counted, processes=1, cache_size=0,
                             supervise_interval=0.01)
        handle = server._handles[0]
        spec = (list(range(10)),) * 3  # ≈ 1 ms of ranging a call
        slow_calls = [(spec,)] * 5000
        slow = None
        try:
            slow, outcome = on_a_thread(lambda: server.map_query(
                "range", slow_calls, timeout=60.0))
            assert wait_until(lambda: handle.inflight() == len(slow_calls)
                              and not handle.pipe.sending)
            began = time.monotonic()
            with pytest.raises(DeadlineExceededError):
                server.map_query("point", self.CALLS, timeout=1.0)
            assert time.monotonic() - began < 1.5
            slow.join(10.0)
            assert isinstance(outcome[0], WorkerCrashedError), outcome
            assert wait_until(lambda: fleet_converged(server))
            assert server.shard_health()["process_restarts"] >= 1
            assert server.map_query("point", self.CALLS[:1]) == [2000]
            counters = server.stats()["counters"]
            assert counters["timeouts"] == len(self.CALLS)
            assert counters["errors"] == len(slow_calls)
        finally:
            if slow is not None:
                slow.join()
            server.close()
        assert created_segments() == []

    def test_a_stopped_worker_holds_no_server_thread(self, warehouse):
        """A worker SIGSTOPped behind an epoch is owed that one announce,
        not one more per scan that fills its pipe until a send blocks
        the supervisor.  So another worker's death is still repaired,
        and ``close()`` returns while the worker is stopped, and kills
        it."""
        server = ShardServer(warehouse, processes=2, cache_size=0,
                             supervise_interval=0.01)
        server.PUBLISH_ACK_TIMEOUT_S = 0.2  # keep the insert quick
        stopped, other = server._handles
        closer = None
        os.kill(stopped.pid, signal.SIGSTOP)
        try:
            server.insert([RECORD])
            time.sleep(2.0)
            assert stopped.pipe.controls_owed <= 1
            os.kill(other.pid, signal.SIGKILL)
            assert wait_until(lambda: server.shard_health()[
                "process_restarts"] >= 1, timeout_s=2.0)
            closer = threading.Thread(target=server.close)
            closer.start()
            closer.join(15.0)
            assert not closer.is_alive(), "close() waits on the stopped worker"
            assert gone(stopped.pid)
        finally:
            if not gone(stopped.pid):
                os.kill(stopped.pid, signal.SIGCONT)
            if closer is None:
                server.close()
            else:
                closer.join()
        assert created_segments() == []


class TestLedgerUnderFaults:
    def test_ledger_balances_through_chaos(self, server, faults):
        faults.arm("shard:attach", times=1, exc=InjectedCrash)
        victim = server.shard_health()["workers"][0]["pid"]
        server.insert([RECORD])
        os.kill(victim, signal.SIGKILL)
        for _ in range(20):
            try:
                server.point(("S3", "P1", "s"))
            except WorkerCrashedError:
                pass
        assert wait_until(lambda: fleet_converged(server))
        counters = server.stats()["counters"]
        assert counters["submitted"] == (
            counters["completed"] + counters["timeouts"]
            + counters["errors"] + counters["cancelled"]
        ), counters


class TestWorkerStart:
    def test_a_vanished_first_segment_exits_quietly(self, capfd):
        """A worker forked on a segment that is already gone (close()
        unlinked it mid-respawn) prints no traceback and hangs up: the
        parent's end of the pipe reads EOF, which fails the handshake."""
        parent_sock, child_sock = socket.socketpair()
        proc = _mp_context().Process(
            target=worker_main,
            args=(child_sock, "qctree-test-never-created", 0, 0,
                  [parent_sock]),
            daemon=True,
        )
        proc.start()
        child_sock.close()
        try:
            parent_sock.settimeout(15.0)
            assert parent_sock.recv(1) == b""
        finally:
            parent_sock.close()
            proc.join(15.0)
        assert proc.exitcode == 0
        assert "Traceback" not in capfd.readouterr().err
