"""ShardServer behavior: multi-process serving, placement, hygiene.

The multi-process server must present exactly the thread server's
surface (same ops, same answers, same stats ledger) while running reads
in forked worker processes over one shared-memory snapshot — and must
leave *nothing* behind on shutdown: no threads, no processes, and no
``/dev/shm/qctree-*`` segments (the shared-memory analogue of the
``leaked_threads`` guard).
"""

from __future__ import annotations

import gc
import os
import pickle
import signal
import subprocess
import sys
import threading
import time
from itertools import product

import pytest

from repro.core.cells import ALL
from repro.core.warehouse import QCWarehouse
from repro.errors import QueryError, ServerClosedError, ServingError
from repro.shard import (
    ShardServer,
    active_segments,
    created_segments,
    pack_snapshot_bytes,
)
from repro.shard import frame
from repro.shard.segment import create_segment, unlink_segment
from repro.shard.worker import _BATCH_MIN, worker_main



@pytest.fixture
def warehouse(sales_table):
    return QCWarehouse(sales_table, aggregate="avg(Sale)")


@pytest.fixture
def server(warehouse):
    srv = ShardServer(warehouse, processes=2, queue_size=32)
    yield srv
    srv.close()
    assert created_segments() == []


def own_segments() -> list:
    """This process's ``/dev/shm`` segments: another process on the
    machine lists its own under the same ``qctree-`` prefix."""
    return [s for s in active_segments()
            if s.startswith(f"qctree-{os.getpid()}-")]


def wait_until(predicate, timeout_s: float = 5.0) -> bool:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


class TestQueries:
    def test_point_range_iceberg(self, server):
        assert server.point(("S2", "*", "f")) == 9.0
        assert server.range((["S1", "S2"], "*", "s")) == {
            ("S1", "*", "s"): 9.0
        }
        results = dict(server.iceberg(9.0))
        assert results[("S1", "P2", "s")] == 12.0

    def test_exploration_ops_match_warehouse(self, server, warehouse):
        cell = ("S2", "P1", "f")
        for op, method in [
            ("rollup", warehouse.rollup),
            ("rollups", warehouse.rollups),
            ("drilldowns", warehouse.drilldowns),
            ("rollup_exceptions", warehouse.rollup_exceptions),
            ("open_class", warehouse.open_class),
            ("class_of", warehouse.class_of),
        ]:
            assert server.query(op, cell) == method(cell)

    def test_answers_come_from_worker_processes(self, server):
        # Uncached distinct cells must travel the pipe, not the parent.
        for product in ("P1", "P2"):
            server.point(("S1", product, "s"))
        shard = server.shard_health()
        assert sum(w["answered"] for w in shard["workers"]) >= 2

    def test_worker_error_propagates(self, server):
        with pytest.raises(QueryError):
            server.query("rollup", ("S1", "P1", "f"))  # not a class cell

    def test_register_op_runs_parent_side(self, server):
        server.register_op("n_rows", lambda snap: snap.describe()["n_rows"])
        answered_before = sum(
            w["answered"] for w in server.shard_health()["workers"]
        )
        assert server.query("n_rows") == 3
        answered_after = sum(
            w["answered"] for w in server.shard_health()["workers"]
        )
        assert answered_after == answered_before

    def test_cache_still_works(self, server):
        for _ in range(3):
            server.point(("S2", "*", "f"))
        assert server.stats()["cache"]["hits"] >= 2


class TestWrites:
    def test_insert_publishes_new_epoch_to_fleet(self, server):
        assert server.point(("S3", "P1", "s")) is None
        server.insert([("S3", "P1", "s", 5.0)])
        assert server.point(("S3", "P1", "s")) == 5.0
        shard = server.shard_health()
        assert shard["current_epoch"] == 2
        assert shard["publishes"] == 1
        assert wait_until(lambda: all(
            w["attached_epoch"] == 2
            for w in server.shard_health()["workers"]
        ))

    def test_old_segments_are_garbage_collected(self, server):
        for i in range(3):
            server.insert([(f"S{i + 4}", "P1", "s", 1.0)])
        assert wait_until(lambda: all(
            w["attached_epoch"] == 4
            for w in server.shard_health()["workers"]
        ))
        server.insert([("S9", "P1", "s", 1.0)])
        # Only the current epoch's segment should remain registered.
        assert wait_until(lambda: len(created_segments()) == 1)

    def test_ack_that_beats_the_announce_loop_is_not_lost(self, server):
        """A worker can ack a publish before ``_publish`` has finished
        announcing it to the rest of the fleet (it does, now that its
        detach no longer collects the heap it inherited at fork).  The
        ticket must already expect it, or it never clears: a full ack
        timeout per write and an epoch segment that is never unlinked."""
        first, last = server._handles
        first_send, last_send = first.send, last.send
        held = []

        def hold_the_announce(message, wait):
            if message[0] != "publish":
                return first_send(message, wait)
            held.append(message)  # worker 0 hears of it last
            return True

        def send_then_wait_for_the_ack(message, wait):
            sent = last_send(message, wait)
            if sent and message[0] == "publish":
                assert wait_until(lambda: last.attached_epoch == message[2])
                while held:
                    first_send(held.pop(), wait)
            return sent

        first.send = hold_the_announce
        last.send = send_then_wait_for_the_ack
        # No supervisor re-announce meanwhile: a second ack would paper
        # over a lost one.
        first.last_announce = last.last_announce = time.monotonic()
        server.PUBLISH_ACK_TIMEOUT_S = 0.2  # keep a regression quick
        server.insert([("S4", "P1", "s", 1.0)])
        assert server._tickets == {}
        assert wait_until(lambda: len(created_segments()) == 1)

    def test_delete_matches_thread_server(self, server):
        server.delete([("S1", "P2", "s", 12.0)])
        assert server.point(("S1", "P2", "s")) is None
        assert server.point(("*", "*", "*")) == 7.5


class TestMapQuery:
    def test_results_in_input_order(self, server, warehouse):
        cells = [("S1", "P1", "s"), ("S2", "P1", "f"),
                 ("S1", "*", "*"), ("*", "*", "*"),
                 ("S1", "P2", "s"), ("missing", "P1", "s")]
        # An unknown label is a "no such cell" → None, not an error.
        expected = [warehouse.point(c) for c in cells[:-1]] + [None]
        got = server.map_query("point", [(c,) for c in cells])
        assert all(g == e for g, e in zip(got, expected))

    def test_bulk_keeps_ledger_balanced(self, server):
        calls = [(("S1", "P1", "s"),)] * 10
        server.map_query("point", calls)
        counters = server.stats()["counters"]
        assert counters["submitted"] >= 10
        assert counters["submitted"] == (
            counters["completed"] + counters["timeouts"]
            + counters["errors"] + counters["cancelled"]
        )

    def test_non_snapshot_op_rejected(self, server):
        with pytest.raises(QueryError, match="map_query"):
            server.map_query("stats", [()])

    def test_spreads_across_fleet(self, server):
        cells = [(f"S{i}", "P1", "s") for i in range(40)]
        server.map_query("point", [(c,) for c in cells])
        answered = [w["answered"] for w in server.shard_health()["workers"]]
        assert all(a > 0 for a in answered)

    def test_a_batch_splits_into_even_contiguous_shares(self, warehouse):
        """A 2-process batch of 37 calls goes out as the first 18 and
        the last 19, in input order, and answers what a 1-process fleet
        answers."""
        calls = [((first, "P1", "s"),)
                 for first in ("S1", "S2", "*", None, ALL, "S1", "x", 7,
                               7.0, "S2", "*", "S9")] * 3
        calls.append((("S2", "*", "f"),))
        server = ShardServer(warehouse, processes=2, cache_size=0)
        sent: dict = {}
        try:
            for handle in server._handles:
                def post(data, until, rid=None, sink=None, charge=0,
                         slot=handle.slot, original=handle.post):
                    sent.setdefault(slot, []).extend(
                        _chunk_calls(data, {rid: sink}, calls))
                    return original(data, until, rid, sink, charge)
                handle.post = post
            answers = server.map_query("point", calls)
        finally:
            server.close()
        assert sent == {0: calls[:18], 1: calls[18:]}
        with ShardServer(QCWarehouse(warehouse.table, "avg(Sale)"),
                         processes=1, cache_size=0) as single:
            assert single.map_query("point", calls) == answers

    def test_a_batch_is_not_a_point_sample(self, server):
        """A ``map_query`` batch's wall time is recorded under its own
        histogram, not as one sample of the op's."""
        server.point(("S1", "*", "*"))
        before = server.stats()["ops"]["point"]["count"]
        server.map_query("point", [(("S2", "*", "f"),)] * 200)
        ops = server.stats()["ops"]
        assert ops["point"]["count"] == before
        assert ops["map_query:point"]["count"] == 1

    def test_a_point_chunk_answers_like_the_warehouse(self, warehouse):
        """One worker, one chunk past ``_BATCH_MIN``: the batch kernel
        answers as the warehouse does, value and type, and a wrong-arity
        call in the middle fails alone."""
        labels = [("S1", "S2", "S9", "*", None), ("P1", "P2", "*"),
                  ("s", "f", "*")]
        calls = [(cell,) for cell in product(*labels)] * 3
        assert len(calls) >= _BATCH_MIN
        want = [warehouse.point(cell) for (cell,) in calls]
        server = ShardServer(warehouse, processes=1, cache_size=0)
        try:
            got = server.map_query("point", calls)
            assert got == want
            assert [type(v) for v in got] == [type(v) for v in want]
            before = server.stats()["counters"]
            with pytest.raises(QueryError, match="positions"):
                server.map_query(
                    "point", calls[:70] + [(("S1", "P1"),)] + calls[70:])
            after = server.stats()["counters"]
        finally:
            server.close()
        assert (after["completed"] - before["completed"],
                after["errors"] - before["errors"]) == (len(calls), 1)


class TestStatsAndHealth:
    def test_stats_has_shard_block(self, server):
        shard = server.stats()["shard"]
        assert shard["processes_configured"] == 2
        assert shard["processes_alive"] == 2
        assert shard["process_restarts"] == 0
        assert shard["current_epoch"] == 1
        assert shard["snapshot_bytes"] > 0
        assert len(shard["workers"]) == 2
        for worker in shard["workers"]:
            assert worker["alive"]
            assert worker["attached_epoch"] == 1
        assert "publish_detach_wait_us" in shard

    def test_health_report_has_shard_block(self, server):
        from repro.serving.health import health_report

        report = health_report(server)
        assert report["status"] == "ok"
        assert report["shard"]["processes_alive"] == 2

    def test_shard_phase_histograms_after_publish(self, server):
        server.insert([("S3", "P1", "s", 5.0)])
        phases = server.stats()["shard_phases"]
        assert phases["pack"]["count"] >= 1
        assert phases["publish_detach_wait"]["count"] >= 1


class TestConstruction:
    def test_rejects_zero_processes(self, warehouse):
        with pytest.raises(ValueError):
            ShardServer(warehouse, processes=0)

    def test_rejects_dict_engine_warehouse(self, sales_table):
        """A store whose verify failed was rebuilt from its table, so
        the fleet packs and serves the fresh tree."""
        warehouse = QCWarehouse(sales_table, aggregate="avg(Sale)")
        victim = next(iter(warehouse.tree.iter_class_nodes()))
        warehouse.tree.set_state(victim, (123456.0, 1))
        assert not warehouse.verify().ok
        server = ShardServer(warehouse, processes=1)
        try:
            assert server.point(("S2", "*", "f")) == 9.0
            assert server.point(("*", "*", "*")) == 9.0
        finally:
            server.close()
        assert created_segments() == []

    def test_rejects_segmented_warehouse(self, sales_table):
        """One packed snapshot cannot scatter-gather: serving only the
        head piece would answer NULL for every sealed row."""
        from repro.segments import SegmentedWarehouse

        warehouse = SegmentedWarehouse(
            sales_table, aggregate="avg(Sale)", seal_rows=2
        )
        assert warehouse.segment_health()["segments_live"] == 1
        with pytest.raises(ServingError, match="monolithic"):
            ShardServer(warehouse, processes=1)
        assert created_segments() == []
        assert own_segments() == []

    def test_rejects_unsealed_segmented_warehouse(self, sales_table):
        """Refused for what the store can become: a head that has not
        sealed yet is one piece today, and its first seal would fail
        every later publish into degraded read-only mode."""
        from repro.segments import SegmentedWarehouse

        warehouse = SegmentedWarehouse(
            sales_table, aggregate="avg(Sale)", seal_rows=10**6
        )
        try:
            assert len(warehouse.snapshot_view().pieces) == 1
            with pytest.raises(ServingError, match="monolithic"):
                ShardServer(warehouse, processes=1)
            assert created_segments() == []
        finally:
            warehouse.close()

    def test_closed_server_rejects_queries(self, warehouse):
        server = ShardServer(warehouse, processes=1)
        server.close()
        with pytest.raises(ServerClosedError):
            server.point(("S1", "P1", "s"))
        with pytest.raises(ServerClosedError):
            server.map_query("point", [(("S1", "P1", "s"),)])


class TestPlacement:
    def test_reads_round_robin_over_the_fleet(self, warehouse):
        with ShardServer(warehouse, processes=2, cache_size=0) as server:
            for _ in range(6):
                assert server.point(("S2", "*", "f")) == 9.0
            answered = [w["answered"]
                        for w in server.shard_health()["workers"]]
        assert answered == [3, 3]

    @pytest.mark.parametrize("n_calls", [0, 1, 2, 3, 7, 9])
    def test_shares_are_contiguous_and_differ_by_at_most_one(self, n_calls):
        live = ("a", "b", "c")
        shares = ShardServer._place(n_calls, live)
        slots = [live.index(handle) for handle, _ in shares]
        assert slots == sorted(set(slots))  # each worker once, in order
        indices = [i for _, share in shares for i in share]
        assert indices == list(range(n_calls))
        sizes = [len(share) for _, share in shares]
        assert all(sizes) and max(sizes, default=0) - min(
            sizes, default=0) <= 1


def _chunk_calls(data, sinks, calls) -> list:
    """The calls a ``map_query`` chunk frame carries: a pickled chunk's
    own, a code chunk's those of its sink's indices."""
    kind, rid, _length = frame.HEADER.unpack_from(data)
    if kind == frame.CHUNK:
        return pickle.loads(data[frame.HEADER.size:])[1]
    if kind == frame.CODES:
        return [calls[i] for i in sinks[rid].indices]
    return []


def _as_frame(message) -> bytes:
    """A message of the tuple wire (``("q", [(rid, op, args, kwargs)])``,
    or a control tuple) as the frame that carries it now."""
    if message[0] == "q":
        (rid, op, args, kwargs), = message[1]
        return frame.pickled(frame.REQUEST, rid, (op, args, kwargs, None))
    return frame.pickled(frame.CONTROL, 0, message)


def _as_message(data: bytes):
    """A worker's frame as the tuple wire's message: a control tuple, or
    ``("a", [(rid, ok, payload)])``."""
    kind, rid, _length = frame.HEADER.unpack_from(data)
    body = data[frame.HEADER.size:]
    if kind == frame.CONTROL:
        return pickle.loads(body)
    if kind == frame.VALUE:
        status, value = frame.VALUE_BODY.unpack(body)
        return ("a", [(rid, True, value if status == frame.FLOAT else None)])
    return ("a", [(rid, *pickle.loads(body))])


class _StubPipe:
    """The worker's end of the pipe, scripted: hands out ``inbox`` as
    frames and then EOF, records what the worker sends."""

    def __init__(self, inbox):
        self.inbox = b"".join(map(_as_frame, inbox))
        self.sent = []

    def recv_into(self, view):
        n = min(len(view), len(self.inbox))
        view[:n] = self.inbox[:n]
        self.inbox = self.inbox[n:]
        return n

    def sendall(self, data):
        self.sent.append(_as_message(data))

    def close(self):
        pass


class TestWorkerMain:
    @pytest.fixture
    def segment(self, warehouse):
        snapshot = warehouse.snapshot_view()
        shm = create_segment(
            pack_snapshot_bytes(snapshot.tree, snapshot.table)
        )
        yield shm.name
        gc.unfreeze()  # worker_main ran in this process: undo its freeze
        unlink_segment(shm.name)
        assert created_segments() == []

    def test_freezes_the_inherited_heap(self, segment):
        """A forked worker must not rescan the parent's heap on every
        full collection: ``worker_main`` parks it before serving."""
        gc.unfreeze()
        assert gc.get_freeze_count() == 0
        pipe = _StubPipe([
            ("q", [(1, "point", (("S2", ALL, "f"),), {})]),
        ])
        worker_main(pipe, segment, lsn=4, epoch=1)
        assert gc.get_freeze_count() > 0
        assert pipe.sent[0] == ("ready", os.getpid(), 1)
        assert pipe.sent[1][0] == "a"
        rid, ok, _answer = pipe.sent[1][1][0]
        assert (rid, ok) == (1, True)


class TestHygiene:
    def test_close_leaves_nothing(self, warehouse):
        server = ShardServer(warehouse, processes=2)
        server.point(("S1", "P1", "s"))
        server.insert([("S3", "P1", "s", 5.0)])
        procs = [h.proc for h in server._handles]
        server.close()
        server.close()  # idempotent
        assert created_segments() == []
        assert own_segments() == []
        for proc in procs:
            # close() released the Process object entirely.
            with pytest.raises(ValueError):
                proc.is_alive()
        assert not [
            t for t in threading.enumerate()
            if t.name.startswith(server.name)
        ]

    def test_close_during_a_respawn_leaves_nothing(self, warehouse):
        """``close()`` while the supervisor is mid-respawn (a fork that
        takes a while on a loaded box): the fresh worker and its
        receiver thread must be stopped with the rest of the fleet, not
        installed after the fleet was stopped — the ``shard-rx`` thread
        ``test_close_leaves_nothing`` once found alive."""
        server = ShardServer(warehouse, processes=2)
        began = threading.Event()
        spawn = server._spawn_process

        def slow_spawn(*args):
            began.set()
            time.sleep(0.3)
            return spawn(*args)

        server._spawn_process = slow_spawn
        os.kill(server._handles[0].proc.pid, signal.SIGKILL)
        assert began.wait(5.0), "supervisor never started the respawn"
        server.close()
        assert not [
            t.name for t in threading.enumerate()
            if t.name.startswith(server.name)
        ]
        for handle in server._handles:
            with pytest.raises(ValueError):  # closed, hence reaped
                handle.proc.is_alive()
        assert server.shard_health()["receiver_join_timeouts"] == 0
        assert created_segments() == []

    def test_close_kills_a_stopped_worker(self, warehouse):
        """A SIGSTOPped worker does not exit when its pipe ends:
        ``close()`` kills it, and no worker process remains."""
        server = ShardServer(warehouse, processes=1)
        pid = server._handles[0].pid
        os.kill(pid, signal.SIGSTOP)
        try:
            server.close()
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)
        finally:
            try:
                os.kill(pid, signal.SIGCONT)
            except ProcessLookupError:
                pass
        assert created_segments() == []

    def test_context_manager_cleans_up(self, warehouse):
        with ShardServer(warehouse, processes=1) as server:
            assert server.point(("S2", "*", "f")) == 9.0
        assert created_segments() == []

    @staticmethod
    def _signal_a_serving_script(tmp_path, signum) -> tuple:
        """Run a two-worker ShardServer in a child interpreter, deliver
        ``signum`` to it, and wait (up to 5 s) for its forked workers to
        exit; returns ``(script pid, worker pids still alive)``."""
        script = tmp_path / "serve_until_term.py"
        script.write_text(
            "import signal, sys\n"
            "from repro.core.warehouse import QCWarehouse\n"
            "from repro.cube.schema import Schema\n"
            "from repro.cube.table import BaseTable\n"
            "from repro.shard import ShardServer, install_signal_cleanup\n"
            "schema = Schema(dimensions=('A', 'B'), measures=('m',))\n"
            "table = BaseTable.from_records(\n"
            "    [('a1', 'b1', 1.0), ('a2', 'b2', 2.0)], schema)\n"
            "install_signal_cleanup()\n"
            "server = ShardServer(QCWarehouse(table, aggregate='sum(m)'),\n"
            "                     processes=2)\n"
            "print('READY', *[h.proc.pid for h in server._handles],\n"
            "      flush=True)\n"
            "signal.pause()\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), os.pardir, "src")]
            + env.get("PYTHONPATH", "").split(os.pathsep)
        )
        proc = subprocess.Popen(
            [sys.executable, str(script)], env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            ready, *workers = proc.stdout.readline().split()
            assert ready == "READY" and len(workers) == 2
            mine = [s for s in active_segments()
                    if s.startswith(f"qctree-{proc.pid}-")]
            assert mine, "server should have published a segment"
            proc.send_signal(signum)
            proc.wait(timeout=10)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()

        def alive(pid) -> bool:
            # An orphan nobody reaps stays a zombie: exited all the same.
            try:
                with open(f"/proc/{pid}/stat") as stat:
                    return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
            except FileNotFoundError:
                return False

        deadline = time.monotonic() + 5.0
        while any(map(alive, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        return proc.pid, [pid for pid in workers if alive(pid)]

    def test_sigterm_leaves_no_segments(self, tmp_path):
        """A supervisor SIGTERM must leave neither /dev/shm litter nor
        orphaned worker processes."""
        pid, orphans = self._signal_a_serving_script(tmp_path,
                                                     signal.SIGTERM)
        assert orphans == []
        leftovers = [s for s in active_segments()
                     if s.startswith(f"qctree-{pid}-")]
        assert leftovers == []

    def test_sigkill_leaves_no_orphans(self, tmp_path):
        """SIGKILL runs no handler, so /dev/shm cleanup cannot be
        promised — but the workers must still see EOF and exit."""
        pid, orphans = self._signal_a_serving_script(tmp_path,
                                                     signal.SIGKILL)
        for name in active_segments():
            if name.startswith(f"qctree-{pid}-"):
                os.unlink(os.path.join("/dev/shm", name))
        assert orphans == []
