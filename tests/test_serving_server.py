"""QCServer behavior: admission control, deadlines, metrics, lifecycle."""

from __future__ import annotations

import threading
import time

import pytest

from repro.core.warehouse import QCWarehouse
from repro.errors import (
    DeadlineExceededError,
    QueryError,
    ServerClosedError,
    ServerOverloadedError,
)
from repro.serving import QCServer
from repro.serving.metrics import LatencyHistogram, ServerMetrics
from tests.conftest import refreeze_ratios


@pytest.fixture
def warehouse(sales_table):
    return QCWarehouse(sales_table, aggregate="avg(Sale)")


@pytest.fixture
def server(warehouse):
    with QCServer(warehouse, workers=2, queue_size=8) as srv:
        yield srv


def register_gate(server):
    """Install an op that blocks until ``release`` is set, so tests can
    hold every worker busy deterministically."""
    release = threading.Event()
    entered = threading.Event()

    def gate(snapshot):
        entered.set()
        release.wait(5.0)
        return "gated"

    server.register_op("gate", gate)
    return release, entered


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

    def test_unknown_op_rejected_at_submission(self, server):
        with pytest.raises(QueryError, match="unknown server op"):
            server.submit("cube_everything")

    def test_query_error_propagates_through_future(self, server):
        with pytest.raises(QueryError):
            server.query("rollup", ("S1", "P1", "f"))
        assert server.stats()["counters"]["errors"] == 1

    def test_iceberg_comparator_kwarg(self, server):
        below = dict(server.query("iceberg", 6.0, op="<="))
        assert all(value <= 6.0 for value in below.values())

    def test_cached_answer_is_copied(self, server):
        first = server.range(("*", "*", "s"))
        first[("poison", "poison", "poison")] = -1.0
        assert ("poison",) * 3 not in server.range(("*", "*", "s"))

    def test_cache_hits_across_requests(self, server):
        for _ in range(3):
            server.point(("S2", "*", "f"))
        cache = server.stats()["cache"]
        assert cache["hits"] >= 2

    def test_register_op_extension(self, server):
        server.register_op("n_rows", lambda snap: snap.describe()["n_rows"])
        assert server.query("n_rows") == 3


class TestWrites:
    def test_insert_swaps_snapshot(self, server):
        before = server.snapshot
        assert server.point(("S3", "P1", "s")) is None
        server.insert([("S3", "P1", "s", 5.0)])
        assert server.snapshot is not before
        assert server.point(("S3", "P1", "s")) == 5.0
        assert server.stats()["counters"]["snapshot_swaps"] == 1

    def test_delete_swaps_snapshot(self, server):
        server.delete([("S1", "P2", "s", 12.0)])
        assert server.point(("S1", "P2", "s")) is None
        assert server.point(("*", "*", "*")) == 7.5  # avg of 6.0, 9.0

    def test_modify_publishes_once(self, server):
        server.modify([("S2", "P1", "f", 9.0)], [("S2", "P1", "f", 3.0)])
        assert server.point(("S2", "P1", "f")) == 3.0
        assert server.stats()["counters"]["snapshot_swaps"] == 1

    def test_write_invalidates_cached_answers(self, server):
        assert server.point(("*", "*", "*")) == 9.0
        server.insert([("S3", "P3", "s", 21.0)])
        assert server.point(("*", "*", "*")) == 12.0

    def test_readers_never_take_the_write_lock(self, server):
        """With the writer lock held, reads still complete: readers go
        through the snapshot reference only."""
        with server._write_lock:
            assert server.point(("S2", "*", "f"), timeout=2.0) == 9.0

    def test_dict_serving_warehouse_rejected(self, sales_table):
        """No store state is refused: a store whose verify failed was
        rebuilt, and its server publishes frozen trees."""
        wh = QCWarehouse(sales_table)
        victim = next(iter(wh.tree.iter_class_nodes()))
        wh.tree.set_state(victim, 123456)
        assert not wh.verify().ok
        with QCServer(wh, workers=1) as srv:
            assert srv.snapshot.describe()["frozen"] is True
            assert srv.point(("*", "*", "*")) == 3


class TestAdmissionControl:
    def test_queue_full_sheds(self, warehouse):
        with QCServer(warehouse, workers=1, queue_size=2) as srv:
            release, entered = register_gate(srv)
            blocker = srv.submit("gate")
            assert entered.wait(5.0)
            fillers = [srv.submit("point", ("S2", "*", "f"))
                       for _ in range(2)]
            with pytest.raises(ServerOverloadedError):
                srv.submit("point", ("S2", "*", "f"))
            assert srv.stats()["counters"]["shed"] == 1
            release.set()
            assert blocker.result(5.0) == "gated"
            assert [f.result(5.0) for f in fillers] == [9.0, 9.0]

    def test_deadline_expires_in_queue(self, warehouse):
        with QCServer(warehouse, workers=1, queue_size=8) as srv:
            release, entered = register_gate(srv)
            blocker = srv.submit("gate")
            assert entered.wait(5.0)
            doomed = srv.submit("point", ("S2", "*", "f"), timeout=0.02)
            time.sleep(0.1)
            release.set()
            with pytest.raises(DeadlineExceededError):
                doomed.result(5.0)
            assert blocker.result(5.0) == "gated"
            assert srv.stats()["counters"]["timeouts"] == 1

    def test_default_timeout_applies(self, warehouse):
        with QCServer(warehouse, workers=1, queue_size=8,
                      default_timeout=0.02) as srv:
            release, entered = register_gate(srv)
            srv.submit("gate", timeout=10.0)
            assert entered.wait(5.0)
            doomed = srv.submit("point", ("S2", "*", "f"))
            time.sleep(0.1)
            release.set()
            with pytest.raises(DeadlineExceededError):
                doomed.result(5.0)

    def test_cancelled_read_past_its_deadline_spares_the_worker(
            self, warehouse):
        """A queued read its caller cancels, whose deadline then passes
        before a worker claims it, is counted once as cancelled — not
        as a timeout, and not by killing the worker that claims it."""
        with QCServer(warehouse, workers=1, queue_size=8) as srv:
            release, entered = register_gate(srv)
            blocker = srv.submit("gate")
            assert entered.wait(5.0)
            victim = srv.submit("point", ("S2", "*", "f"), timeout=0.05)
            assert victim.cancel()
            time.sleep(0.1)
            release.set()
            assert blocker.result(5.0) == "gated"
            # Queued behind the victim: answered once it was claimed.
            assert srv.submit("point", ("S1", "P1", "s")).result(5.0) == 6.0
            counters = srv.stats()["counters"]
            workers = srv.worker_health()
            assert (counters["cancelled"], counters["timeouts"]) == (1, 0)
            assert (workers["crashes"], workers["restarts"]) == (0, 0)
            assert ledger_balances(counters)


class TestLifecycle:
    def test_close_is_idempotent_and_joins_workers(self, warehouse):
        srv = QCServer(warehouse, workers=3, name="leaktest")
        assert srv.point(("S2", "*", "f")) == 9.0
        srv.close()
        srv.close()
        assert srv.stats()["workers"]["alive"] == 0
        assert not any(
            t.name.startswith("leaktest") for t in threading.enumerate()
        )

    def test_workers_are_non_daemon(self, server):
        assert all(not t.daemon for t in server._workers)

    def test_submit_after_close_rejected(self, warehouse):
        srv = QCServer(warehouse, workers=1)
        srv.close()
        with pytest.raises(ServerClosedError):
            srv.submit("point", ("S2", "*", "f"))
        with pytest.raises(ServerClosedError):
            srv.insert([("S3", "P1", "s", 1.0)])

    def test_close_fails_stranded_requests(self, warehouse):
        srv = QCServer(warehouse, workers=1, queue_size=8)
        release, entered = register_gate(srv)
        blocker = srv.submit("gate")
        assert entered.wait(5.0)
        stranded = [srv.submit("point", ("S2", "*", "f"))
                    for _ in range(3)]
        closer = threading.Thread(target=srv.close)
        closer.start()
        time.sleep(0.05)
        release.set()
        closer.join(5.0)
        assert blocker.result(5.0) == "gated"
        for future in stranded:
            with pytest.raises(ServerClosedError):
                future.result(5.0)

    def test_context_manager_closes(self, warehouse):
        with QCServer(warehouse, workers=1) as srv:
            assert srv.point(("S2", "*", "f")) == 9.0
        assert srv.closed


class TestMetrics:
    def test_counters_are_consistent(self, server):
        for _ in range(5):
            server.point(("S2", "*", "f"))
        with pytest.raises(QueryError):
            server.query("rollup", ("S1", "P1", "f"))
        counters = server.stats()["counters"]
        assert counters["submitted"] == 6
        assert counters["submitted"] == (
            counters["completed"] + counters["timeouts"]
            + counters["errors"] + counters["cancelled"]
        )

    def test_per_op_histograms(self, server):
        server.point(("S2", "*", "f"))
        server.range(("*", "*", "s"))
        ops = server.stats()["ops"]
        assert ops["point"]["count"] == 1
        assert ops["range"]["count"] == 1
        assert ops["point"]["p50_us"] > 0

    def test_write_latency_recorded(self, server):
        server.insert([("S3", "P1", "s", 5.0)])
        assert server.stats()["ops"]["write:insert"]["count"] == 1

    def test_stats_shape(self, server):
        stats = server.stats()
        assert stats["queue"] == {"depth": 0, "maxsize": 8}
        assert stats["workers"]["configured"] == 2
        assert stats["snapshot"]["frozen"] is True
        assert stats["closed"] is False

    def test_histogram_percentiles(self):
        hist = LatencyHistogram()
        for us in (1, 10, 100, 1000, 10000):
            hist.observe(us / 1e6)
        snap = hist.snapshot()
        assert snap["count"] == 5
        assert snap["p50_us"] <= snap["p90_us"] <= snap["p99_us"]
        assert snap["max_us"] >= snap["p99_us"]

    def test_metrics_custom_counter(self):
        metrics = ServerMetrics()
        metrics.counter("special").inc(3)
        assert metrics.to_dict()["counters"]["special"] == 3


def ledger_balances(counters) -> bool:
    """The admission ledger: every submitted request has one outcome."""
    return counters["submitted"] == (
        counters["completed"] + counters["timeouts"]
        + counters["errors"] + counters["cancelled"]
    )


class TestCancellation:
    def test_cancelled_request_counted_in_ledger(self, warehouse):
        with QCServer(warehouse, workers=1, queue_size=8) as srv:
            release, entered = register_gate(srv)
            blocker = srv.submit("gate")
            assert entered.wait(5.0)
            victim = srv.submit("point", ("S2", "*", "f"))
            assert victim.cancel()
            release.set()
            assert blocker.result(5.0) == "gated"
            deadline = time.monotonic() + 5.0
            while (srv.stats()["counters"]["cancelled"] < 1
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            counters = srv.stats()["counters"]
            assert counters["cancelled"] == 1
            assert ledger_balances(counters)

    def test_cancelled_future_stranded_at_close(self, warehouse):
        """close() must not blow up on a stranded request whose future
        the caller already cancelled; it lands under ``cancelled``."""
        srv = QCServer(warehouse, workers=1, queue_size=8)
        release, entered = register_gate(srv)
        blocker = srv.submit("gate")
        assert entered.wait(5.0)
        stranded = srv.submit("point", ("S2", "*", "f"))
        dropped = srv.submit("point", ("S2", "*", "f"))
        assert dropped.cancel()
        closer = threading.Thread(target=srv.close)
        closer.start()
        time.sleep(0.05)
        release.set()
        closer.join(5.0)
        assert not closer.is_alive()
        assert blocker.result(5.0) == "gated"
        with pytest.raises(ServerClosedError):
            stranded.result(5.0)
        counters = srv.stats()["counters"]
        assert counters["stranded"] == 2
        assert counters["cancelled"] == 1
        assert ledger_balances(counters)


class TestWritePath:
    """The phased write pipeline: maintain -> refreeze -> publish."""

    def test_write_phase_split_in_stats(self, server):
        server.insert([("S3", "P1", "s", 5.0)])
        stats = server.stats()
        phases = stats["write_phases"]
        for phase in ("maintain", "refreeze", "publish"):
            assert phases[phase]["count"] == 1
        assert "warm" not in phases
        # Phase histograms are grouped, not duplicated under ops.
        assert not any(op.startswith("write_phase:") for op in stats["ops"])
        counters = stats["counters"]
        assert counters["refreeze_patched"] + counters["refreeze_full"] == 1
        assert stats["refreeze"]["mode"] in ("patched", "full", "compacted",
                                             "fresh")

    @pytest.mark.usefixtures("maintained")
    def test_small_write_takes_patched_refreeze(self, sales_table):
        # The sales tree is tiny, so one insert dirties more than the
        # 25% ratio; a permissive ratio proves the plumbing.
        warehouse = QCWarehouse(sales_table, aggregate="avg(Sale)")
        with refreeze_ratios(full=1.0), \
                QCServer(warehouse, workers=2) as server:
            server.point(("S2", "*", "f"))  # compile the initial view
            server.insert([("S3", "P1", "s", 5.0)])
            stats = server.stats()
            assert stats["refreeze"]["mode"] == "patched"
            assert stats["counters"]["refreeze_patched"] == 1

    def test_cached_answers_reflect_the_write(self, warehouse):
        """A cell the write changed answers its post-write value, not
        the one cached before the swap."""
        with QCServer(warehouse, workers=2) as server:
            for _ in range(3):
                assert server.point(("S1", "P1", "s")) == 6.0
            server.insert([("S1", "P1", "s", 12.0)])  # avg becomes 9.0
            assert server.point(("S1", "P1", "s")) == 9.0
