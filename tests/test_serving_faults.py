"""Serving-layer chaos suite: injected faults against the fault-tolerant
server.

Every test drives one failure shape through
:class:`~repro.reliability.faults.ServingFaults` and asserts the exact
recovery the server promises: killed workers are respawned and their
requests failed retryably, each write-pipeline phase recovers (or
degrades to read-only on the last-good snapshot and comes back), and
the admission ledger stays balanced throughout.  The sweep at the end
enumerates every write-pipeline fault site and checks every op against
the model (``tests/model.py``) once the faults clear.
"""

from __future__ import annotations

import inspect
import re
import threading
import time

import pytest

from repro.core.warehouse import QCWarehouse
from repro.errors import (
    ServerDegradedError,
    ServingError,
    WorkerCrashedError,
    WriteQuarantinedError,
)
from repro.reliability.faults import (
    InjectedFault,
    ServingFaults,
    WorkerKilled,
)
from repro.serving import QCServer
from repro.serving import server as server_module
from repro.shard import server as shard_server_module
from tests.faults import ChaosMonkey, InjectedCrash

from . import model
from .retry import RetryPolicy


@pytest.fixture
def warehouse(sales_table):
    return QCWarehouse(sales_table, aggregate="avg(Sale)")


@pytest.fixture
def faults():
    return ServingFaults()


def wait_until(predicate, timeout_s: float = 5.0) -> bool:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


def assert_ledger(server):
    counters = server.stats()["counters"]
    assert counters["submitted"] == (
        counters["completed"] + counters["timeouts"]
        + counters["errors"] + counters["cancelled"]
    ), counters


class TestServingFaults:
    def test_unarmed_site_is_free(self, faults):
        faults.fire("op:point")  # no-op
        assert faults.fired("op:point") == 0

    def test_times_bounds_firings(self, faults):
        faults.arm("op:point", times=2, exc=InjectedFault)
        for _ in range(2):
            with pytest.raises(InjectedFault):
                faults.fire("op:point")
        faults.fire("op:point")  # disarmed after the budget
        assert faults.fired("op:point") == 2

    def test_after_skips_then_fires(self, faults):
        faults.arm("op:point", times=1, after=2, exc=InjectedFault)
        faults.fire("op:point")
        faults.fire("op:point")
        with pytest.raises(InjectedFault):
            faults.fire("op:point")

    def test_delay_only_fault(self, faults):
        faults.arm("op:point", times=1, delay_s=0.01, exc=None)
        start = time.monotonic()
        faults.fire("op:point")
        assert time.monotonic() - start >= 0.01
        assert faults.fired("op:point") == 1

    def test_persistent_fault_until_disarmed(self, faults):
        faults.arm("op:point", times=None, exc=InjectedFault)
        for _ in range(3):
            with pytest.raises(InjectedFault):
                faults.fire("op:point")
        faults.disarm("op:point")
        faults.fire("op:point")
        assert faults.fired("op:point") == 3

    def test_kill_next_worker_arms_worker_site(self, faults):
        faults.kill_next_worker()
        with pytest.raises(WorkerKilled):
            faults.fire("worker")

    def test_arm_refuses_a_site_no_server_fires(self, faults):
        """A plan naming a site no server fires (a removed write phase,
        a typo) fails when armed instead of silently never firing; the
        named sites are exactly the literal ones the servers fire."""
        fired = set()
        for module in (server_module, shard_server_module):
            fired |= set(re.findall(r'_fire\("([^"]+)"\)',
                                    inspect.getsource(module)))
        assert fired == ServingFaults.SITES
        for site in sorted(fired) + ["op:point", "op:rollup"]:
            faults.arm(site)
        for site in ("write:warm", "op:", "point", "shard:pack"):
            with pytest.raises(ValueError, match="no server fires"):
                faults.arm(site)
        assert not faults.armed("write:warm")


class TestWorkerSupervision:
    def test_killed_worker_fails_request_and_is_respawned(
            self, warehouse, faults):
        with QCServer(warehouse, workers=2, faults=faults,
                      supervise_interval=0.01) as server:
            faults.kill_next_worker()
            with pytest.raises(WorkerCrashedError):
                server.point(("S2", "*", "f"))
            assert wait_until(
                lambda: server.worker_health()["alive"] == 2
            ), server.worker_health()
            health = server.worker_health()
            assert health["crashes"] == 1
            assert health["restarts"] == 1
            # The respawned pool serves normally.
            assert server.point(("S2", "*", "f")) == 9.0
            assert_ledger(server)
            assert server.health()["status"] == "ok"

    def test_every_worker_killed_pool_recovers(self, warehouse, faults):
        with QCServer(warehouse, workers=3, faults=faults,
                      supervise_interval=0.01) as server:
            faults.kill_next_worker(times=3)
            failures = 0
            for _ in range(3):
                try:
                    server.point(("S2", "*", "f"))
                except WorkerCrashedError:
                    failures += 1
            assert failures == 3
            assert wait_until(
                lambda: server.worker_health()["alive"] == 3
            )
            assert server.point(("S2", "*", "f")) == 9.0
            assert_ledger(server)

    def test_unsupervised_pool_shrinks_but_never_hangs_callers(
            self, warehouse, faults):
        """Without the supervisor the pool stays shrunk — but the crash
        is still counted and the claimed request still fails fast
        instead of silently hanging (the old bug)."""
        with QCServer(warehouse, workers=2, faults=faults,
                      supervised=False) as server:
            faults.kill_next_worker()
            with pytest.raises(WorkerCrashedError):
                server.point(("S2", "*", "f"))
            assert wait_until(
                lambda: server.worker_health()["alive"] == 1
            )
            health = server.worker_health()
            assert health["crashes"] == 1
            assert health["restarts"] == 0
            assert not health["supervised"]
            # The surviving worker still serves.
            assert server.point(("S2", "*", "f")) == 9.0
            assert_ledger(server)

    def test_restart_budget_bounds_respawn_rate(self, warehouse, faults):
        with QCServer(warehouse, workers=1, faults=faults,
                      supervise_interval=0.01) as server:
            server.MAX_RESTARTS_PER_WINDOW = 0  # exhaust the budget
            faults.kill_next_worker()
            with pytest.raises(WorkerCrashedError):
                server.point(("S2", "*", "f"))
            time.sleep(0.1)  # several supervisor scans
            assert server.worker_health()["alive"] == 0
            assert server.worker_health()["restarts"] == 0
            server.MAX_RESTARTS_PER_WINDOW = 32  # budget restored
            assert wait_until(
                lambda: server.worker_health()["alive"] == 1
            )
            assert server.point(("S2", "*", "f")) == 9.0

    def test_worker_holding_one_read_too_long_shows_wedged(self, warehouse):
        """A worker thread held by one read past ``WEDGE_TIMEOUT_S`` is
        wedged, and ``oldest_read_s`` says for how long."""
        release, entered = threading.Event(), threading.Event()

        def gate(snapshot):
            entered.set()
            release.wait(5.0)
            return "gated"

        with QCServer(warehouse, workers=2) as server:
            server.WEDGE_TIMEOUT_S = 0.1
            server.register_op("gate", gate)
            held = server.submit("gate")
            assert entered.wait(5.0)
            time.sleep(0.2)
            workers = server.worker_health()
            assert workers["wedged"] == 1
            assert workers["oldest_read_s"] >= 0.2
            release.set()
            assert held.result(5.0) == "gated"
            assert wait_until(lambda: server.worker_health()["wedged"] == 0)

    def test_injected_op_error_does_not_kill_worker(self, warehouse, faults):
        """Op-level faults are request errors, not worker deaths."""
        with QCServer(warehouse, workers=1, faults=faults) as server:
            faults.arm("op:point", times=1, exc=InjectedFault)
            with pytest.raises(InjectedFault):
                server.point(("S2", "*", "f"))
            health = server.worker_health()
            assert health["alive"] == 1
            assert health["crashes"] == 0
            assert server.point(("S2", "*", "f")) == 9.0
            assert_ledger(server)


class TestWritePipelineRecovery:
    RECORD = ("S3", "P1", "s", 5.0)

    def test_maintain_crash_leaves_answers_unchanged(
            self, warehouse, faults):
        with QCServer(warehouse, workers=2, faults=faults) as server:
            before = server.point(("*", "*", "*"))
            faults.arm("write:maintain", times=1, exc=InjectedCrash)
            with pytest.raises(InjectedCrash):
                server.insert([self.RECORD])
            counters = server.stats()["counters"]
            assert counters["writes_failed"] == 1
            assert counters["snapshot_swaps"] == 0
            assert server.point(("*", "*", "*")) == before
            assert not server.write_degraded
            # The fault cleared: the same batch now goes through.
            server.insert([self.RECORD])
            assert server.point(("S3", "P1", "s")) == 5.0

    def test_refreeze_crash_falls_back_to_full_recompile(
            self, warehouse, faults):
        with QCServer(warehouse, workers=2, faults=faults) as server:
            faults.arm("write:refreeze", times=1, exc=InjectedCrash)
            server.insert([self.RECORD])  # recovered transparently
            counters = server.stats()["counters"]
            assert counters["refreeze_fallbacks"] == 1
            assert counters["snapshot_swaps"] == 1
            assert server.point(("S3", "P1", "s")) == 5.0
            assert server.health()["status"] == "ok"

    def test_publish_crash_retries_from_fresh_snapshot(
            self, warehouse, faults):
        with QCServer(warehouse, workers=2, faults=faults) as server:
            faults.arm("write:publish", times=1, exc=InjectedCrash)
            server.insert([self.RECORD])
            counters = server.stats()["counters"]
            assert counters["publish_retries"] == 1
            assert server.point(("S3", "P1", "s")) == 5.0
            assert server.health()["status"] == "ok"

    def test_persistent_publish_fault_degrades_then_recovers(
            self, warehouse, faults):
        with QCServer(warehouse, workers=2, faults=faults) as server:
            before = server.point(("*", "*", "*"))
            faults.arm("write:publish", times=None, exc=InjectedCrash)
            with pytest.raises(ServerDegradedError):
                server.insert([self.RECORD])
            assert server.write_degraded
            assert server.degraded_reason["phase"] == "publish"
            assert server.stats()["counters"]["degraded_entered"] == 1
            # Readers keep the last-good snapshot: old answers, no errors.
            assert server.point(("*", "*", "*")) == before
            assert server.point(("S3", "P1", "s")) is None
            # Writes keep probing and failing while the fault persists.
            with pytest.raises(ServerDegradedError):
                server.insert([("S3", "P2", "w", 4.0)])
            assert server.recover() is False
            # Fault clears: recovery publishes the stuck write.
            faults.disarm("write:publish")
            assert server.recover() is True
            assert not server.write_degraded
            assert server.stats()["counters"]["degraded_exited"] == 1
            assert server.point(("S3", "P1", "s")) == 5.0
            assert server.health()["status"] == "ok"

    def test_degraded_exit_via_next_write_probe(self, warehouse, faults):
        with QCServer(warehouse, workers=2, faults=faults) as server:
            faults.arm("write:refreeze", times=2, exc=InjectedCrash)
            with pytest.raises(ServerDegradedError):
                server.insert([self.RECORD])
            assert server.write_degraded
            # The fault budget is spent, so the next write's implicit
            # probe heals the server and then applies the write.
            server.insert([("S3", "P2", "w", 4.0)])
            assert not server.write_degraded
            assert server.point(("S3", "P1", "s")) == 5.0
            assert server.point(("S3", "P2", "w")) == 4.0

    def test_repeated_maintain_crash_quarantines_batch(
            self, warehouse, faults):
        with QCServer(warehouse, workers=1, faults=faults,
                      quarantine_after=2) as server:
            faults.arm("write:maintain", times=2, exc=InjectedCrash)
            batch = [self.RECORD]
            for _ in range(2):
                with pytest.raises(InjectedCrash):
                    server.insert(batch)
            counters = server.stats()["counters"]
            assert counters["writes_quarantined"] == 1
            # The fault is gone, but the batch stays quarantined with a
            # typed error instead of re-crashing the writer.
            with pytest.raises(WriteQuarantinedError):
                server.insert(batch)
            assert server.stats()["degraded"]["quarantined_batches"] == 1
            # Other batches are unaffected.
            server.insert([("S3", "P2", "w", 4.0)])
            # An operator can lift the quarantine.
            assert server.lift_quarantine() == 1
            server.insert(batch)
            assert server.point(("S3", "P1", "s")) == 5.0

    def test_maintain_success_resets_quarantine_count(
            self, warehouse, faults):
        with QCServer(warehouse, workers=1, faults=faults,
                      quarantine_after=2) as server:
            batch = [self.RECORD]
            faults.arm("write:maintain", times=1, exc=InjectedCrash)
            with pytest.raises(InjectedCrash):
                server.insert(batch)
            server.insert(batch)  # success clears the strike count
            server.delete(batch)
            faults.arm("write:maintain", times=1, exc=InjectedCrash)
            with pytest.raises(InjectedCrash):
                server.insert(batch)
            # One strike again, not two: no quarantine.
            assert server.stats()["counters"]["writes_quarantined"] == 0
            server.insert(batch)


class TestChaosMonkey:
    def test_seeded_chaos_run_keeps_serving_and_converges(self, warehouse):
        faults = ServingFaults()
        retry = RetryPolicy(max_attempts=6)
        record = ("S3", "P1", "s", 5.0)
        with QCServer(warehouse, workers=2, faults=faults,
                      supervise_interval=0.01,
                      quarantine_after=100) as server:
            with ChaosMonkey(faults, seed=1234, interval_s=0.002) as monkey:
                outcomes = {"ok": 0, "failed": 0}
                for i in range(200):
                    try:
                        retry.call(server.point, ("S2", "*", "f"))
                        outcomes["ok"] += 1
                    except Exception:
                        outcomes["failed"] += 1
                    if i % 50 == 25:
                        try:
                            server.insert([record])
                            server.delete([record])
                        except (ServingError, InjectedCrash):
                            server.recover()
            assert monkey.events, "the monkey never injected anything"
            # Faults are disarmed; the server converges back to health.
            assert server.recover() is True
            server.insert([record])
            assert server.point(("S3", "P1", "s")) == 5.0
            assert outcomes["ok"] > 0
            assert_ledger(server)
            assert wait_until(
                lambda: server.worker_health()["alive"] == 2
            )
            assert server.health()["status"] == "ok"


# -- write faults, enumerated --------------------------------------------------

WRITE_SITES = ("maintain", "refreeze", "publish")
#: The ``(site, times)`` cases the writer surfaces: maintenance always
#: (nothing applied), refreeze and publish once their fallback fails too
#: (degraded).
WRITE_RAISES = {("maintain", 1), ("maintain", None), ("refreeze", None),
                ("publish", None)}


def test_chaos_writes_converge_to_fresh_rebuild():
    """Every write site ``_mutate`` fires, fired once or left armed
    until it is disarmed and ``recover()`` runs.  While a write has not
    published, reads answer the last-good snapshot; after recovery (and
    a retry of a batch whose maintenance never ran) every op answers
    what the model does over the final rows."""
    table, [(inserts, deletes)], after = model.make_program(5, 1, n_rows=8)
    base = list(table.iter_records())
    before = model.expectations(base)
    expected = model.expectations(after)
    for site in WRITE_SITES:
        for times in (1, None):
            where = f"write:{site} x{times or 'armed'}: "
            faults = ServingFaults()
            warehouse = QCWarehouse(model.table_of(base), model.AGGREGATE)
            with QCServer(warehouse, workers=2, faults=faults,
                          quarantine_after=100) as server:
                faults.arm(f"write:{site}", times=times, exc=InjectedCrash)
                try:
                    server.write(inserts=inserts, deletes=deletes)
                    raised = False
                except (InjectedCrash, ServingError):
                    raised = True
                    model.assert_answers(server.query, before, where=where)
                assert raised == ((site, times) in WRITE_RAISES), where
                faults.disarm(f"write:{site}")
                assert server.recover() is True, where
                if site == "maintain":
                    server.write(inserts=inserts, deletes=deletes)
                model.assert_answers(server.query, expected, where=where)
                assert_ledger(server)
