"""Health probes, circuit breaker, and client retry policy."""

from __future__ import annotations

import itertools

import pytest

from repro.core.warehouse import QCWarehouse
from repro.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    QueryError,
    ServerOverloadedError,
    ServingError,
    WorkerCrashedError,
)
from repro.reliability.faults import InjectedFault, ServingFaults
from repro.serving import CircuitBreaker, QCServer
from repro.serving.health import CLOSED, HALF_OPEN, OPEN
from tests.faults import InjectedCrash
from tests.retry import RetryPolicy


class FakeClock:
    def __init__(self, start: float = 100.0):
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def warehouse(sales_table):
    return QCWarehouse(sales_table, aggregate="avg(Sale)")


class TestCircuitBreaker:
    def make(self, clock, **kwargs):
        defaults = dict(error_threshold=0.5, min_requests=4,
                        window_s=10.0, cooldown_s=1.0, probes=1)
        defaults.update(kwargs)
        return CircuitBreaker(clock=clock, **defaults)

    def trip(self, breaker):
        for _ in range(2):
            breaker.on_success()
        for _ in range(3):
            breaker.on_failure()

    def test_stays_closed_below_threshold(self):
        clock = FakeClock()
        breaker = self.make(clock)
        for _ in range(20):
            breaker.on_success()
        breaker.on_failure()
        assert breaker.state == CLOSED
        assert breaker.allow()

    def test_min_requests_guards_early_errors(self):
        clock = FakeClock()
        breaker = self.make(clock, min_requests=10)
        # 100% errors, but not enough volume to believe the rate.
        for _ in range(9):
            breaker.on_failure()
        assert breaker.state == CLOSED

    def test_opens_at_threshold_and_sheds(self):
        clock = FakeClock()
        breaker = self.make(clock)
        self.trip(breaker)
        assert breaker.state == OPEN
        assert not breaker.allow()
        assert breaker.snapshot()["times_opened"] == 1

    def test_half_opens_after_cooldown_with_bounded_probes(self):
        clock = FakeClock()
        breaker = self.make(clock, probes=2)
        self.trip(breaker)
        clock.advance(1.5)
        assert breaker.allow()  # probe 1
        assert breaker.allow()  # probe 2
        assert not breaker.allow()  # probe budget spent
        assert breaker.state == HALF_OPEN

    def test_probe_success_closes(self):
        clock = FakeClock()
        breaker = self.make(clock)
        self.trip(breaker)
        clock.advance(1.5)
        assert breaker.allow()
        breaker.on_success()
        assert breaker.state == CLOSED
        # The window restarted: old failures cannot re-trip it.
        breaker.on_failure()
        assert breaker.state == CLOSED

    def test_probe_failure_reopens(self):
        clock = FakeClock()
        breaker = self.make(clock)
        self.trip(breaker)
        clock.advance(1.5)
        assert breaker.allow()
        breaker.on_failure()
        assert breaker.state == OPEN
        assert breaker.snapshot()["times_opened"] == 2
        assert not breaker.allow()

    def test_discard_releases_probe_slot(self):
        """A probe that produced no outcome (cancelled/shed) must not
        wedge the breaker half-open forever."""
        clock = FakeClock()
        breaker = self.make(clock, probes=1)
        self.trip(breaker)
        clock.advance(1.5)
        assert breaker.allow()
        breaker.on_discard()
        assert breaker.allow()  # slot released, next probe admitted

    def test_window_success_counts_but_is_no_probe_verdict(self):
        """``on_window_success`` (a cache hit no worker ran, a request
        its op refused) dilutes the CLOSED window like any success and
        leaves a half-open breaker — and its probe slot — alone."""
        clock = FakeClock()
        breaker = self.make(clock)
        for _ in range(4):
            breaker.on_window_success()
        for _ in range(3):
            breaker.on_failure()
        assert breaker.state == CLOSED  # 3 of 7: under the threshold
        breaker.on_failure()
        assert breaker.state == OPEN
        clock.advance(1.5)
        assert breaker.allow()  # the probe
        breaker.on_window_success()
        assert breaker.state == HALF_OPEN
        assert not breaker.allow()  # the slot is still the probe's

    def test_window_ages_out_old_errors(self):
        clock = FakeClock()
        breaker = self.make(clock)
        for _ in range(3):
            breaker.on_failure()
        clock.advance(11.0)  # tumble the window
        breaker.on_success()
        breaker.on_failure()
        assert breaker.state == CLOSED

    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            CircuitBreaker(error_threshold=0.0)


class TestRetryPolicy:
    def test_retries_transient_then_succeeds(self):
        calls = itertools.count()
        sleeps = []

        def flaky():
            if next(calls) < 2:
                raise WorkerCrashedError("boom")
            return 42

        policy = RetryPolicy(max_attempts=4, sleep=sleeps.append)
        assert policy.call(flaky) == 42
        assert len(sleeps) == 2
        assert policy.stats() == {"calls": 1, "retries": 2, "exhausted": 0}

    def test_gives_up_after_max_attempts(self):
        policy = RetryPolicy(max_attempts=3, sleep=lambda s: None)
        attempts = []
        with pytest.raises(ServerOverloadedError):
            policy.call(lambda: attempts.append(1) or (_ for _ in ()).throw(
                ServerOverloadedError("full")))
        assert len(attempts) == 3
        assert policy.stats()["exhausted"] == 1

    def test_non_retryable_raises_immediately(self):
        policy = RetryPolicy(max_attempts=5, sleep=lambda s: None)
        attempts = []

        def fatal():
            attempts.append(1)
            raise QueryError("bad request")

        with pytest.raises(QueryError):
            policy.call(fatal)
        assert len(attempts) == 1

    def test_injected_crash_is_never_retried(self):
        policy = RetryPolicy(max_attempts=5, sleep=lambda s: None)
        with pytest.raises(InjectedCrash):
            policy.call(lambda: (_ for _ in ()).throw(InjectedCrash("die")))

    def test_deadline_bounds_total_call(self):
        clock = FakeClock()
        policy = RetryPolicy(
            max_attempts=100, base_delay_s=1.0, max_delay_s=1.0,
            deadline_s=2.5, sleep=lambda s: clock.advance(max(s, 1.0)),
            clock=clock,
        )
        attempts = []

        def always_shed():
            attempts.append(1)
            raise DeadlineExceededError("expired")

        with pytest.raises(DeadlineExceededError):
            policy.call(always_shed)
        assert len(attempts) < 100

    def test_backoff_is_capped_and_jittered(self):
        import random

        policy = RetryPolicy(base_delay_s=0.01, max_delay_s=0.05,
                             multiplier=2.0, rng=random.Random(7))
        for attempt in range(1, 12):
            pause = policy.backoff_s(attempt)
            assert 0.0 <= pause <= 0.05

    def test_query_refuses_writes(self, warehouse):
        policy = RetryPolicy()
        with QCServer(warehouse, workers=1) as server:
            with pytest.raises(ServingError, match="idempotent reads"):
                policy.query(server, "insert", [("S3", "P1", "s", 5.0)])
            assert policy.query(server, "point", ("S2", "*", "f")) == 9.0

    def test_retry_covers_worker_kill(self, warehouse):
        faults = ServingFaults()
        with QCServer(warehouse, workers=2, faults=faults) as server:
            policy = RetryPolicy(max_attempts=4)
            faults.kill_next_worker()
            assert policy.query(server, "point", ("S2", "*", "f")) == 9.0
            assert policy.stats()["retries"] >= 1


class TestHealthReport:
    def test_healthy_server_reports_ok(self, warehouse):
        with QCServer(warehouse, workers=2) as server:
            report = server.health()
            assert report["status"] == "ok"
            assert report["live"] and report["ready"]
            assert report["staleness"]["lsn_lag"] == 0
            assert report["staleness"]["epoch_lag"] == 0
            assert report["workers"]["alive"] == 2
            assert report["degraded"] == {"writes": False, "reason": None}
            assert report["breaker"]["state"] == CLOSED

    def test_health_served_as_an_op(self, warehouse):
        """Answering through the pool proves a live worker end to end."""
        with QCServer(warehouse, workers=2) as server:
            report = server.query("health")
            assert report["status"] == "ok"

    def test_closed_server_reports_down(self, warehouse):
        server = QCServer(warehouse, workers=1)
        server.close()
        report = server.health()
        assert report["status"] == "down"
        assert not report["live"] and not report["ready"]

    def test_degraded_server_not_ready_and_staleness_lags(self, warehouse):
        faults = ServingFaults()
        with QCServer(warehouse, workers=2, faults=faults) as server:
            faults.arm("write:publish", times=2, exc=InjectedCrash)
            with pytest.raises(ServingError):
                server.insert([("S3", "P1", "s", 5.0)])
            report = server.health()
            assert report["status"] == "degraded"
            assert report["live"] and not report["ready"]
            assert report["degraded"]["writes"] is True
            assert report["degraded"]["reason"]["phase"] == "publish"
            # The write applied to the dict tree but never published
            # (no WAL attached here, so the lag shows in the epoch).
            assert report["staleness"]["epoch_lag"] > 0
            assert server.recover()
            after = server.health()
            assert after["status"] == "ok"
            assert after["staleness"]["epoch_lag"] == 0

    def test_breaker_disabled_with_false(self, warehouse):
        with QCServer(warehouse, workers=1, breaker=False) as server:
            assert server.breaker is None
            assert server.health()["breaker"] is None


def failing_rollup() -> ServingFaults:
    """A plan under which every ``rollup`` fails *in the server* — what
    trips a breaker.  (A ``rollup`` the op refuses, wrong cell or wrong
    arity, is the client's error and no longer feeds it.)"""
    faults = ServingFaults()
    faults.arm("op:rollup", times=None)
    return faults


class TestBreakerIntegration:
    def test_error_burst_trips_breaker_and_sheds(self, warehouse):
        breaker = CircuitBreaker(error_threshold=0.5, min_requests=4,
                                 cooldown_s=30.0)
        with QCServer(warehouse, workers=1, breaker=breaker,
                      faults=failing_rollup()) as server:
            for _ in range(4):
                with pytest.raises(InjectedFault):
                    server.query("rollup", ("S2", "P1", "f"))
            assert breaker.state == OPEN
            with pytest.raises(CircuitOpenError):
                server.submit("point", ("S2", "*", "f"))
            counters = server.stats()["counters"]
            assert counters["breaker_rejected"] == 1
            # Breaker rejections never enter the admission ledger.
            assert counters["submitted"] == 4
            assert server.health()["status"] == "degraded"

    def test_health_answers_while_breaker_is_open(self, warehouse):
        """``health`` is the op that *reports* the breaker: an open
        breaker must not shed it, and its success past the cooldown must
        not count as the half-open probe that closes the breaker."""
        clock = FakeClock()
        breaker = CircuitBreaker(clock=clock)  # the default thresholds
        with QCServer(warehouse, workers=1, breaker=breaker,
                      faults=failing_rollup()) as server:
            for _ in range(breaker.min_requests):
                with pytest.raises(InjectedFault):
                    server.query("rollup", ("S2", "P1", "f"))
            assert breaker.state == OPEN
            report = server.query("health")
            assert report["breaker"]["state"] == OPEN
            assert not report["ready"]
            with pytest.raises(CircuitOpenError):
                server.submit("point", ("S2", "*", "f"))
            clock.advance(2 * breaker.cooldown_s)
            assert server.query("health")["breaker"]["state"] == OPEN
            assert server.point(("S2", "*", "f")) == 9.0  # the real probe
            assert breaker.state == CLOSED

    def test_breaker_recovers_through_half_open_probe(self, warehouse):
        breaker = CircuitBreaker(error_threshold=0.5, min_requests=4,
                                 cooldown_s=0.05)
        with QCServer(warehouse, workers=1, breaker=breaker,
                      faults=failing_rollup()) as server:
            for _ in range(4):
                with pytest.raises(InjectedFault):
                    server.query("rollup", ("S2", "P1", "f"))
            assert breaker.state == OPEN
            import time
            time.sleep(0.1)  # past the cooldown: next request is a probe
            assert server.point(("S2", "*", "f")) == 9.0
            assert breaker.state == CLOSED
            assert server.point(("S2", "*", "f")) == 9.0

    def test_a_clients_typos_do_not_open_the_breaker(self, warehouse):
        """25 wrong-arity ``point`` lines on one connection (each a
        ``QueryError`` raised by the op) are that client's errors: the
        ledger counts them, the breaker does not, and a second
        connection's well-formed request is answered."""
        from repro.serving import AsyncServerThread, LineClient

        server = QCServer(warehouse, workers=1, cache_size=0)
        handle = AsyncServerThread(server, port=0)
        try:
            assert server.breaker.min_requests <= 25
            with LineClient(handle.host, handle.port) as careless:
                for _ in range(25):
                    assert careless.call("point a,b").startswith(
                        "error: QueryError")
            with LineClient(handle.host, handle.port) as careful:
                assert careful.call("point S2,*,f") == "9.0"
            assert server.breaker.state == CLOSED
            assert server.breaker.snapshot()["window_failures"] == 0
            counters = server.stats()["counters"]
            assert counters["errors"] == 25
            assert counters["breaker_rejected"] == 0
            assert server.health()["ready"]
        finally:
            handle.close()
            server.close()

    def test_a_refused_request_is_no_verdict_for_the_probe(self, warehouse):
        """Half-open, the probe turns out to be a client's typo: the
        breaker neither closes nor reopens on it, and the slot is free
        for the next request — which is the real probe."""
        clock = FakeClock()
        breaker = CircuitBreaker(min_requests=4, clock=clock)
        with QCServer(warehouse, workers=1, breaker=breaker) as server:
            for _ in range(4):
                breaker.on_failure()
            clock.advance(2 * breaker.cooldown_s)
            with pytest.raises(QueryError):
                server.query("point", ("a", "b"))
            assert breaker.state == HALF_OPEN
            assert breaker.snapshot()["times_opened"] == 1
            assert server.point(("S2", "*", "f")) == 9.0
            assert breaker.state == CLOSED

    def test_circuit_open_is_retryable_overload(self):
        assert issubclass(CircuitOpenError, ServerOverloadedError)
