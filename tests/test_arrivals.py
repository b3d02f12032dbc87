"""Property tests for the open-loop arrival scheduler and its
coordinated-omission guard.

The :class:`~repro.serving.arrivals.ArrivalSchedule` is the part of the
benchmark harness whose correctness the BENCH numbers rest on: its send
instants must have the right statistics (mean inter-arrival ``1/rate``),
be reproducible per seed, and — the coordinated-omission guard — be
completely independent of how the server behaves.  The harness-level
tests then assert the consequence: with an injected server stall, the
generator keeps sending on schedule and the stall shows up *in the
recorded latencies*, which is exactly what a closed-loop driver hides.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.core.warehouse import QCWarehouse
from repro.errors import ServingError
from repro.reliability.faults import ServingFaults
from repro.serving import (
    ArrivalSchedule,
    AsyncServerThread,
    QCServer,
    latency_summary,
    run_open_loop_tcp,
)

from .conftest import make_random_table


# -- schedule statistics -----------------------------------------------------


def test_poisson_mean_interarrival_matches_rate():
    rate = 250.0
    schedule = ArrivalSchedule(rate, 4000, kind="poisson", seed=11)
    gaps = schedule.interarrivals()
    mean = sum(gaps) / len(gaps)
    # Mean of n exponentials concentrates as 1/rate ± a few std errors
    # (std error = 1/(rate * sqrt(n)) ≈ 0.063 ms here; allow 5).
    assert abs(mean - 1.0 / rate) < 5 / (rate * len(gaps) ** 0.5)
    assert all(g >= 0.0 for g in gaps)


def test_poisson_reproducible_per_seed_and_distinct_across_seeds():
    a = ArrivalSchedule(100.0, 200, kind="poisson", seed=3)
    b = ArrivalSchedule(100.0, 200, kind="poisson", seed=3)
    c = ArrivalSchedule(100.0, 200, kind="poisson", seed=4)
    assert a.offsets() == b.offsets()
    assert a.interarrivals() == b.interarrivals()
    assert a.offsets() != c.offsets()


def test_uniform_schedule_is_constant_gaps():
    schedule = ArrivalSchedule(1000.0, 5, kind="uniform", seed=99)
    assert schedule.interarrivals() == (0.001,) * 5
    offsets = schedule.offsets()
    assert offsets == pytest.approx((0.001, 0.002, 0.003, 0.004, 0.005))


def test_offsets_are_cumulative_and_increasing():
    schedule = ArrivalSchedule(500.0, 300, kind="poisson", seed=7)
    offsets = schedule.offsets()
    gaps = schedule.interarrivals()
    assert len(offsets) == len(gaps) == 300
    running = 0.0
    for offset, gap in zip(offsets, gaps):
        running += gap
        assert offset == pytest.approx(running)
    assert all(b >= a for a, b in zip(offsets, offsets[1:]))


def test_schedule_validation():
    with pytest.raises(ServingError):
        ArrivalSchedule(0.0, 10)
    with pytest.raises(ServingError):
        ArrivalSchedule(100.0, 0)
    with pytest.raises(ServingError):
        ArrivalSchedule(100.0, 10, kind="bursty")


def test_describe_reports_fixed_duration():
    schedule = ArrivalSchedule(200.0, 100, kind="uniform", seed=0)
    desc = schedule.describe()
    assert desc["kind"] == "uniform"
    assert desc["rate_hz"] == 200.0
    assert desc["n"] == 100
    assert desc["duration_s"] == pytest.approx(0.5)


# -- the coordinated-omission guard ------------------------------------------


def test_schedule_is_independent_of_elapsed_time():
    """The schedule is a pure function of its parameters: computing it
    before, during, and after arbitrary delays (a stand-in for service
    time) yields the identical send plan."""
    schedule = ArrivalSchedule(300.0, 50, kind="poisson", seed=21)
    before = schedule.offsets()
    time.sleep(0.05)  # "service time" elapses
    assert schedule.offsets() == before
    # A second instance with the same parameters agrees — nothing about
    # wall time, completions, or prior calls leaks in.
    assert ArrivalSchedule(300.0, 50, kind="poisson", seed=21).offsets() \
        == before


@pytest.fixture
def stall_server():
    """A one-worker server whose point op stalls 20 ms per request,
    behind an async transport — the overloaded-server scenario the CO
    guard exists for."""
    table = make_random_table(5, n_dims=2, cardinality=3, n_rows=20)
    faults = ServingFaults()
    server = QCServer(QCWarehouse(table, aggregate="count"), workers=1,
                      cache_size=0, faults=faults)
    faults.arm("op:point", times=None, delay_s=0.02, exc=None)
    handle = AsyncServerThread(server, port=0)
    try:
        yield table, server, handle
    finally:
        handle.close()
        server.close()


def test_stalled_server_cannot_slow_arrivals(stall_server):
    """Offered 100/s against a server that can serve 50/s: every request
    must still be *sent* (none withheld waiting on completions), the
    generator's own send lag stays far below the stall, and queueing
    delay lands in the recorded latencies."""
    table, server, handle = stall_server
    n = 30
    plan = [("point", "point " + ",".join(["*"] * table.n_dims))] * n
    schedule = ArrivalSchedule(100.0, n, kind="uniform", seed=1)
    report = run_open_loop_tcp(handle.host, handle.port, plan, schedule,
                               connections=2)
    assert report["ok"] + report["shed"] + report["timeouts"] \
        + report["errors"] == n
    # The generator kept pace: a *coordinated* sender would lag by the
    # growing queueing backlog (~150 ms at the median here), so the
    # median send lag staying under one stall interval proves the send
    # plan ignored the server (the max tolerates a rare scheduler
    # hiccup on a loaded 1-core runner).
    assert report["send_lag"]["p50_us"] < 10_000
    assert report["send_lag"]["max_us"] < 150_000
    # The stall (20 ms/request at half the needed service rate) piled
    # queueing delay into the tail: p99 far above a single service time.
    assert report["latency"]["p99_us"] > 40_000


# -- report-field contract ---------------------------------------------------


def test_latency_summary_has_p999():
    summary = latency_summary([i / 1000.0 for i in range(1, 1001)])
    assert summary["count"] == 1000
    assert summary["p50_us"] <= summary["p99_us"] <= summary["p999_us"] \
        <= summary["max_us"]
    assert latency_summary([])["p999_us"] == 0.0


def test_no_threads_leak_from_harness(stall_server):
    """The harness and transport leave no threads behind (checked here
    while they are live so the fixture teardown proves the negative)."""
    table, server, handle = stall_server
    before = {t.name for t in threading.enumerate()}
    plan = [("point", "point " + ",".join(["*"] * table.n_dims))] * 5
    run_open_loop_tcp(handle.host, handle.port, plan,
                      ArrivalSchedule(500.0, 5, kind="uniform", seed=2))
    after = {t.name for t in threading.enumerate()}
    assert after == before
