"""N-reader / 1-writer stress: linearizable snapshot reads under churn.

The server's contract is that every read is answered entirely from one
published snapshot.  With a ``count`` aggregate and an insert-only
writer, the root count takes a known value after each published batch,
so two properties pin linearizability:

* every observed root count is a member of the published-value set
  (no torn reads: a half-applied batch would produce an in-between
  count), and
* each client's observations are monotonically non-decreasing (reads
  never travel backwards in time, since closed-loop clients issue
  requests sequentially and inserts only grow the count).

Afterwards the metrics ledger must balance and closing the server must
leave no threads behind.

Setting ``REPRO_STRESS_FAULTS=1`` (CI's chaos guard) reruns the same
workload under seeded fault injection — worker kills and injected slow
ops — with retrying readers.  The linearizability properties must hold
unchanged: killed workers never produce torn or stale-out-of-order
answers, only retried ones.
"""

from __future__ import annotations

import os
import threading
import time

from repro.core.warehouse import QCWarehouse
from repro.reliability.faults import ServingFaults
from repro.serving import QCServer
from tests.conftest import make_random_table
from tests.faults import ChaosMonkey
from tests.retry import RetryPolicy

N_CLIENTS = 4
N_BATCHES = 12
BATCH_SIZE = 3
READS_PER_CLIENT = 150
ROOT = ("*", "*", "*")

#: CI chaos guard: rerun the stress suite under fault injection.
FAULTS = os.environ.get("REPRO_STRESS_FAULTS") == "1"


def make_server(warehouse, **kwargs):
    """The stress server, plus a started ChaosMonkey in faults mode."""
    if not FAULTS:
        return QCServer(warehouse, **kwargs), None
    faults = ServingFaults()
    server = QCServer(warehouse, faults=faults,
                      supervise_interval=0.01, **kwargs)
    # Read-side chaos only: worker kills and slow ops.  Write-pipeline
    # crashes live in test_serving_faults; here the writer must publish
    # every batch so the published-value set stays exact.
    monkey = ChaosMonkey(faults, seed=99, interval_s=0.01,
                         weights={"kill": 1, "op_slow": 1},
                         slow_s=0.002).start()
    return server, monkey


def make_reader():
    """A read issuer: plain in the clean run, retrying under faults."""
    if not FAULTS:
        return lambda server, cell: server.point(cell)
    policy = RetryPolicy(max_attempts=8)
    return lambda server, cell: policy.call(server.point, cell)


def test_readers_see_only_published_snapshots():
    table = make_random_table(404, n_dims=3, cardinality=4, n_rows=30)
    warehouse = QCWarehouse(table, aggregate="count")
    base = warehouse.point(ROOT)
    valid_counts = {base + i * BATCH_SIZE for i in range(N_BATCHES + 1)}

    # Fresh labels per batch so every insert adds exactly BATCH_SIZE rows.
    batches = [
        [(100 + b, 100 + b, 100 + b) + (1.0,)
         for _ in range(BATCH_SIZE)]
        for b in range(N_BATCHES)
    ]

    server, monkey = make_server(warehouse, workers=N_CLIENTS,
                                 queue_size=256, name="stress")
    read = make_reader()
    observations = [[] for _ in range(N_CLIENTS)]
    start = threading.Barrier(N_CLIENTS + 2)

    def reader(ix):
        start.wait()
        for _ in range(READS_PER_CLIENT):
            observations[ix].append(read(server, ROOT))

    def writer():
        start.wait()
        for batch in batches:
            server.insert(batch)

    threads = [threading.Thread(target=reader, args=(ix,),
                                name=f"stress-reader-{ix}")
               for ix in range(N_CLIENTS)]
    threads.append(threading.Thread(target=writer, name="stress-writer"))
    for thread in threads:
        thread.start()
    start.wait()
    for thread in threads:
        thread.join()
    if monkey is not None:
        monkey.stop()

    # 1. Linearizable snapshot reads: only published counts, in order —
    #    with or without injected worker kills.
    for series in observations:
        assert len(series) == READS_PER_CLIENT
        assert set(series) <= valid_counts, (
            f"torn read: {set(series) - valid_counts}"
        )
        assert series == sorted(series), "a client observed time going back"
    # Every batch was published and the final state is visible.
    assert server.point(ROOT) == base + N_BATCHES * BATCH_SIZE
    stats = server.stats()
    assert stats["counters"]["snapshot_swaps"] == N_BATCHES
    assert stats["snapshot"]["epoch"] == N_BATCHES

    # 2. The metrics ledger balances.
    counters = stats["counters"]
    assert counters["shed"] == 0 and counters["timeouts"] == 0
    assert counters["submitted"] == (
        counters["completed"] + counters["timeouts"]
        + counters["errors"] + counters["cancelled"]
    )
    if FAULTS:
        # Every error is an injected worker death, each one counted and
        # covered by a retry (the observation series are full length).
        assert counters["errors"] == counters["worker_crashes"]
        # The supervisor replaces every killed worker (it may still be
        # mid-scan when the workload drains, so give it a moment).
        deadline = time.monotonic() + 5.0
        while (server.worker_health()["alive"] < N_CLIENTS
               and time.monotonic() < deadline):
            time.sleep(0.01)
        assert server.worker_health()["alive"] == N_CLIENTS
        restarts = server.stats()["counters"]["worker_restarts"]
        assert restarts == counters["worker_crashes"]
    else:
        # Nothing was shed or timed out (queue_size covers the offered
        # load), so every submitted request completed.
        assert counters["submitted"] == N_CLIENTS * READS_PER_CLIENT + 1
        assert counters["errors"] == 0
        assert stats["ops"]["point"]["count"] == counters["completed"]

    # 3. Clean shutdown leaves no server threads behind.
    server.close()
    assert not any(t.name.startswith("stress-worker")
                   for t in threading.enumerate())


def test_mixed_insert_delete_membership():
    """With deletes in the mix counts are not monotonic, but every
    answer must still be one of the published values."""
    table = make_random_table(77, n_dims=2, cardinality=3, n_rows=20)
    warehouse = QCWarehouse(table, aggregate="count")
    base = warehouse.point(("*", "*"))

    extra = [(100, 100, 1.0), (101, 101, 1.0)]
    plan = [("insert", [extra[0]]), ("insert", [extra[1]]),
            ("delete", [extra[0]]), ("delete", [extra[1]])] * 3
    # Published count after each step of the plan:
    valid = {base, base + 1, base + 2}

    server, monkey = make_server(warehouse, workers=3, queue_size=256)
    read = make_reader()
    try:
        seen = []
        done = threading.Event()

        def reader():
            while not done.is_set():
                seen.append(read(server, ("*", "*")))

        threads = [threading.Thread(target=reader) for _ in range(2)]
        for thread in threads:
            thread.start()
        for kind, records in plan:
            getattr(server, kind)(records)
        done.set()
        for thread in threads:
            thread.join()

        assert seen, "readers made no progress"
        assert set(seen) <= valid
        assert read(server, ("*", "*")) == base
    finally:
        if monkey is not None:
            monkey.stop()
        server.close()
