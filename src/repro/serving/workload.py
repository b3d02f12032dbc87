"""Closed- and open-loop workload drivers for :class:`QCServer`.

Two standard load models from queueing practice:

* **Closed loop** (:func:`run_closed_loop`) — ``clients`` threads each
  issue one request, wait for its answer, and immediately issue the
  next.  Offered load adapts to the server, so this measures sustained
  *throughput* and client-observed latency under full utilization.
* **Open loop** (:func:`run_open_loop`) — requests are submitted on a
  fixed arrival schedule regardless of completions, the model of
  independent users.  The server cannot slow arrivals down, so this is
  what exercises admission control: when the arrival rate beats the
  service rate, the bounded queue fills and requests are shed or time
  out instead of queueing unboundedly.

Latencies here are *client-observed* (submission to answer, queueing
included) — complementary to the server's per-op histograms, which
measure service time only.

:func:`register_stalled_point` installs a point-query variant that
sleeps for a configurable interval before answering, modeling the
per-request downstream/client I/O of a real serving stack (the blocking
interval releases the GIL).  The concurrent-serving benchmark uses it
to separate worker-pool concurrency (I/O-bound requests scale with the
pool) from pure-CPU throughput (bounded by one core under CPython's
GIL), and reports both honestly.
"""

from __future__ import annotations

import threading
import time
from typing import Optional

from repro.core.cells import ALL
from repro.data.workloads import point_query_workload, range_query_workload
from repro.errors import (
    DeadlineExceededError,
    ServerOverloadedError,
    ServingError,
)


def percentile_us(latencies_s, p: float) -> float:
    """The ``p``-th percentile of a latency sample, in microseconds."""
    if not latencies_s:
        return 0.0
    ordered = sorted(latencies_s)
    rank = max(0, min(len(ordered) - 1, round(p / 100.0 * len(ordered)) - 1))
    return round(ordered[rank] * 1e6, 3)


def latency_summary(latencies_s) -> dict:
    """Count / mean / p50 / p90 / p99 / p999 / max readout in µs."""
    return {
        "count": len(latencies_s),
        "mean_us": round(
            sum(latencies_s) / len(latencies_s) * 1e6, 3
        ) if latencies_s else 0.0,
        "p50_us": percentile_us(latencies_s, 50),
        "p90_us": percentile_us(latencies_s, 90),
        "p99_us": percentile_us(latencies_s, 99),
        "p999_us": percentile_us(latencies_s, 99.9),
        "max_us": round(max(latencies_s) * 1e6, 3) if latencies_s else 0.0,
    }


# -- request builders --------------------------------------------------------


def point_requests(table, n: int, seed: int = 0) -> list:
    """``("point", (raw_cell,))`` requests from the §5.3 point workload."""
    return [
        ("point", (table.decode_cell(cell),))
        for cell in point_query_workload(table, n, seed=seed)
    ]


def range_requests(table, n: int, seed: int = 0) -> list:
    """``("range", (raw_spec,))`` requests from the §5.3 range workload."""
    out = []
    for spec in range_query_workload(table, n, seed=seed):
        raw = []
        for dim, entry in enumerate(spec):
            if entry is ALL:
                raw.append("*")
            elif isinstance(entry, (list, tuple)):
                raw.append([table.decode_value(dim, c) for c in entry])
            else:
                raw.append(table.decode_value(dim, entry))
        out.append(("range", (tuple(raw),)))
    return out


def register_stalled_point(server, stall_s: float,
                           name: str = "point_stall") -> str:
    """Install a point op that sleeps ``stall_s`` before answering.

    Models the per-request blocking I/O (client socket writes,
    downstream calls) of a real serving path; the sleep releases the
    GIL, so a pool of N workers overlaps N stalls.  Returns the op name.
    """

    def op(snapshot, raw_cell):
        time.sleep(stall_s)
        return snapshot.point(raw_cell)

    server.register_op(name, op)
    return name


# -- drivers -----------------------------------------------------------------


def run_closed_loop(server, requests, clients: int = 4,
                    timeout: Optional[float] = None, retry=None) -> dict:
    """Drive ``requests`` through ``server`` from ``clients`` closed-loop
    threads; returns throughput and client-observed latency.

    ``retry`` takes a :class:`~repro.serving.retry.RetryPolicy`; each
    client then re-issues transiently failed reads (shed, expired,
    worker-crashed) with backoff before giving up, and the result gains
    a ``retries`` block.  Latency is still measured over the whole call,
    retries included — that is what the caller experienced.
    """
    if clients < 1:
        raise ServingError(f"need at least one client, got {clients}")
    shards = [requests[i::clients] for i in range(clients)]
    barrier = threading.Barrier(clients + 1)
    outcomes = [None] * clients

    def issue(op, args):
        if retry is None:
            return server.submit(op, *args, timeout=timeout).result()
        return retry.call(
            lambda: server.submit(op, *args, timeout=timeout).result()
        )

    def client(ix):
        latencies = []
        ok = shed = timeouts = errors = 0
        barrier.wait()
        for op, args in shards[ix]:
            start = time.perf_counter()
            try:
                issue(op, args)
                ok += 1
            except ServerOverloadedError:
                shed += 1
            except DeadlineExceededError:
                timeouts += 1
            except Exception:
                errors += 1
            latencies.append(time.perf_counter() - start)
        outcomes[ix] = (latencies, ok, shed, timeouts, errors)

    threads = [
        threading.Thread(target=client, args=(ix,),
                         name=f"closed-loop-client-{ix}")
        for ix in range(clients)
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    wall_start = time.perf_counter()
    for thread in threads:
        thread.join()
    wall_s = time.perf_counter() - wall_start

    latencies = [lat for out in outcomes for lat in out[0]]
    ok = sum(out[1] for out in outcomes)
    result = {
        "model": "closed",
        "clients": clients,
        "requests": len(requests),
        "ok": ok,
        "shed": sum(out[2] for out in outcomes),
        "timeouts": sum(out[3] for out in outcomes),
        "errors": sum(out[4] for out in outcomes),
        "wall_s": round(wall_s, 6),
        "throughput_rps": round(ok / wall_s, 3) if wall_s > 0 else 0.0,
        # Closed-loop latency is *think-time adjusted*: each client waits
        # for the previous answer before attempting the next request, so
        # a stall is billed once, not once per request that would have
        # arrived — coordinated omission.  Hence ``attempt_latency``.
        "attempt_latency": latency_summary(latencies),
    }
    if retry is not None:
        result["retries"] = retry.stats()
    return result


def run_open_loop(server, requests, rate_hz: float,
                  timeout: Optional[float] = None) -> dict:
    """Submit ``requests`` on a fixed ``rate_hz`` schedule (no waiting
    between submissions); returns completion latency plus the shed and
    timeout counts admission control produced under that arrival rate."""
    if rate_hz <= 0:
        raise ServingError(f"arrival rate must be positive, got {rate_hz}")
    interval = 1.0 / rate_hz
    lock = threading.Lock()
    latencies = []
    shed = 0
    pending = []
    start = time.perf_counter()
    for i, (op, args) in enumerate(requests):
        due = start + i * interval
        now = time.perf_counter()
        if due > now:
            time.sleep(due - now)
        try:
            future = server.submit(op, *args, timeout=timeout)
        except ServerOverloadedError:
            shed += 1
            continue

        # Latency is measured from the *scheduled* arrival instant
        # (``due``), not from when submit() actually ran: if the
        # generator fell behind because a previous submission blocked,
        # the delay belongs in the recorded latency (coordinated
        # omission guard), not silently dropped from it.
        def record(fut, t0=due):
            if fut.exception() is None:
                done = time.perf_counter() - t0
                with lock:
                    latencies.append(done)

        future.add_done_callback(record)
        pending.append(future)

    ok = timeouts = errors = 0
    for future in pending:
        try:
            future.result()
            ok += 1
        except DeadlineExceededError:
            timeouts += 1
        except Exception:
            errors += 1
    wall_s = time.perf_counter() - start
    return {
        "model": "open",
        "offered_rate_rps": round(rate_hz, 3),
        "requests": len(requests),
        "ok": ok,
        "shed": shed,
        "timeouts": timeouts,
        "errors": errors,
        "wall_s": round(wall_s, 6),
        "throughput_rps": round(ok / wall_s, 3) if wall_s > 0 else 0.0,
        # Open-loop latency runs from the scheduled arrival to the
        # answer — response time in the queueing-theory sense.
        "response_latency": latency_summary(latencies),
    }


def run_mixed(server, requests, clients: int, write_batches,
              write_interval_s: float = 0.0,
              timeout: Optional[float] = None, retry=None,
              tolerate_write_errors: bool = False) -> dict:
    """Closed-loop reads with a concurrent single-writer mutation stream.

    ``write_batches`` is a list of ``("insert" | "delete", records)``
    pairs applied in order (each one refreezes and swaps the snapshot).
    Returns the read result plus writer latency and swap count —
    the numbers that show readers not blocking on writers.

    ``retry`` is forwarded to :func:`run_closed_loop`.  With
    ``tolerate_write_errors`` (chaos runs) the writer records failed
    batches — including injected crashes — instead of dying, attempts
    :meth:`~repro.serving.server.QCServer.recover` after each failure,
    and reports ``writes.failed``.
    """
    write_latencies = []
    write_failures = []

    def writer():
        for kind, records in write_batches:
            start = time.perf_counter()
            try:
                if kind == "insert":
                    server.insert(records)
                elif kind == "delete":
                    server.delete(records)
                else:
                    raise ServingError(f"unknown write kind {kind!r}")
            except BaseException as exc:
                if not tolerate_write_errors:
                    raise
                write_failures.append(type(exc).__name__)
                server.recover()
            else:
                write_latencies.append(time.perf_counter() - start)
            if write_interval_s:
                time.sleep(write_interval_s)

    writer_thread = threading.Thread(target=writer, name="mixed-writer")
    writer_thread.start()
    read_result = run_closed_loop(server, requests, clients=clients,
                                  timeout=timeout, retry=retry)
    writer_thread.join()
    read_result["model"] = "mixed"
    read_result["writes"] = {
        "batches": len(write_batches),
        "failed": len(write_failures),
        "latency": latency_summary(write_latencies),
    }
    # Per-phase write breakdown (maintain / refreeze / publish / warm)
    # from the server's own histograms, so BENCH files track where the
    # write path spends its time over time.
    try:
        phases = server.stats().get("write_phases", {})
    except AttributeError:
        phases = {}
    if phases:
        read_result["writes"]["phases"] = {
            f"{phase}_us": snap
            for phase, snap in sorted(phases.items())
        }
    return read_result
