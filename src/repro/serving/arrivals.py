"""Open-loop arrival schedules and the coordinated-omission-free harness.

**Why closed-loop numbers lie.**  A closed-loop client waits for each
answer before sending the next request, so when the server stalls, the
client politely stops offering load — the stall is recorded *once*
instead of once per request that *would* have arrived.  This is
coordinated omission (Tene's ``HdrHistogram`` argument): the classic
way benchmark p99s understate production p99s by orders of magnitude.
Production traffic is open-loop — independent users do not coordinate
with the server's GC pause.

**The guard here is structural.**  An :class:`ArrivalSchedule` computes
every send instant *up front* from a seed and a rate — a pure function
of ``(kind, rate_hz, n, seed)``, fixed before the run starts, never
consulted against completions.  The harness (:func:`open_loop_run`)
then sends request ``i`` at ``start + offsets[i]`` no matter how the
server is doing, and measures each latency **from the scheduled send
instant** to the answer.  A stalled server therefore accumulates
queueing delay in the recorded latencies — exactly what a production
SLO would see — instead of silently slowing the arrival process.  The
harness also reports its own ``send_lag`` (actual − scheduled send
time) so a run whose *load generator* fell behind is visibly invalid
rather than quietly optimistic.

Schedules:

* ``poisson`` — exponential inter-arrivals (a memoryless arrival
  process, the standard open-workload model);
* ``uniform`` — constant inter-arrivals (deterministic pacing, useful
  for isolating queueing effects from arrival burstiness).

The harness speaks the serving line protocol over TCP
(:mod:`~repro.serving.protocol`) against the asyncio front door
(:mod:`~repro.serving.async_server`), pipelining across a small pool of
connections so the measured system — not the harness — is the
bottleneck.
"""

from __future__ import annotations

import asyncio
import random

from repro.errors import ServingError
from repro.serving import protocol

#: Outcome classification by the error type carried on the wire.
_SHED_PREFIXES = (
    "error: ServerOverloadedError", "error: CircuitOpenError",
)
_TIMEOUT_PREFIX = "error: DeadlineExceededError"


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


class ArrivalSchedule:
    """A seeded open-loop arrival schedule, fixed before the run.

    ``offsets()`` are the absolute send instants relative to the run's
    start timestamp; they depend only on ``(kind, rate_hz, n, seed)``,
    which is the coordinated-omission guard: nothing about the server's
    service process can shift them.

    >>> ArrivalSchedule(1000.0, 3, kind="uniform").offsets()
    (0.001, 0.002, 0.003)
    """

    KINDS = ("poisson", "uniform")

    def __init__(self, rate_hz: float, n: int, kind: str = "poisson",
                 seed: int = 0):
        if rate_hz <= 0:
            raise ServingError(
                f"arrival rate must be positive, got {rate_hz}"
            )
        if n < 1:
            raise ServingError(f"need at least one arrival, got {n}")
        if kind not in self.KINDS:
            raise ServingError(
                f"unknown arrival kind {kind!r}; known: {self.KINDS}"
            )
        self.rate_hz = float(rate_hz)
        self.n = int(n)
        self.kind = kind
        self.seed = int(seed)

    def interarrivals(self) -> tuple:
        """The ``n`` inter-arrival gaps in seconds (deterministic per
        seed; mean ``1/rate_hz`` for both kinds)."""
        mean = 1.0 / self.rate_hz
        if self.kind == "uniform":
            return (mean,) * self.n
        rng = random.Random(self.seed)
        return tuple(rng.expovariate(self.rate_hz) for _ in range(self.n))

    def offsets(self) -> tuple:
        """Cumulative send instants (seconds from the run start)."""
        out = []
        t = 0.0
        for gap in self.interarrivals():
            t += gap
            out.append(t)
        return tuple(out)

    def describe(self) -> dict:
        offsets = self.offsets()
        return {
            "kind": self.kind,
            "rate_hz": self.rate_hz,
            "n": self.n,
            "seed": self.seed,
            "duration_s": round(offsets[-1], 6),
        }

    def __repr__(self):
        return (
            f"ArrivalSchedule({self.kind}, rate={self.rate_hz}/s, "
            f"n={self.n}, seed={self.seed})"
        )


class _ClientConn:
    """One harness connection: a stream pair plus the FIFO of requests
    awaiting responses (pipelined, answered in order)."""

    __slots__ = ("reader", "writer", "expected")

    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer
        self.expected: asyncio.Queue = asyncio.Queue()


def _classify(first_line: str) -> str:
    if not first_line.startswith("error:"):
        return "ok"
    if first_line.startswith(_SHED_PREFIXES):
        return "shed"
    if first_line.startswith(_TIMEOUT_PREFIX):
        return "timeout"
    return "error"


async def _read_responses(conn: _ClientConn, results: list,
                          clock) -> None:
    """Consume pipelined responses off one connection, recording each
    outcome and its latency *from the scheduled send instant*."""
    pending_lines: list = []
    while True:
        expectation = await conn.expected.get()
        if expectation is None:
            return
        index, family, command, scheduled_at = expectation
        pending_lines.clear()
        while not protocol.response_complete(command, pending_lines):
            raw = await conn.reader.readline()
            if not raw:
                results[index] = (family, "error", None)
                return
            pending_lines.append(raw.decode("utf-8").rstrip("\n"))
        latency = clock() - scheduled_at
        results[index] = (family, _classify(pending_lines[0]), latency)


async def open_loop_run(host: str, port: int, plan,
                        schedule: ArrivalSchedule,
                        connections: int = 4,
                        warmup: int = 0) -> dict:
    """Drive ``plan`` (a list of ``(family, request_line)`` pairs) at
    ``schedule``'s arrival instants against the asyncio front door.

    ``family`` tags each request for the per-op-family latency
    breakdown (``point`` / ``range`` / ``iceberg`` / ``write`` / …).
    ``warmup`` extra copies of the first request are sent and awaited
    before the measured window, so connection setup and cold caches are
    not billed to the first percentile bucket.

    Latency is measured from the *scheduled* send instant (not the
    actual write), which is what makes the harness immune to
    coordinated omission; ``send_lag`` reports how far the generator
    itself drifted (a healthy run keeps it far below the latencies it
    reports).
    """
    if len(plan) != schedule.n:
        raise ServingError(
            f"plan has {len(plan)} requests but the schedule expects "
            f"{schedule.n}"
        )
    if connections < 1:
        raise ServingError(
            f"need at least one connection, got {connections}"
        )
    loop = asyncio.get_running_loop()
    clock = loop.time
    conns = []
    for _ in range(connections):
        reader, writer = await asyncio.open_connection(host, port)
        conns.append(_ClientConn(reader, writer))
    results: list = [None] * len(plan)
    readers: list = []
    try:
        if warmup:
            # Connection setup and cold caches are exercised before the
            # measured window starts; warmup answers are discarded.
            # Runs with its own reader tasks (one full request/response
            # cycle per connection) before the measured readers exist.
            family, line = plan[0]
            command = protocol.command_of(line)
            warm_results: list = [None] * (warmup * len(conns))
            warm_readers = []
            for ci, conn in enumerate(conns):
                for _ in range(warmup):
                    conn.writer.write(line.encode("utf-8") + b"\n")
                await conn.writer.drain()
                for i in range(warmup):
                    conn.expected.put_nowait(
                        (ci * warmup + i, family, command, clock())
                    )
                conn.expected.put_nowait(None)
                warm_readers.append(asyncio.create_task(
                    _read_responses(conn, warm_results, clock)
                ))
            await asyncio.gather(*warm_readers)
        readers.extend(
            asyncio.create_task(_read_responses(conn, results, clock))
            for conn in conns
        )
        offsets = schedule.offsets()
        start = clock()
        send_lags = []
        for i, (family, line) in enumerate(plan):
            target = start + offsets[i]
            now = clock()
            if target > now:
                await asyncio.sleep(target - now)
            conn = conns[i % connections]
            # No drain await here: the send *instant* must not depend on
            # how fast the server reads (that would be coordinated
            # omission sneaking back in through the client's buffers).
            conn.writer.write(line.encode("utf-8") + b"\n")
            send_lags.append(clock() - target)
            conn.expected.put_nowait(
                (i, family, protocol.command_of(line), target)
            )
        for conn in conns:
            conn.expected.put_nowait(None)
        await asyncio.gather(*readers)
        wall_s = clock() - start
    finally:
        for task in readers:
            if not task.done():
                task.cancel()
        await asyncio.gather(*readers, return_exceptions=True)
        for conn in conns:
            conn.writer.close()
            try:
                await conn.writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    # -- aggregate ----------------------------------------------------------
    outcome_counts = {"ok": 0, "shed": 0, "timeout": 0, "error": 0}
    families: dict = {}
    ok_latencies = []
    for entry in results:
        if entry is None:
            outcome_counts["error"] += 1
            continue
        family, outcome, latency = entry
        outcome_counts[outcome] += 1
        bucket = families.setdefault(
            family,
            {"count": 0, "ok": 0, "shed": 0, "timeout": 0, "error": 0,
             "_latencies": []},
        )
        bucket["count"] += 1
        bucket[outcome] += 1
        if outcome == "ok" and latency is not None:
            bucket["_latencies"].append(latency)
            ok_latencies.append(latency)
    for bucket in families.values():
        bucket["latency"] = latency_summary(bucket.pop("_latencies"))
    return {
        "model": "open-loop-async",
        "arrival": schedule.describe(),
        "connections": connections,
        "requests": len(plan),
        "ok": outcome_counts["ok"],
        "shed": outcome_counts["shed"],
        "timeouts": outcome_counts["timeout"],
        "errors": outcome_counts["error"],
        "wall_s": round(wall_s, 6),
        "offered_rate_rps": round(schedule.rate_hz, 3),
        "throughput_rps": round(
            outcome_counts["ok"] / wall_s, 3
        ) if wall_s > 0 else 0.0,
        "send_lag": {
            "max_us": round(max(send_lags) * 1e6, 3) if send_lags else 0.0,
            "p99_us": percentile_us(send_lags, 99),
            "p50_us": percentile_us(send_lags, 50),
        },
        "latency": latency_summary(ok_latencies),
        "families": {name: families[name] for name in sorted(families)},
    }


def run_open_loop_tcp(host: str, port: int, plan,
                      schedule: ArrivalSchedule,
                      connections: int = 4,
                      warmup: int = 0) -> dict:
    """Synchronous wrapper around :func:`open_loop_run` (runs its own
    event loop; the server's loop lives in another thread/process)."""
    return asyncio.run(
        open_loop_run(host, port, plan, schedule,
                      connections=connections, warmup=warmup)
    )
