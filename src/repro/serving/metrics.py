"""Request metrics for the serving subsystem.

Three small, thread-safe primitives — a monotonic :class:`Counter`, a
log-bucketed :class:`LatencyHistogram`, and the :class:`ServerMetrics`
registry that groups them per operation — designed for a hot path: one
lock acquisition per observation, fixed memory regardless of request
count, and a ``snapshot()``/``to_dict()`` readout that is consistent
enough for operations dashboards without stopping the world.

Histogram buckets follow the classic 1-2-5 decade ladder in
microseconds (1 µs … 50 s, plus overflow), which keeps relative error
under ~2.5× worst case while spanning every latency this system can
produce; percentiles are interpolated within the winning bucket.
"""

from __future__ import annotations

import threading
from bisect import bisect_left

#: Bucket upper bounds in microseconds: 1, 2, 5, 10, 20, 50, ... 5e7.
BUCKET_BOUNDS_US = tuple(
    m * 10 ** e for e in range(8) for m in (1, 2, 5)
)


class Counter:
    """A named monotonic counter safe to bump from any thread."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, n: int = 1) -> None:
        with self._lock:
            self._value += n

    @property
    def value(self) -> int:
        return self._value

    def __repr__(self):
        return f"Counter({self.name}={self._value})"


class LatencyHistogram:
    """Fixed-bucket latency histogram with interpolated percentiles."""

    __slots__ = ("_counts", "_count", "_sum_us", "_max_us", "_lock")

    def __init__(self):
        self._counts = [0] * (len(BUCKET_BOUNDS_US) + 1)
        self._count = 0
        self._sum_us = 0.0
        self._max_us = 0.0
        self._lock = threading.Lock()

    def observe(self, seconds: float) -> None:
        """Record one latency observation (wall seconds)."""
        us = seconds * 1e6
        # The first bound >= us (the last slot is the overflow bucket);
        # bisect in C is 0.2 µs where a Python scan to a 50 µs read's
        # bucket took 0.8 (2-vCPU x86-64 VM).
        i = bisect_left(BUCKET_BOUNDS_US, us)
        with self._lock:
            self._counts[i] += 1
            self._count += 1
            self._sum_us += us
            if us > self._max_us:
                self._max_us = us

    @property
    def count(self) -> int:
        return self._count

    def percentile(self, p: float) -> float:
        """Approximate ``p``-th percentile latency in microseconds.

        Linear interpolation inside the bucket containing the rank;
        0.0 when the histogram is empty.
        """
        with self._lock:
            total = self._count
            if total == 0:
                return 0.0
            rank = p / 100.0 * total
            seen = 0
            for i, n in enumerate(self._counts):
                if n == 0:
                    continue
                if seen + n >= rank:
                    lo = BUCKET_BOUNDS_US[i - 1] if i > 0 else 0.0
                    hi = (
                        BUCKET_BOUNDS_US[i]
                        if i < len(BUCKET_BOUNDS_US) else self._max_us
                    )
                    frac = (rank - seen) / n
                    return min(lo + frac * (hi - lo), self._max_us)
                seen += n
            return self._max_us

    def snapshot(self) -> dict:
        """Count, mean, max, and the standard percentile readout (µs)."""
        with self._lock:
            count, sum_us, max_us = self._count, self._sum_us, self._max_us
        return {
            "count": count,
            "mean_us": round(sum_us / count, 3) if count else 0.0,
            "p50_us": round(self.percentile(50), 3),
            "p90_us": round(self.percentile(90), 3),
            "p99_us": round(self.percentile(99), 3),
            "p999_us": round(self.percentile(99.9), 3),
            "max_us": round(max_us, 3),
        }


class ServerMetrics:
    """The server's metrics registry: counters + per-op latency histograms.

    Counters (all monotonic):

    ``submitted``
        requests accepted into the admission queue;
    ``completed``
        requests answered successfully;
    ``shed``
        requests rejected at admission because the queue was full;
    ``timeouts``
        requests whose deadline passed before a worker picked them up;
    ``errors``
        requests that raised while executing, were failed by a worker
        crash, or were stranded by shutdown;
    ``cancelled``
        requests whose future was cancelled before a worker claimed it
        (including cancelled futures stranded at close);
    ``stranded``
        requests still queued at :meth:`QCServer.close
        <repro.serving.server.QCServer.close>` (each is *also* counted
        under ``errors`` or ``cancelled``, so the admission ledger
        ``submitted == completed + timeouts + errors + cancelled``
        stays balanced);
    ``breaker_rejected``
        requests shed at admission by an open circuit breaker (not
        ``submitted``, so outside the ledger like ``shed``);
    ``worker_crashes`` / ``worker_restarts``
        worker threads that died with an escaped exception, and worker
        threads respawned by the supervisor;
    ``snapshot_swaps``
        snapshot publications by the writer path;
    ``writes_failed``
        write batches whose maintenance phase raised (the transactional
        rollback left the tree unchanged);
    ``writes_quarantined``
        write batches refused up front because identical batches
        repeatedly crashed the writer;
    ``refreeze_fallbacks`` / ``publish_retries``
        write-pipeline recoveries: a failed incremental refreeze retried
        as a full recompile, and a failed publication retried from a
        fresh snapshot;
    ``degraded_entered`` / ``degraded_exited``
        transitions in and out of degraded read-only mode;
    ``refreeze_patched`` / ``refreeze_full``
        how each write's refreeze was served — an incremental patch of
        the frozen view versus a full recompile (fresh or compacted).

    Per-op histograms measure *service* latency (worker execution); a
    load generator separately measures client-observed latency, which
    adds queueing delay.  Histograms named ``write_phase:<phase>``
    (maintain / refreeze / publish) are reported separately under
    ``write_phases`` in :meth:`to_dict`, splitting the writer's total
    ``write:<op>`` time into its pipeline stages.  Histograms named
    ``shard:<phase>`` (the multi-process publish protocol's ``pack`` /
    ``publish_detach_wait`` timings) are likewise grouped under
    ``shard_phases``.
    """

    COUNTERS = (
        "submitted", "completed", "shed", "timeouts", "errors",
        "cancelled", "stranded", "breaker_rejected",
        "worker_crashes", "worker_restarts",
        "snapshot_swaps", "writes_failed", "writes_quarantined",
        "refreeze_fallbacks", "publish_retries",
        "degraded_entered", "degraded_exited",
        "refreeze_patched", "refreeze_full",
    )

    def __init__(self):
        self._counters = {name: Counter(name) for name in self.COUNTERS}
        self._histograms: dict = {}
        self._lock = threading.Lock()

    def counter(self, name: str) -> Counter:
        """The named counter (created on first use for custom names)."""
        try:
            return self._counters[name]
        except KeyError:
            with self._lock:
                return self._counters.setdefault(name, Counter(name))

    def histogram(self, op: str) -> LatencyHistogram:
        """The latency histogram for ``op``, created on first use."""
        try:
            return self._histograms[op]
        except KeyError:
            with self._lock:
                return self._histograms.setdefault(op, LatencyHistogram())

    def observe(self, op: str, seconds: float) -> None:
        """Record one service-latency observation for ``op``."""
        self.histogram(op).observe(seconds)

    def to_dict(self) -> dict:
        """A JSON-ready readout of every counter and histogram.

        Write-phase histograms are grouped under ``write_phases`` and
        shard publish-protocol histograms under ``shard_phases`` (keyed
        by bare phase name) instead of ``ops``.
        """
        phase_prefix = "write_phase:"
        shard_prefix = "shard:"
        return {
            "counters": {
                name: c.value for name, c in sorted(self._counters.items())
            },
            "ops": {
                op: h.snapshot()
                for op, h in sorted(self._histograms.items())
                if not op.startswith((phase_prefix, shard_prefix))
            },
            "write_phases": {
                op[len(phase_prefix):]: h.snapshot()
                for op, h in sorted(self._histograms.items())
                if op.startswith(phase_prefix)
            },
            "shard_phases": {
                op[len(shard_prefix):]: h.snapshot()
                for op, h in sorted(self._histograms.items())
                if op.startswith(shard_prefix)
            },
        }
