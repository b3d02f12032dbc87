"""Health, readiness, and load-shedding signals for the serving layer.

A production server needs to answer two questions cheaply and honestly:
*is this process worth sending traffic to* (readiness), and *is it at
least alive enough to keep, not restart* (liveness).  This module
supplies both, plus the circuit breaker that turns a burst of request
errors into explicit load shedding instead of a pile-up:

* :func:`health_report` assembles the ``health`` op's answer from a
  :class:`~repro.serving.server.QCServer`: liveness, snapshot staleness
  (LSN/epoch lag of the published snapshot behind the warehouse's dict
  tree — nonzero exactly when a write applied but could not publish),
  queue depth, worker liveness, write-degraded state, and breaker
  state.
* :class:`CircuitBreaker` is the classic three-state breaker over a
  windowed error rate: CLOSED counts outcomes and opens when the recent
  error rate crosses a threshold (with a minimum request volume, so one
  early error cannot trip it); OPEN sheds every request for a cooldown;
  HALF_OPEN admits a bounded number of probe requests — one success
  closes the breaker, one failure reopens it.  All transitions are
  lock-protected and the clock is injectable for deterministic tests.
"""

from __future__ import annotations

import threading
import time

#: Breaker states (string-valued so they serialize into stats/health).
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


class CircuitBreaker:
    """Windowed error-rate circuit breaker for request admission.

    Parameters
    ----------
    error_threshold:
        Failure fraction within the current window at which the breaker
        opens (checked on each failure).
    min_requests:
        Minimum outcomes in the window before the rate is believed;
        below it the breaker never opens.
    window_s:
        Length of the tumbling outcome window; counts reset when it
        elapses, so old errors age out.
    cooldown_s:
        How long an open breaker sheds before half-opening to probe.
    probes:
        Concurrent probe requests admitted while half-open.
    clock:
        Monotonic time source (injectable for tests).
    """

    def __init__(self, error_threshold: float = 0.5,
                 min_requests: int = 20, window_s: float = 10.0,
                 cooldown_s: float = 1.0, probes: int = 1,
                 clock=time.monotonic):
        if not 0.0 < error_threshold <= 1.0:
            raise ValueError(
                f"error_threshold must be in (0, 1], got {error_threshold}"
            )
        self.error_threshold = error_threshold
        self.min_requests = min_requests
        self.window_s = window_s
        self.cooldown_s = cooldown_s
        self.probes = probes
        self._clock = clock
        self._lock = threading.Lock()
        self._state = CLOSED
        self._window_start = clock()
        self._successes = 0
        self._failures = 0
        self._opened_at = 0.0
        self._probes_in_flight = 0
        self._times_opened = 0

    # -- outcome window ------------------------------------------------------

    def _roll_window(self, now: float) -> None:
        if now - self._window_start >= self.window_s:
            self._window_start = now
            self._successes = 0
            self._failures = 0

    # -- admission -----------------------------------------------------------

    def allow(self) -> bool:
        """Whether to admit a request right now.

        OPEN → sheds until the cooldown elapses, then half-opens.
        HALF_OPEN → admits up to ``probes`` in-flight probe requests.
        """
        with self._lock:
            now = self._clock()
            if self._state == CLOSED:
                return True
            if self._state == OPEN:
                if now - self._opened_at < self.cooldown_s:
                    return False
                self._state = HALF_OPEN
                self._probes_in_flight = 0
            if self._probes_in_flight >= self.probes:
                return False
            self._probes_in_flight += 1
            return True

    # -- outcomes ------------------------------------------------------------

    def on_success(self) -> None:
        """Record a successful request; closes a half-open breaker."""
        with self._lock:
            now = self._clock()
            self._roll_window(now)
            self._successes += 1
            if self._state == HALF_OPEN:
                # The probe came back healthy: resume normal service
                # with a fresh window, so stale failures cannot re-trip.
                self._state = CLOSED
                self._window_start = now
                self._successes = 0
                self._failures = 0

    def on_window_success(self) -> None:
        """Record a success that is no verdict on the worker pool: a
        cache hit answered on the caller's thread (no worker ran), or a
        request its op refused as malformed (the server served it
        correctly; the client was wrong).  It counts in the CLOSED
        window like any success and never closes a half-open breaker —
        only a probe a worker answered may do that."""
        with self._lock:
            if self._state == CLOSED:
                self._roll_window(self._clock())
                self._successes += 1

    def on_failure(self) -> None:
        """Record a failed request; may open the breaker."""
        with self._lock:
            now = self._clock()
            if self._state == HALF_OPEN:
                # The probe failed: the fault has not cleared.
                self._open(now)
                return
            self._roll_window(now)
            self._failures += 1
            total = self._successes + self._failures
            if (self._state == CLOSED and total >= self.min_requests
                    and self._failures / total >= self.error_threshold):
                self._open(now)

    def on_discard(self) -> None:
        """Record that an admitted request produced *no* outcome (it was
        cancelled, or shed after :meth:`allow`); releases its half-open
        probe slot so a discarded probe cannot wedge the breaker."""
        with self._lock:
            if self._state == HALF_OPEN and self._probes_in_flight > 0:
                self._probes_in_flight -= 1

    def _open(self, now: float) -> None:
        self._state = OPEN
        self._opened_at = now
        self._times_opened += 1
        self._successes = 0
        self._failures = 0
        self._window_start = now

    # -- readout -------------------------------------------------------------

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def snapshot(self) -> dict:
        """JSON-ready breaker readout for stats/health."""
        with self._lock:
            return {
                "state": self._state,
                "window_successes": self._successes,
                "window_failures": self._failures,
                "times_opened": self._times_opened,
                "error_threshold": self.error_threshold,
                "min_requests": self.min_requests,
            }

    def __repr__(self):
        return f"CircuitBreaker(state={self.state})"


def health_report(server) -> dict:
    """Assemble the ``health`` op's answer for ``server``.

    ``live``
        the process is worth keeping: not closed and at least one
        worker thread alive;
    ``ready``
        worth routing traffic to: live, the write pipeline not degraded,
        breaker not open, and admission not shedding
        (``QCServer._backlog``: the queue's depth — and, for a shard
        server, its forwards in flight — under ``queue_size``);
    ``status``
        ``"ok"`` / ``"degraded"`` / ``"down"``, the one-word rollup;
    ``staleness``
        the published snapshot's ``(lsn, epoch)`` against the
        warehouse's current serving stamp.  Both lags are zero in
        steady state; a positive lag means a write applied to the dict
        tree but has not been published — exactly the degraded-mode
        signature.
    """
    warehouse = server.warehouse
    snapshot = server.snapshot
    snap_lsn, snap_epoch = snapshot.stamp
    wh_lsn, wh_epoch = warehouse.serving_stamp()
    workers = server.worker_health()
    queue = server._queue
    depth = queue.depth()
    breaker = server.breaker.snapshot() if server.breaker is not None else None
    live = not server.closed and workers["alive"] > 0
    ready = (
        live and not server.write_degraded
        and server._backlog() < queue.maxsize
        and (breaker is None or breaker["state"] != OPEN)
    )
    if not live:
        status = "down"
    elif not ready:
        status = "degraded"
    else:
        status = "ok"
    report = {
        "status": status,
        "live": live,
        "ready": ready,
        "closed": server.closed,
        "degraded": {
            "writes": server.write_degraded,
            "reason": server.degraded_reason,
        },
        "staleness": {
            "snapshot_lsn": snap_lsn,
            "snapshot_epoch": snap_epoch,
            "warehouse_lsn": wh_lsn,
            "warehouse_epoch": wh_epoch,
            "lsn_lag": wh_lsn - snap_lsn,
            "epoch_lag": wh_epoch - snap_epoch,
        },
        "queue": {"depth": depth, "maxsize": queue.maxsize},
        "workers": workers,
        "breaker": breaker,
    }
    # Segmented warehouses expose their lifecycle counters (segment
    # count, head size, seal/compaction progress and backlog) so
    # operators can watch ingest health from the same endpoint.
    segments = warehouse.segment_health()
    if segments is not None:
        report["segments"] = segments
    # Multi-process shard servers report their worker-process fleet
    # (liveness, restarts, attached epochs, segment footprint) the same
    # way — see ``ShardServer.shard_health``.
    shard = server.shard_health()
    if shard is not None:
        report["shard"] = shard
        if live and shard["processes_alive"] == 0 and status == "ok":
            report["status"] = "degraded"
            report["ready"] = False
    # Registered front-door transports (e.g. the asyncio TCP listener)
    # gate readiness: a server whose listener stopped accepting is not
    # worth routing traffic to, even though the worker pool is healthy.
    transports = server.transports
    if transports:
        descriptions = [t.describe() for t in transports]
        report["transports"] = descriptions
        if report["ready"] and not all(t.ready for t in transports):
            report["ready"] = False
            if report["status"] == "ok":
                report["status"] = "degraded"
    return report
