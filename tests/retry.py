"""Deadline-aware client retry for idempotent reads.

A fault-tolerant server is only half the story: the client has to
behave well when a request fails transiently.  :class:`RetryPolicy`
encodes the standard discipline — capped exponential backoff with full
jitter (decorrelates retry storms from many clients), a per-*call*
deadline covering all attempts, and a strict allowlist of retryable
error types:

* :class:`~repro.errors.ServerOverloadedError` (including the breaker's
  :class:`~repro.errors.CircuitOpenError`) — the server asked us to
  back off;
* :class:`~repro.errors.DeadlineExceededError` — the request expired in
  the queue without running;
* :class:`~repro.errors.WorkerCrashedError` — a worker died before
  answering; the supervisor is respawning it.

All three share one property: the read never executed to completion, so
re-issuing it cannot double-apply anything.  Writes are deliberately
*not* retried here — a write that failed after its maintenance phase
may already be applied-but-unpublished, and blind client retry would
double-apply it; the server's own pipeline recovery owns that path.

This is the retrying client of the chaos suites (``test_serving_faults``,
``test_serving_health``, ``test_serving_stress``, ``test_shard_faults``):
injected kills and breaker trips become retries, not lost requests.  No
path of the program itself runs it, so it lives here, not in
``repro.serving``.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Optional

from repro.errors import (
    DeadlineExceededError,
    ServerOverloadedError,
    ServingError,
    WorkerCrashedError,
)

#: Errors safe to retry: the request never completed, reads are
#: idempotent.  CircuitOpenError subclasses ServerOverloadedError.
RETRYABLE = (ServerOverloadedError, DeadlineExceededError,
             WorkerCrashedError)


class RetryPolicy:
    """Capped exponential backoff with full jitter, bounded by attempts
    and an overall deadline.

    Backoff before attempt ``k`` (1-based retries) is drawn uniformly
    from ``[0, min(max_delay_s, base_delay_s * multiplier**(k-1))]`` —
    AWS-style "full jitter", which empirically spreads retry storms
    best.  ``deadline_s`` bounds the whole call (attempts + sleeps): a
    retry that cannot start before the deadline raises the last error
    instead of sleeping past it.

    The policy is thread-safe and keeps aggregate counters
    (:meth:`stats`) so workload drivers can report retry pressure.
    """

    def __init__(self, max_attempts: int = 4, base_delay_s: float = 0.005,
                 max_delay_s: float = 0.25, multiplier: float = 2.0,
                 deadline_s: Optional[float] = None,
                 retryable=RETRYABLE, rng: Optional[random.Random] = None,
                 sleep=time.sleep, clock=time.monotonic):
        if max_attempts < 1:
            raise ValueError(f"need at least one attempt, got {max_attempts}")
        self.max_attempts = max_attempts
        self.base_delay_s = base_delay_s
        self.max_delay_s = max_delay_s
        self.multiplier = multiplier
        self.deadline_s = deadline_s
        self.retryable = tuple(retryable)
        self._rng = rng if rng is not None else random.Random()
        self._sleep = sleep
        self._clock = clock
        self._lock = threading.Lock()
        self._calls = 0
        self._retries = 0
        self._exhausted = 0

    def backoff_s(self, attempt: int) -> float:
        """The sleep before retry ``attempt`` (1-based): full jitter."""
        cap = min(self.max_delay_s,
                  self.base_delay_s * self.multiplier ** (attempt - 1))
        return self._rng.uniform(0.0, cap)

    def call(self, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)``, retrying retryable failures.

        Raises the last error when attempts or the deadline run out.
        ``fn`` must be an idempotent read — see the module docstring.
        """
        with self._lock:
            self._calls += 1
        deadline = (
            None if self.deadline_s is None
            else self._clock() + self.deadline_s
        )
        attempt = 0
        while True:
            attempt += 1
            try:
                return fn(*args, **kwargs)
            except self.retryable:
                if attempt >= self.max_attempts:
                    with self._lock:
                        self._exhausted += 1
                    raise
                pause = self.backoff_s(attempt)
                if deadline is not None and self._clock() + pause > deadline:
                    with self._lock:
                        self._exhausted += 1
                    raise
                with self._lock:
                    self._retries += 1
                self._sleep(pause)

    def query(self, server, op: str, /, *args, **kwargs):
        """Retryingly run a read op through ``server``.

        Refuses mutation entry points by name — this policy is for
        idempotent reads only.
        """
        if op in ("insert", "delete", "write", "modify"):
            raise ServingError(
                f"RetryPolicy only retries idempotent reads, not {op!r}; "
                "write recovery belongs to the server's pipeline"
            )
        return self.call(lambda: server.query(op, *args, **kwargs))

    def stats(self) -> dict:
        """Aggregate counters: calls, retries, exhausted calls."""
        with self._lock:
            return {
                "calls": self._calls,
                "retries": self._retries,
                "exhausted": self._exhausted,
            }

    def __repr__(self):
        stats = self.stats()
        return (
            f"RetryPolicy(max_attempts={self.max_attempts}, "
            f"retries={stats['retries']})"
        )
