"""Fault injection for the serving layer.

:class:`ServingFaults` is a programmable plan of the named fault sites
the servers' hot paths call into (:meth:`ServingFaults.fire`; the class
lists them): read-op exceptions and slow ops, worker-thread kills,
writer-phase crashes, and the shard fleet's publish and attach
failures.  Each armed site fires a bounded number of times, so a test
arms exactly the crash it wants and asserts the recovery it expects.

:class:`WorkerKilled` subclasses :class:`BaseException`: a simulated
worker-thread death is not an error the request-handling code may catch
and convert.  :class:`InjectedFault` is a plain :class:`Exception` for
op-level errors a server is *expected* to absorb and report.  The
storage-fault tools (crash at the nth I/O, torn writes, partial
appends) and the seeded ``ChaosMonkey`` live with the tests that drive
them, in ``tests/faults.py``.
"""

from __future__ import annotations

import threading
import time
from typing import Optional


class InjectedFault(Exception):
    """An injected op-level serving error (catchable — the server is
    expected to absorb it, fail the one request, and keep serving)."""


class WorkerKilled(BaseException):
    """Simulated death of a worker thread at the ``worker`` fault site.

    A :class:`BaseException`: the request-handling code must not catch
    and convert it — it escapes to the worker loop's crash guard, the
    thread dies, and the supervisor is expected to respawn it.
    """


class _FaultPoint:
    """One armed fault site: fire ``times`` times after ``after`` skips."""

    __slots__ = ("site", "times", "after", "delay_s", "exc")

    def __init__(self, site, times, after, delay_s, exc):
        self.site = site
        self.times = times
        self.after = after
        self.delay_s = delay_s
        self.exc = exc


class ServingFaults:
    """A programmable, thread-safe fault plan for the serving layer.

    Code under test calls :meth:`fire` at named sites; tests arm sites
    with :meth:`arm`.  An unarmed site is free (one dict probe), so a
    server can carry an injector permanently in chaos benchmarks.

    Sites the server instruments:

    ``op:<name>``
        inside request execution, before the op runs, on a pool thread
        (a shard server answers a read on its pool while the read's
        site is armed) — arm with an exception for a failing op, or
        with ``delay_s`` alone for an injected slow op;
    ``worker``
        at the top of request handling, before the future is claimed —
        arm with :class:`WorkerKilled` (the default there) to kill the
        worker thread that picks up the next request;
    ``write:maintain`` / ``write:refreeze`` / ``write:publish``
        at the start of each writer-pipeline phase — arm with a
        :class:`BaseException` (the tests' ``InjectedCrash``) to crash
        the writer in that phase;
    ``shard:publish`` / ``shard:attach``
        a shard server's writer between packing a snapshot and
        announcing it, and a worker's attach of the announced epoch
        (the worker must keep serving its last-good snapshot until the
        supervisor re-announces).

    :meth:`arm` refuses any other name (``ValueError``), so a plan
    naming a site no server fires cannot silently never fire.
    """

    SITES = frozenset({"worker", "write:maintain", "write:refreeze",
                       "write:publish", "shard:publish", "shard:attach"})

    def __init__(self):
        self._lock = threading.Lock()
        self._points: dict = {}
        self._fired: dict = {}

    def arm(self, site: str, *, times: Optional[int] = 1, after: int = 0,
            delay_s: float = 0.0, exc=InjectedFault) -> None:
        """Arm ``site`` to fire ``times`` times (None = until disarmed),
        skipping its first ``after`` hits.

        Each firing sleeps ``delay_s`` (injected slowness), then raises
        ``exc`` — an exception class or instance; pass ``exc=None`` for
        a delay-only fault.  Re-arming a site replaces its plan.
        """
        named = site in self.SITES or (site.startswith("op:") and site[3:])
        if not named:
            raise ValueError(f"no server fires the fault site {site!r}")
        with self._lock:
            self._points[site] = _FaultPoint(site, times, after, delay_s, exc)

    def disarm(self, site: str) -> None:
        """Remove ``site``'s plan (idempotent)."""
        with self._lock:
            self._points.pop(site, None)

    def clear(self) -> None:
        """Disarm every site."""
        with self._lock:
            self._points.clear()

    def kill_next_worker(self, times: int = 1) -> None:
        """Arm the ``worker`` site so the next ``times`` requests kill
        the worker threads that claim them."""
        self.arm("worker", times=times, exc=WorkerKilled)

    def armed(self, site: str) -> bool:
        """Whether ``site`` has a plan not yet spent."""
        return site in self._points

    def fired(self, site: str) -> int:
        """How many times ``site`` actually fired."""
        with self._lock:
            return self._fired.get(site, 0)

    def fire(self, site: str) -> None:
        """Trigger ``site``: no-op unless armed, else sleep/raise per plan."""
        with self._lock:
            point = self._points.get(site)
            if point is None:
                return
            if point.after > 0:
                point.after -= 1
                return
            if point.times is not None:
                if point.times <= 0:
                    return
                point.times -= 1
                if point.times == 0:
                    del self._points[site]
            self._fired[site] = self._fired.get(site, 0) + 1
            delay_s, exc = point.delay_s, point.exc
        if delay_s:
            time.sleep(delay_s)
        if exc is not None:
            raise exc(f"injected fault at {site}") if isinstance(
                exc, type) else exc
