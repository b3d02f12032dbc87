"""Fault injection for proving the durability *and* serving paths.

Recovery code that has never seen a crash is folklore, not engineering.
This module simulates the failure shapes the reliability subsystems
must survive, so tests can drive every recovery path deterministically.

**Storage faults** (PR 1, the durability layer):

* **exception at the nth I/O operation** — :func:`crash_on_io` patches
  ``open``/``os.replace``/``os.fsync`` so the (n+1)th I/O primitive
  raises :class:`InjectedCrash` *instead of executing*, modelling a
  process death at that exact point.  :func:`count_io` runs a callable
  once to learn how many such operations it performs, so a test can
  sweep ``fail_after`` over every step.
* **torn writes** — :func:`torn_write` truncates an existing file to a
  prefix, the on-disk outcome of a crash mid-``write(2)`` without an
  atomic rename protocol.
* **partial appends** — :func:`partial_append` splices a broken record
  onto a log, the outcome of a crash mid-append.

**Serving faults** (the fault-tolerant serving layer):

* :class:`ServingFaults` is a programmable plan of the named fault
  sites the servers' hot paths call into (:meth:`ServingFaults.fire`;
  the class lists them): read-op exceptions and slow ops, worker-thread
  kills, writer-phase crashes, and the shard fleet's publish and attach
  failures.  Each armed site fires a bounded number of times, so a test
  arms exactly the crash it wants and asserts the recovery it expects.
* :class:`ChaosMonkey` drives a seeded random stream of those faults
  from a background thread — the engine behind the chaos test suite.

:class:`InjectedCrash` deliberately subclasses :class:`BaseException`:
a crash is not an error the code under test may catch, roll back, and
convert — ``except Exception`` handlers must not swallow it, exactly as
they could not swallow a real ``kill -9``.  :class:`WorkerKilled` does
the same for simulated worker-thread deaths; :class:`InjectedFault` is
a plain :class:`Exception` for op-level errors a server is *expected*
to absorb and report.
"""

from __future__ import annotations

import builtins
import os
import random
import threading
import time
from contextlib import contextmanager
from typing import Optional


class InjectedCrash(BaseException):
    """Simulated process death at an injected fault point."""


class FaultClock:
    """Counts I/O operations and raises at a configured point.

    ``fail_after=n`` allows exactly ``n`` operations; the next one
    raises.  ``fail_after=None`` never raises (used for counting).
    """

    def __init__(self, fail_after=None):
        self.fail_after = fail_after
        self.ops = 0
        self.trace = []

    def tick(self, label: str) -> None:
        if self.fail_after is not None and self.ops >= self.fail_after:
            raise InjectedCrash(
                f"injected crash at I/O op #{self.ops} ({label})"
            )
        self.ops += 1
        self.trace.append(label)


class _CrashyFile:
    """File proxy whose write-side primitives tick the fault clock."""

    def __init__(self, real, clock: FaultClock, name: str):
        self._real = real
        self._clock = clock
        self._name = name

    def write(self, data):
        self._clock.tick(f"write:{self._name}")
        return self._real.write(data)

    def flush(self):
        self._clock.tick(f"flush:{self._name}")
        return self._real.flush()

    def close(self):
        # Closing also flushes buffered data, so it is a fault point.
        self._clock.tick(f"close:{self._name}")
        return self._real.close()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is InjectedCrash:
            # The process "died": release the descriptor without the
            # implicit flush a graceful close would perform.
            try:
                self._real.close()
            except OSError:
                pass
            return False
        self.close()
        return False

    def __getattr__(self, name):
        return getattr(self._real, name)


@contextmanager
def crash_on_io(fail_after=None, path_filter=None):
    """Patch I/O primitives so the (``fail_after``+1)th operation crashes.

    Counted operations: opening a file for writing/appending, ``write``,
    ``flush``, ``close`` on such files, ``os.fsync``, and ``os.replace``.
    Reads are never faulted (crash-during-read is not a durability
    concern).  ``path_filter`` restricts faulting to matching paths so a
    test can target one file.  Yields the :class:`FaultClock`, whose
    ``ops``/``trace`` record what ran.
    """
    clock = FaultClock(fail_after)
    real_open = builtins.open
    real_replace = os.replace
    real_fsync = os.fsync

    def matches(path) -> bool:
        if path_filter is None:
            return True
        try:
            return path_filter(os.fspath(path))
        except TypeError:
            return False

    def crashy_open(file, mode="r", *args, **kwargs):
        writing = any(flag in mode for flag in ("w", "a", "x", "+"))
        if not writing or not matches(file):
            return real_open(file, mode, *args, **kwargs)
        clock.tick(f"open:{file}")
        return _CrashyFile(
            real_open(file, mode, *args, **kwargs), clock, str(file)
        )

    def crashy_replace(src, dst, **kwargs):
        if matches(src) or matches(dst):
            clock.tick(f"replace:{dst}")
        return real_replace(src, dst, **kwargs)

    def crashy_fsync(fd):
        clock.tick("fsync")
        return real_fsync(fd)

    builtins.open = crashy_open
    os.replace = crashy_replace
    os.fsync = crashy_fsync
    try:
        yield clock
    finally:
        builtins.open = real_open
        os.replace = real_replace
        os.fsync = real_fsync


def count_io(operation, path_filter=None) -> int:
    """Run ``operation`` once under a never-failing clock; return how many
    I/O operations it performed (the sweep bound for ``crash_on_io``)."""
    with crash_on_io(fail_after=None, path_filter=path_filter) as clock:
        operation()
    return clock.ops


def torn_write(path, keep_bytes=None, keep_fraction=0.5) -> int:
    """Truncate ``path`` to a prefix, simulating a torn (partial) write.

    Keeps ``keep_bytes`` bytes when given, else ``keep_fraction`` of the
    file.  Returns the number of bytes kept.
    """
    with open(path, "rb") as fp:
        data = fp.read()
    if keep_bytes is None:
        keep_bytes = int(len(data) * keep_fraction)
    keep_bytes = max(0, min(keep_bytes, len(data)))
    with open(path, "wb") as fp:
        fp.write(data[:keep_bytes])
    return keep_bytes


def partial_append(path, text="deadbeef {\"lsn\": 99, \"op\": ") -> None:
    """Append an incomplete record to a log, simulating a crash
    mid-append (no trailing newline, checksum never completed)."""
    with open(path, "a") as fp:
        fp.write(text)


# -- serving-layer fault injection -------------------------------------------


class InjectedFault(Exception):
    """An injected op-level serving error (catchable — the server is
    expected to absorb it, fail the one request, and keep serving)."""


class WorkerKilled(BaseException):
    """Simulated death of a worker thread at the ``worker`` fault site.

    A :class:`BaseException` like :class:`InjectedCrash`: the request-
    handling code must not catch and convert it — it escapes to the
    worker loop's crash guard, the thread dies, and the supervisor is
    expected to respawn it.
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
        at the start of each writer-pipeline phase — arm with
        :class:`InjectedCrash` to crash the writer in that phase;
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


class ChaosMonkey:
    """A seeded background thread feeding a :class:`ServingFaults` plan.

    Every ``interval_s`` it arms one randomly chosen fault: a worker
    kill, a writer-phase crash (:class:`InjectedCrash`, any phase), an
    op-level exception, or an injected slow op.  The stream is fully
    determined by ``seed``, so a chaos run that finds a bug replays.

    ``ops`` names the read ops eligible for op-level faults;
    ``weights`` maps action names (``kill`` / ``write_crash`` /
    ``op_error`` / ``op_slow``) to relative odds, with unlisted actions
    disabled.
    """

    WRITE_PHASES = ("maintain", "refreeze", "publish")

    def __init__(self, faults: ServingFaults, *, seed: int = 0,
                 interval_s: float = 0.02, ops=("point",),
                 weights=None, slow_s: float = 0.005):
        self.faults = faults
        self.events: list = []
        self._rng = random.Random(seed)
        self._interval_s = interval_s
        self._ops = tuple(ops)
        self._slow_s = slow_s
        self._weights = dict(weights) if weights is not None else {
            "kill": 2, "write_crash": 2, "op_error": 3, "op_slow": 3,
        }
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="chaos-monkey", daemon=False
        )

    def _choose(self) -> str:
        actions = list(self._weights)
        odds = [self._weights[a] for a in actions]
        return self._rng.choices(actions, weights=odds, k=1)[0]

    def _inject(self) -> None:
        action = self._choose()
        if action == "kill":
            self.faults.kill_next_worker()
            self.events.append(("kill", "worker"))
        elif action == "write_crash":
            phase = self._rng.choice(self.WRITE_PHASES)
            self.faults.arm(f"write:{phase}", times=1, exc=InjectedCrash)
            self.events.append(("write_crash", phase))
        elif action == "op_error":
            op = self._rng.choice(self._ops)
            self.faults.arm(f"op:{op}", times=1, exc=InjectedFault)
            self.events.append(("op_error", op))
        else:
            op = self._rng.choice(self._ops)
            self.faults.arm(f"op:{op}", times=1, delay_s=self._slow_s,
                            exc=None)
            self.events.append(("op_slow", op))

    def _run(self) -> None:
        while not self._stop.wait(self._interval_s):
            self._inject()

    def start(self) -> "ChaosMonkey":
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop injecting, join the thread, and disarm leftover faults
        so the server can drain cleanly."""
        self._stop.set()
        self._thread.join()
        self.faults.clear()

    def __enter__(self) -> "ChaosMonkey":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    def summary(self) -> dict:
        """Event counts per action, for chaos reports."""
        counts: dict = {}
        for action, _ in self.events:
            counts[action] = counts.get(action, 0) + 1
        return counts
