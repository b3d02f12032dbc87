"""The fault-injection tools the tests drive, beside the serving
layer's own plan (:class:`~repro.reliability.faults.ServingFaults`).

**Storage faults**, for the durability layer:

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

**Chaos**: :class:`ChaosMonkey` drives a seeded random stream of serving
faults from a background thread — the engine behind the chaos suites.

:class:`InjectedCrash` deliberately subclasses :class:`BaseException`:
a crash is not an error the code under test may catch, roll back, and
convert — ``except Exception`` handlers must not swallow it, exactly as
they could not swallow a real ``kill -9``.
"""

from __future__ import annotations

import builtins
import os
import random
import threading
from contextlib import contextmanager

from repro.reliability.faults import InjectedFault, ServingFaults


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
