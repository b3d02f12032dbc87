"""Admission control: the admitted read and the bounded queue in front of
the workers.

Every read :meth:`QCServer.submit <repro.serving.server.QCServer.submit>`
admits is one :class:`Request`, whichever way it is answered — by a pool
thread off the :class:`AdmissionQueue`, or over a shard worker's pipe —
and :meth:`Request.complete` is the one way it is finished.

Two policies keep an overloaded server predictable instead of slow:

* **Load shedding** — the queue is bounded; when it is full,
  :meth:`AdmissionQueue.offer` refuses immediately and the server raises
  :class:`~repro.errors.ServerOverloadedError` to the caller.  Failing
  fast at admission costs one queue probe; accepting work that cannot
  finish in time costs a worker slot *and* still fails the caller.
* **Deadlines** — each request may carry an absolute deadline (monotonic
  clock).  Workers check it when they dequeue: a request that waited
  past its deadline is answered with
  :class:`~repro.errors.DeadlineExceededError` without executing, so a
  burst drains at queue speed rather than at service speed.  (A read
  sent on a shard worker's pipe is checked by that worker, and failed
  at its deadline by the supervisor's scan while the pipe holds it.)

The queue itself is a plain ``deque`` under one condition variable —
FIFO, no priorities — because fairness between readers is the property
the stress tests rely on, and anything smarter belongs in a later
scheduling PR.
"""

from __future__ import annotations

import threading
from collections import deque


class Request:
    """One admitted read, from admission to its one completion.

    ``future`` (of the server's ``_future_class``) carries the answer
    back to the caller; ``deadline`` is an absolute
    :func:`time.monotonic` instant (None = no deadline);
    ``started`` is when the read was admitted, then when a worker began
    serving it — the age a wedged worker shows.  ``key`` is its cache
    key once a lookup missed (the completion fills the cache),
    ``snapshot`` the version it is answered from, and ``pipe`` the shard
    worker it was sent to (None on the pool).
    """

    __slots__ = ("server", "op", "args", "kwargs", "future", "deadline",
                 "started", "key", "snapshot", "pipe")

    def __init__(self, server, op: str, args: tuple, kwargs: dict,
                 started: float, deadline):
        self.server = server
        self.op = op
        self.args = args
        self.kwargs = kwargs
        self.future = server._future_class()
        self.deadline = deadline
        self.started = started
        self.key = None
        self.snapshot = None
        self.pipe = None

    def complete(self, ok: bool, payload) -> None:
        """Finish the read with its answer (``ok``) or its exception;
        called exactly once, by whichever thread has the outcome."""
        self.server._finish(self, ok, payload)


class AdmissionQueue:
    """Bounded FIFO handoff between admission and the worker pool."""

    def __init__(self, maxsize: int):
        if maxsize <= 0:
            raise ValueError(f"queue maxsize must be positive, got {maxsize}")
        self.maxsize = maxsize
        self._items: deque = deque()
        self._cond = threading.Condition()
        self._closed = False

    def depth(self) -> int:
        """Requests currently waiting (the queue-depth gauge)."""
        return len(self._items)

    def offer(self, request: Request) -> bool:
        """Admit ``request`` if there is room; False means *shed it*.

        Raises ``RuntimeError`` after :meth:`close` — submitting to a
        closed queue is a server-lifecycle bug the caller maps to
        :class:`~repro.errors.ServerClosedError`.
        """
        with self._cond:
            if self._closed:
                raise RuntimeError("queue is closed")
            if len(self._items) >= self.maxsize:
                return False
            self._items.append(request)
            self._cond.notify()
            return True

    def take(self):
        """Block for the next request; ``None`` once the queue is closed
        and drained (the worker should exit)."""
        with self._cond:
            while not self._items:
                if self._closed:
                    return None
                self._cond.wait()
            return self._items.popleft()

    def close(self) -> list:
        """Stop admissions, wake every waiting worker, and return the
        stranded requests so the server can fail their futures."""
        with self._cond:
            self._closed = True
            stranded = list(self._items)
            self._items.clear()
            self._cond.notify_all()
        return stranded
