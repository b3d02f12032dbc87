"""``ShardServer`` — multi-process serving over shared-memory snapshots.

The thread-based :class:`~repro.serving.server.QCServer` is capped at
one core for pure-CPU traffic.  ``ShardServer`` subclasses it: the
parent keeps admission, deadlines, the ledger, the stamped cache, the
breaker, the single writer and the supervisor, while N forked worker
processes each attach the current ``QCTREE/3`` segment
(:mod:`repro.shard.pack`) and answer reads lock-free from one shared
copy.  A publish packs a fresh segment, announces ``(lsn, epoch,
name)`` to each worker that owes no earlier reply, swaps the parent
snapshot and waits (bounded) for those workers' replies; a worker on
another epoch is not routed to, and with none routable the parent
answers from its own snapshot.  A dead worker fails its in-flight reads
with the retryable :class:`~repro.errors.WorkerCrashedError` and is
respawned.  Who serves on which pipe, what each worker is announced and
which segments stay linked is one :class:`~repro.shard.fleet.FleetState`;
what is inside each pipe, one :class:`~repro.shard.pipe.PipeState`.
DESIGN §10 has the lifecycle, both protocols and the failure table.
"""

from __future__ import annotations

import multiprocessing
import os
import select
import socket
import threading
import time
import warnings
from concurrent.futures import Future
from concurrent.futures._base import FINISHED, PENDING, RUNNING
from contextlib import suppress
from itertools import count
from typing import Optional

from repro.core.query_cache import MISS
from repro.errors import (
    DeadlineExceededError,
    QueryError,
    ServerClosedError,
    ServingError,
    WorkerCrashedError,
)
from repro.serving.admission import Request
from repro.serving.server import SNAPSHOT_OP_TABLE, QCServer
from repro.shard.frame import (
    ANSWER,
    CHUNK,
    CODES,
    CONTROL,
    EPOCH,
    FLOAT,
    REQUEST,
    VALUE,
    VALUE_BODY,
    FrameReader,
    chunk_codes,
    frame,
    pickled,
    point_codes,
    point_frame,
)
from repro.shard.fleet import ANNOUNCE, RETIRE, SPAWN, UNLINK, WAKE, FleetState
from repro.shard.pack import pack_snapshot_bytes
from repro.shard.pipe import CALLER, CLOSE, LEAVE, READ, ROUSE, PipeState
from repro.shard.segment import create_segment, unlink_segment
from repro.shard.worker import _answer_calls, worker_main


def _mp_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else None
    )


class _Chunk:
    """The sink of one worker's share of a ``map_query``
    batch: fans its answer into the batch by index.  A chunk sent as
    codes keeps its calls and the snapshot whose table encoded them, to
    be answered from if the worker refuses the codes."""

    __slots__ = ("batch", "indices", "calls", "snapshot")

    def __init__(self, batch, indices):
        self.batch = batch
        self.indices = indices
        self.calls = self.snapshot = None

    def complete(self, ok: bool, payload) -> None:
        if ok:
            self.batch.put(self.indices, *payload)
        else:
            self.batch.put(self.indices, (), dict.fromkeys(
                range(len(self.indices)), payload))


class _Batch:
    """Gather side of a scattered bulk query: ``results`` in input
    order, and ``failed`` the exception of each element that raised."""

    def __init__(self, size: int):
        self.results = [None] * size
        self.failed: dict = {}
        self._remaining = size
        self._closed = False
        self._lock = threading.Lock()
        self.event = threading.Event()
        if size == 0:
            self.event.set()

    def put(self, indices, values, errors) -> None:
        """Answer the elements at ``indices`` with ``values``, bar the
        positions ``errors`` maps to an exception."""
        with self._lock:
            if self._closed:
                return  # the gatherer gave up on them: counted timeouts
            results = self.results
            for index, value in zip(indices, values):
                results[index] = value
            for position, exc in errors.items():
                self.failed[indices[position]] = exc
            self._remaining -= len(indices)
            done = self._remaining == 0
        if done:
            self.event.set()

    def close(self) -> int:
        """Stop accepting answers; returns how many were answered."""
        with self._lock:
            self._closed = True
            return len(self.results) - self._remaining


#: What the kernel charges a pipe's socket buffer per frame on top of
#: its bytes (measured on Linux x86-64: 278 frames of 49 bytes — a
#: six-dimension point — fill the 208 KiB default buffer, ≈ 720 bytes of
#: bookkeeping each; 167 of 500 bytes, ≈ 775 each).
_MESSAGE_OVERHEAD = 1024


class _ProcHandle:
    """Parent-side end of one worker process: the process, its pipe (the
    ``gen``-th of its slot in the :class:`~repro.shard.fleet.FleetState`
    ``fleet``), and the pipe's :class:`~repro.shard.pipe.PipeState` —
    who is inside the pipe, what is owed on it, whether it serves —
    which only its transitions change, each under ``lock`` (:meth:`do`).

    ``send_lock`` keeps whole frames apart on the pipe.  It is a second
    lock because a sender waiting for room must not hold ``lock``, which
    the reader needs to make room; every send ends by a deadline
    (:meth:`post`).  A request message charges the pipe its bytes plus
    :data:`_MESSAGE_OVERHEAD` until its answer is read (``pipe.charged``),
    which bounds what can sit unread in the pipe.
    """

    def __init__(self, slot: int, gen: int, fleet: FleetState, proc, sock,
                 frames: FrameReader):
        self.slot, self.gen, self.fleet = slot, gen, fleet
        self.proc = proc
        self.pid = proc.pid  # kept: a closed Process forgets its pid
        self.sock = sock
        self.frames = frames
        self.lock = threading.Lock()
        self.send_lock = threading.Lock()
        self.pipe = PipeState()
        self.answered = 0
        self.read_by_caller = 0
        self.receiver: Optional[threading.Thread] = None
        # The receiver's wake-up: a byte on a non-blocking pipe, polled
        # beside the worker pipe's hang-up (an fd: one poll waits on both).
        self._wake_r, self._wake_w = os.pipe()
        os.set_blocking(self._wake_r, False)
        os.set_blocking(self._wake_w, False)
        self._parker = select.poll()
        self._parker.register(sock.fileno(), 0)  # hang-up/error only
        self._parker.register(self._wake_r, select.POLLIN)
        self._poller = select.poll()
        self._poller.register(sock.fileno(), select.POLLIN)
        self._writable = select.poll()
        self._writable.register(sock.fileno(), select.POLLOUT)

    @property
    def attached_epoch(self) -> int:
        """The epoch this worker confirmed attaching, as the fleet holds
        it; 0 once its slot has moved on to another pipe."""
        seat = self.fleet.slots[self.slot]
        return seat.attached if seat.gen == self.gen else 0

    def do(self, transition, *args):
        """Run one of ``pipe``'s transitions under ``lock``, acting there
        on what it returns (:meth:`act`); returns that.  The read path
        inlines it."""
        with self.lock:
            done = transition(*args)
            if done:
                self.act(done if type(done) is int else done[0])
        return done

    def act(self, flags: int) -> None:
        """Write the wake-up byte a transition asks for, or close the
        pipe and the wake-up once nobody is inside; under ``lock``, so
        no byte goes to a closed wake-up."""
        if flags & ROUSE:
            try:
                os.write(self._wake_w, b"\0")
            except BlockingIOError:
                pass  # already roused many times over
        if flags & CLOSE:
            self.sock.close()
            os.close(self._wake_r)
            os.close(self._wake_w)

    def post(self, data: bytes, until: float, rid=None, sink=None,
             charge: int = 0) -> bool:
        """Send one frame by ``until``; the caller holds ``send_lock``.
        With ``rid`` it is a request message whose ``sink`` and
        ``charge`` join the books before the bytes leave, so its answer
        can never arrive first; without, a control message owed a reply.
        False, the sink is the caller's to settle: the pipe refused the
        frame, or it was not sent whole by ``until``, and no frame can
        follow a half frame, so the worker is killed.  A send that fails
        is the hang-up, and the reader of its EOF fails the sink."""
        lock, pipe = self.lock, self.pipe
        with lock:
            if not pipe.send_begin(rid, sink, charge):
                return False
        try:
            sent = self._send_by(data, until)
            late = not sent
        except OSError:
            sent = late = False
        if late:
            self.reclaim((rid,))
            with suppress(ValueError):  # closed: reaped already
                self.proc.kill()  # its Process signals no reaped pid
        with lock:
            flags = pipe.send_end(sent)
            if flags:
                self.act(flags)
        return not late

    def _send_by(self, data: bytes, until: float) -> bool:
        """Whether ``data`` went out whole by ``until``, polling for room."""
        view = data  # a memoryview once a send falls short: no copies
        while True:
            try:
                sent = self.sock.send(view, socket.MSG_DONTWAIT)
            except BlockingIOError:
                sent = 0
            if sent == len(view):
                return True
            view = memoryview(view)[sent:]
            wait = until - time.monotonic()
            if wait <= 0 or not self._writable.poll(wait * 1e3):
                return False

    def send(self, message, wait: float) -> bool:
        """Send a control message, with ``wait`` seconds for room, and
        rouse the receiver to read its reply; False when refused."""
        data = pickled(CONTROL, 0, message)
        with self.send_lock:
            sent = self.post(data, time.monotonic() + wait)
        self.do(self.pipe.rouse)
        return sent

    def reclaim(self, rids) -> list:
        """The sinks of ``rids`` still pending, now the caller's to
        complete."""
        with self.lock:
            return self.pipe.reclaim(rids)

    def forwards(self) -> dict:
        """The direct forwards not yet answered, by rid (the books also hold
        ``map_query``'s chunks)."""
        with self.lock:
            return {rid: sink for rid, sink in self.pipe.sinks().items()
                    if type(sink) is Request}

    def inflight(self) -> int:
        """The calls sent and not yet answered; a chunk counts each."""
        with self.lock:
            return sum(1 if type(sink) is Request else len(sink.indices)
                       for sink in self.pipe.sinks().values())

    def sleep(self) -> bool:
        """Block the receiver until roused or until the pipe hangs up
        (never on an answer arriving); True on hang-up, which is then no
        longer watched: it stays."""
        hung_up = False
        for fd, _mask in self._parker.poll():
            if fd == self._wake_r:
                try:
                    os.read(self._wake_r, 4096)
                except BlockingIOError:
                    pass
            else:
                self._parker.unregister(fd)
                hung_up = True
        return hung_up

    def readable(self, wait: float) -> bool:
        """Whether a frame (or EOF) is readable within ``wait`` seconds;
        for the holder of the read role.  A frame already whole in the
        reader's buffer is readable at once: the socket may hold nothing
        more to wake a ``poll``."""
        return self.frames.ready() or bool(self._poller.poll(wait * 1000.0))

    def running(self) -> bool:
        """Whether the worker serves as far as can be seen now: its pipe
        has not hung up, failed a send or reached EOF, and its process
        has not exited."""
        return self.pipe.running and self.proc.is_alive()


class _Forward(Future):
    """The future :meth:`ShardServer.submit` returns.

    A read the pool or the cache answers leaves it a plain
    :class:`~concurrent.futures.Future`.  Once the direct path sends the
    read on a worker's pipe (``_route``), :meth:`result` and
    :meth:`exception` first try to take the pipe's read role without
    blocking; a caller that gets it reads the pipe itself, finishing
    every answer it reads, until this future is done or the wait's
    timeout, the read's deadline or ``SHARD_RPC_TIMEOUT_S`` passes, and
    then gives the role back.  A caller that finds the role taken waits
    as on any future.

    Its ``Condition`` is built only when a thread is to wait on it or
    to be told of the outcome (``add_done_callback`` — the asyncio door
    —, ``concurrent.futures.wait`` / ``as_completed``, ``done()``, a
    caller that found the read role taken, a cancel): every state change
    takes the plain lock the ``Condition`` is built over, and notifies
    only once it exists.  A caller that reads its own answer never
    builds one.  Building it on a forward still owed rouses the pipe's
    ``shard-rx`` receiver: whoever builds it may never lead.
    """

    _route = None  # (server, handle, rid, until) once sent direct

    def __init__(self):
        self._mutex = threading.Lock()
        self._state = PENDING
        self._result = None
        self._exception = None
        self._waiters = []
        self._done_callbacks = []

    @property
    def _condition(self):
        cond = self.__dict__.get("_cond")
        if cond is None:
            cond = self.__dict__.setdefault(
                "_cond", threading.Condition(self._mutex))
            route = self._route
            if route is not None and self._state == PENDING:
                handle = route[1]
                handle.do(handle.pipe.rouse)
        return cond

    def set_running_or_notify_cancel(self):
        with self._mutex:
            if self._state == PENDING:
                self._state = RUNNING
                return True
        return super().set_running_or_notify_cancel()

    def set_result(self, result):
        if not self._settle("_result", result, "add_result"):
            super().set_result(result)  # raises InvalidStateError

    def set_exception(self, exception):
        if not self._settle("_exception", exception, "add_exception"):
            super().set_exception(exception)  # raises InvalidStateError

    def _settle(self, slot: str, outcome, tell: str) -> bool:
        """Finish with ``outcome``, telling the waiters and the
        callbacks; False when the future was already done."""
        with self._mutex:
            if self._state not in (PENDING, RUNNING):
                return False
            setattr(self, slot, outcome)
            self._state = FINISHED
            cond = self.__dict__.get("_cond")
            if cond is not None:  # no waiter exists without it
                for waiter in self._waiters:
                    getattr(waiter, tell)(self)
                cond.notify_all()
        if self._done_callbacks:
            self._invoke_callbacks()
        return True

    def result(self, timeout: Optional[float] = None):
        if self._route is not None and self._state == PENDING:
            timeout = self._lead(timeout)
        if self._state == FINISHED and self._exception is None:
            return self._result  # no condition to wait on
        return super().result(timeout)

    def exception(self, timeout: Optional[float] = None):
        if self._route is not None and self._state == PENDING:
            timeout = self._lead(timeout)
        if self._state == FINISHED:
            return self._exception
        return super().exception(timeout)

    def _lead(self, timeout: Optional[float]) -> Optional[float]:
        """Read the pipe while the read role is free, until this future
        is done, the bound passes or the pipe reaches EOF; returns what
        is left of ``timeout``."""
        server, handle, rid, until = self._route
        lock, pipe = handle.lock, handle.pipe
        with lock:
            took = pipe.take(CALLER)
        if not took:
            return timeout
        end = None if timeout is None else time.monotonic() + timeout
        if end is not None and end < until:
            until = end
        try:
            while self._state == PENDING:
                wait = until - time.monotonic()
                if (wait <= 0 or not handle.readable(wait)
                        or not server._read_one(handle, rid)):
                    break
        finally:
            with lock:
                flags = pipe.give_back()
                if flags:
                    handle.act(flags)
        return None if end is None else max(0.0, end - time.monotonic())


class ShardServer(QCServer):
    """A :class:`~repro.serving.server.QCServer` whose reads execute in
    forked worker processes over one shared-memory packed snapshot.

    >>> server = ShardServer(warehouse, processes=4)
    >>> server.point(("S2", "*", "f"))      # same surface as QCServer
    9.0
    >>> server.map_query("point", [(cell,) for cell in cells])  # bulk
    [...]
    >>> server.close()                      # no threads, procs, or
    ...                                     # /dev/shm segments left

    ``processes`` sets the worker-process fleet; ``workers`` (the
    inherited thread pool) defaults to ``processes``.  The inherited
    :meth:`~repro.serving.server.QCServer.submit` admits every read; a
    snapshot op is answered *direct* — one frame on a worker's pipe sent
    by the calling thread, its answer read by the thread waiting on its
    future (:class:`_Forward`) or by the pipe's ``shard-rx`` receiver —
    or *local*, by the pool from the parent's own snapshot (counted in
    ``shard_local_fallbacks``; see :meth:`_dispatch`).  The rest is
    inherited, plus the fault sites ``shard:publish`` and
    ``shard:attach``.
    """

    #: Seconds a direct forward that carries no deadline may wait for
    #: its worker's answer before the supervisor's scan fails it with
    #: ``DeadlineExceededError``; one with a deadline fails at the
    #: earlier of the two (worker death is detected far sooner via pipe
    #: EOF; this bounds a wedged-but-alive worker).  With
    #: ``supervised=False`` there is no scan, and only the worker checks
    #: a deadline.  Also ``map_query``'s default timeout.
    SHARD_RPC_TIMEOUT_S = 30.0
    #: Pipe charge (``PipeState.charged``, bytes) under which a
    #: direct send must keep its worker's pipe — far below the 208 KiB
    #: socket buffer, so a ``submit()`` on an event-loop thread never
    #: blocks on a send.
    DIRECT_SEND_BUDGET = 64 * 1024
    #: Seconds a direct send waits for another thread to finish with
    #: the same pipe.  A holder is mid-send and needs the GIL back (one
    #: default switch interval).  With 1–8 submitters beside a
    #: ``map_query`` stream, waiting this long left ≤ 0.8 % of submits
    #: to the parent (measured on a 2-vCPU x86-64 VM); not waiting
    #: left 20–58 %.
    DIRECT_SEND_WAIT_S = 0.005
    #: Bounded wait for workers to ack an epoch swap; laggards are
    #: repaired by the supervisor, readers are never blocked on them.
    PUBLISH_ACK_TIMEOUT_S = 5.0
    #: Seconds to wait for a freshly spawned worker's ready handshake.
    SPAWN_TIMEOUT_S = 60.0

    _future_class = _Forward

    def __init__(self, warehouse, processes: int = 2, workers=None, **kwargs):
        if processes < 1:
            raise ValueError(f"need at least one process, got {processes}")
        self._nprocs = processes
        self._rr = count()  # round-robin over the routable workers
        self._ctx = _mp_context()
        self._shard_lock = threading.Lock()  # held by FleetState's transitions
        self._rid = count(1)

        # Pack and publish epoch 1 and fork the fleet *before*
        # super().__init__ spawns any thread: forking a single-threaded
        # parent is safe on every Python.
        snapshot = self._servable_snapshot(warehouse)
        payload = pack_snapshot_bytes(
            snapshot.tree, snapshot.table, stamp=snapshot.stamp
        )
        self._snapshot_bytes = len(payload)
        shm = create_segment(payload)
        self._fleet = FleetState(processes, (shm.name, snapshot.stamp[0]))
        try:
            for _spawn, *spawn in self._fleet.scan()[0]:  # one thread yet
                _, self._routable = self._fleet.respawned(
                    *spawn[:2], self._spawn_process(*spawn))
            super().__init__(warehouse, workers=workers or processes,
                             **kwargs)
            # The snapshot epoch 1 packed; the one a read pins, with the
            # epoch its table's codes are valid on (see _dispatch).
            self._snapshot = snapshot
            self._pinned = (snapshot, 1)
        except BaseException:
            self._shutdown_processes()
            raise

        # Receivers start only now: every fork already happened.
        for handle in self._handles:
            self._start_receiver(handle)

    @property
    def _handles(self) -> list:
        """Each slot's current pipe (a :class:`_ProcHandle`)."""
        return [seat.pipe for seat in self._fleet.slots]

    @property
    def _tickets(self) -> dict:
        """The slots the last publish still waits for a reply from, by
        its epoch; empty once every one replied or died."""
        return {self._fleet.epoch: self._fleet.awaited} \
            if self._fleet.awaited else {}

    # -- snapshot packing ----------------------------------------------------

    @classmethod
    def _servable_snapshot(cls, warehouse):
        snapshot = super()._servable_snapshot(warehouse)
        # Refused on what the store can become, not on today's count: a
        # segmented head that has not sealed yet is one piece until its
        # first seal, which would fail every later publish.
        if (len(snapshot.pieces) != 1
                or warehouse.segment_health() is not None):
            raise ServingError(
                "ShardServer packs one monolithic (tree, table) piece per "
                "epoch; a store of several pieces is served by the "
                "thread-based QCServer"
            )
        return snapshot

    # -- process fleet -------------------------------------------------------

    def _spawn_process(self, slot: int, gen: int, epoch: int,
                       segment: tuple) -> _ProcHandle:
        """Fork the ``gen``-th worker of ``slot``, attached to ``epoch``'s
        ``segment`` (name, lsn), and complete its ready handshake:
        single-threaded from ``__init__``, or from the supervisor on
        respawn (where newer Pythons' fork-with-threads
        DeprecationWarning is harmless: the child runs only imported
        code).  The child never touches an asyncio door's ``*-loop``
        thread's sockets, but forking under one warns, so that transports
        start after the fleet, as ``serve --async`` does."""
        loop_threads = [
            t.name for t in threading.enumerate()
            if t.is_alive() and t.name.endswith("-loop")
        ]
        if loop_threads:
            warnings.warn(
                f"forking shard worker {slot} while async transport "
                f"loop thread(s) {loop_threads} are running; the child "
                f"does not inherit the listener, but prefer starting "
                f"transports after the process fleet",
                RuntimeWarning,
                stacklevel=2,
            )
        parent_sock, child_sock = socket.socketpair()
        name, lsn = segment
        # The parent-side pipe ends a forked child inherits: its own and
        # every other worker's.  The child closes them first thing —
        # while any copy is open its reads never see EOF, and the fleet
        # outlives a killed parent as orphans.
        inherited = [parent_sock] + [h.sock for h in self._handles
                                     if h is not None and not h.pipe.closed]
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DeprecationWarning)
                proc = self._ctx.Process(
                    target=worker_main,
                    args=(child_sock, name, lsn, epoch, inherited),
                    name=f"{getattr(self, 'name', 'shard')}-proc-{slot}",
                    daemon=True,
                )
                proc.start()
        except BaseException:
            parent_sock.close()
            raise
        finally:
            child_sock.close()
        frames = FrameReader(parent_sock)
        ready = None
        if select.select([parent_sock], [], [], self.SPAWN_TIMEOUT_S)[0]:
            got = frames.read()
            if got is not None and got[0] == CONTROL:
                ready = frames.message(got[2], got[3])
        if ready is None or ready[0] != "ready":
            self._reap(proc, 0)
            parent_sock.close()
            raise ServingError(
                f"shard worker {slot} did not come up within "
                f"{self.SPAWN_TIMEOUT_S}s"
            )
        return _ProcHandle(slot, gen, self._fleet, proc, parent_sock, frames)

    def _start_receiver(self, handle: _ProcHandle) -> None:
        handle.do(handle.pipe.start)
        thread = threading.Thread(
            target=self._receiver_loop,
            args=(handle,),
            name=f"{self.name}-shard-rx-{handle.slot}",
            daemon=False,
        )
        handle.receiver = thread
        thread.start()

    def _receiver_loop(self, handle: _ProcHandle) -> None:
        """The ``shard-rx`` thread of one worker: asleep until roused or
        until the pipe hangs up; awake, it reads while replies are owed
        and nobody leads (to EOF after a hang-up), and it ends at EOF or
        when the pipe retires."""
        pipe = handle.pipe
        hung_up = False
        while True:
            flags = handle.do(pipe.park, hung_up)
            if flags & LEAVE:
                return
            hung_up = False
            if not flags & READ:
                hung_up = handle.sleep()
                continue
            try:
                while pipe.owes() and self._read_one(handle):
                    pass
            finally:
                handle.do(pipe.give_back)

    def _read_one(self, handle: _ProcHandle, rid=None) -> bool:
        """Read one frame off ``handle``'s pipe and act on it — the one
        dispatch of whoever holds the read role: the receiver, or a
        caller leading on its forward ``rid`` (counted in
        ``read_by_caller`` when this frame answers it).  An answer
        completes its sink (a refused one is answered here, from the
        snapshot its codes came from); ``pub_ok`` / ``pub_err`` move the
        worker's epoch in the fleet; EOF — also in the
        middle of a frame — buries the worker (:meth:`_bury`).  False at
        EOF."""
        frames = handle.frames
        try:
            got = frames.read()
        except OSError:
            got = None
        if got is None:
            _flags, sinks, crashed = handle.do(handle.pipe.read_eof)
            self._bury(handle, sinks, crashed, WorkerCrashedError(
                f"shard worker process {handle.slot} died before "
                "answering; the read never ran and is safe to retry"
            ))
            return False
        kind, r, start, end = got
        if kind == CONTROL:
            self._control(handle, frames.message(start, end))
            return True
        with handle.lock:
            sink = handle.pipe.answer(r)
        if sink is None:
            # Failed or given up on (RPC timeout, map_query timeout):
            # its answer is dropped.
            return True
        handle.answered += 1 if type(sink) is Request else len(sink.indices)
        if r == rid:
            handle.read_by_caller += 1
        if kind == VALUE:
            status, value = VALUE_BODY.unpack_from(frames.buf, start)
            sink.complete(True, value if status == FLOAT else None)
        elif kind == ANSWER:
            sink.complete(*frames.message(start, end))
        else:
            self._answer_refused(sink)
        return True

    def _bury(self, handle: _ProcHandle, sinks, crashed: bool, exc) -> None:
        """A worker is gone (its EOF read, or its pipe retired): take it
        out of the fleet, count the crash once (not at shutdown) and fail
        ``sinks``, the reads still pending on its pipe."""
        with self._shard_lock:
            actions, self._routable = self._fleet.died(handle.slot,
                                                       handle.gen)
            crashed = crashed and not self._fleet.stopping
        if crashed:
            self._metrics.counter("shard_process_crashes").inc()
        self._act(actions)
        for sink in sinks:
            sink.complete(False, exc)

    def _control(self, handle: _ProcHandle, message) -> None:
        """Act on a worker's ``pub_ok`` / ``pub_err``: a ``pub_err``
        worker keeps serving its last-good epoch, and the supervisor
        re-announces until it converges."""
        kind, epoch = message[:2]
        handle.do(handle.pipe.control_paid)
        if kind == "pub_ok":
            self._step(self._fleet.ack, handle.slot, handle.gen, epoch)
        else:
            self._metrics.counter("shard_attach_failures").inc()
            self._step(self._fleet.nack, handle.slot, handle.gen)

    def _answer_refused(self, sink) -> None:
        """Answer a read whose codes its worker refused — they were of
        another epoch's table, the window of a publish — from the
        snapshot that encoded them, as a local answer."""
        self._metrics.counter("shard_local_fallbacks").inc()
        fn = SNAPSHOT_OP_TABLE["point"]
        if type(sink) is not Request:
            sink.batch.put(sink.indices,
                           *_answer_calls(fn, sink.snapshot, sink.calls))
            return
        try:
            value = fn(sink.snapshot, *sink.args)
        except Exception as exc:
            sink.complete(False, exc)
            return
        sink.complete(True, value)

    # -- the fleet ------------------------------------------------------------

    def _step(self, transition, *args) -> None:
        """Run one :class:`~repro.shard.fleet.FleetState` transition
        under ``_shard_lock``, which also swaps in the routable tuple it
        returns (reads take it without a lock), then perform its actions
        outside the lock."""
        with self._shard_lock:
            actions, self._routable = transition(*args)
        self._act(actions)

    def _act(self, actions, inject=None) -> None:
        """Perform a transition's actions: the RETIREs first, together
        (:meth:`_stop_workers`), then the rest in order.  ``inject`` rides
        a publish's own announces (``shard:attach``).  Only the publisher
        and the supervisor get announces or spawns: a reader never sends
        on a pipe, whose sender may be waiting for it to read."""
        self._stop_workers([action[1] for action in actions
                            if action[0] == RETIRE])
        for kind, *args in actions:
            if kind == ANNOUNCE:
                handle, epoch, (name, lsn), again = args
                # A refused announce needs nothing: the pipe is down, and
                # its worker's burial clears what the slot owes.
                if handle.send(("publish", lsn, epoch, name,
                                None if again else inject),
                               self.PUBLISH_ACK_TIMEOUT_S) and again:
                    self._metrics.counter("shard_reannounces").inc()
            elif kind == UNLINK:
                unlink_segment(args[0][0])
            elif kind == WAKE:
                args[0].set()
            elif kind == SPAWN:
                self._respawn(*args)

    def _respawn(self, slot: int, gen: int, epoch: int, segment) -> None:
        """Replace the dead worker of ``slot`` — whose EOF was read, so
        what its pipe held was answered or failed: join the old pipe's
        receiver, retire the pipe, reap the process; then fork the
        ``gen``-th worker on ``segment``."""
        old = self._handles[slot]
        self._join_receiver(old, 1.0)
        self._retire(old, WorkerCrashedError(
            f"shard worker process {slot} died; retry"))
        self._reap(old.proc, 1.0)  # it closed its end: it is exiting
        try:
            fresh = self._spawn_process(slot, gen, epoch, segment)
        except Exception:
            fresh = None  # fork failed; the next scan retries
        else:
            self._start_receiver(fresh)
            self._metrics.counter("shard_process_restarts").inc()
        self._step(self._fleet.respawned, slot, gen, fresh)

    # -- read path: forward to the fleet -------------------------------------

    def _pick(self) -> Optional[_ProcHandle]:
        """The next routable worker in turn; None without one."""
        live = self._routable
        return live[next(self._rr) % len(live)] if live else None

    def _dispatch(self, request: Request) -> bool:
        """Send an admitted snapshot op on a worker's pipe from this
        thread (*direct*), else hand it to the inherited pool, which
        answers it from the parent's own snapshot.  It stands aside (the
        table in DESIGN §10 says why) for an op outside
        :data:`~repro.serving.server.SNAPSHOT_OP_TABLE` or overridden by
        :meth:`register_op`, a closed server, no routable worker, an
        armed ``op:<name>`` fault site, a ``send_lock`` busy for
        :data:`DIRECT_SEND_WAIT_S`, or a message that does not fit
        :data:`DIRECT_SEND_BUDGET` (an unpicklable one fits nothing) —
        so this call never waits on a pipe.  The last four count a local
        answer in ``shard_local_fallbacks``.  The direct path sheds at
        ``queue_size`` reads in flight, carries the deadline to the
        worker and is bounded by the supervisor's scan
        (:meth:`_fail_overdue`).
        """
        op, args, kwargs = request.op, request.args, request.kwargs
        fn = SNAPSHOT_OP_TABLE.get(op)
        if fn is None or self._ops.get(op) is not fn or self._closed:
            return super()._dispatch(request)
        # Pin before routing: a worker routable now serves this snapshot
        # or a later one, never an earlier one the cache would store.  A
        # point's codes are this snapshot's table's, valid on ``epoch``
        # only: a worker on another epoch refuses them.
        snapshot, epoch = self._pinned
        request.snapshot = snapshot
        faults = self._faults
        handle = (None if faults is not None and faults.armed(f"op:{op}")
                  else self._pick())
        if handle is not None and handle.send_lock.acquire(
                True, self.DIRECT_SEND_WAIT_S):
            try:
                rid = next(self._rid)
                deadline = request.deadline
                codes = (point_codes(args[0], snapshot.table._encoders)
                         if op == "point" and len(args) == 1 and not kwargs
                         else None)
                if codes is not None:
                    data = point_frame(rid, epoch, deadline, codes)
                else:
                    try:
                        data = pickled(REQUEST, rid,
                                       (op, args, kwargs, deadline))
                    except Exception:
                        data = None  # unsendable: answered locally
                # Only this thread (holding send_lock) can raise the
                # charge; a reader only lowers it, so a stale read errs
                # safe.
                charge = 0 if data is None else len(data) + _MESSAGE_OVERHEAD
                if data is not None and (handle.pipe.charged + charge
                                         <= self.DIRECT_SEND_BUDGET):
                    with self._inflight_lock:
                        if self._inflight >= self._queue.maxsize:
                            return False
                        self._inflight += 1
                    request.pipe = handle
                    value = self._lookup(request)
                    if value is not MISS:
                        request.complete(True, value)
                        return True
                    until = request.started + self.SHARD_RPC_TIMEOUT_S
                    if deadline is not None and deadline < until:
                        until = deadline
                    request.future._route = (self, handle, rid, until)
                    if not handle.post(data, until, rid, request, charge):
                        request.complete(False, WorkerCrashedError(
                            f"shard worker {handle.slot} is down; the read "
                            "never ran and is safe to retry"
                        ))
                    return True
            finally:
                handle.send_lock.release()
        admitted = super()._dispatch(request)
        if admitted:
            self._metrics.counter("shard_local_fallbacks").inc()
        return admitted

    # -- bulk path -----------------------------------------------------------

    def map_query(self, op: str, calls, timeout: Optional[float] = None):
        """Answer many calls of one snapshot op as scattered chunks.

        ``calls`` is a sequence of positional-argument tuples, e.g.
        ``[(cell,), (cell2,)]`` for ``point``.  The batch is sharded
        across the routable fleet in even contiguous shares, each
        worker answers its whole chunk — one request — in one message
        round-trip, and the results come back in input order.  This
        amortizes the per-request pipe+future overhead that bounds
        ``submit`` — it is the path that scales with cores — while
        keeping the admission ledger balanced (each element counts as
        submitted and completed/errored; past ``timeout``, sends included,
        the ones not answered count as timeouts, their late answers are
        dropped).  The first failed element's error re-raises at the end.
        """
        if self._closed:
            raise ServerClosedError("server is closed")
        fn = SNAPSHOT_OP_TABLE.get(op)
        if fn is None:
            raise QueryError(
                f"map_query serves snapshot ops {sorted(SNAPSHOT_OP_TABLE)}; "
                f"got {op!r}"
            )
        calls = [tuple(args) for args in calls]
        metrics = self._metrics
        metrics.counter("submitted").inc(len(calls))
        snapshot, epoch = self._pinned
        live = self._routable
        start = time.monotonic()
        limit = self.SHARD_RPC_TIMEOUT_S if timeout is None else timeout
        end = start + limit  # bounds the lock waits, the sends, the wait
        batch = _Batch(len(calls))
        chunks = []
        if not live:
            # No worker on the current epoch: this thread answers from
            # the parent's own snapshot, into the batch the fleet fills.
            metrics.counter("shard_local_fallbacks").inc()
            batch.put(range(len(calls)),
                      *_answer_calls(fn, self._snapshot, calls))
        elif calls:
            chunks = [(handle, next(self._rid), _Chunk(batch, indices))
                      for handle, indices in self._place(len(calls), live)]
        for handle, rid, sink in chunks:
            share = [calls[i] for i in sink.indices]
            codes = chunk_codes(share, snapshot.table) if op == "point" \
                else None
            if codes is None:
                data = pickled(CHUNK, rid, (op, share))
            else:
                sink.calls, sink.snapshot = share, snapshot
                data = frame(CODES, rid, EPOCH.pack(epoch) + codes.tobytes())
            left = end - time.monotonic()
            if left <= 0 or not handle.send_lock.acquire(True, left):
                break  # sent nothing: the calls not sent count as timeouts
            try:
                sent = handle.post(data, end, rid, sink,
                                   len(data) + _MESSAGE_OVERHEAD)
            finally:
                handle.send_lock.release()
            # This thread waits on the batch, not on the pipe.
            handle.do(handle.pipe.rouse)
            if not sent and time.monotonic() < end:  # refused: it is down
                sink.complete(False, WorkerCrashedError(
                    f"shard worker {handle.slot} died mid-batch; retry"
                ))
        answered = batch.event.wait(max(0.0, end - time.monotonic()))
        if not answered:
            # Give up on what is not answered: off the books (a late
            # answer is dropped), and counted below as timeouts.
            for handle, rid, _sink in chunks:
                handle.reclaim((rid,))
        n_answered = batch.close()
        n_err = len(batch.failed)
        metrics.counter("completed").inc(n_answered - n_err)
        metrics.counter("errors").inc(n_err)
        metrics.counter("timeouts").inc(len(calls) - n_answered)
        # A batch's wall time is no one call's service time.
        metrics.observe(f"map_query:{op}", time.monotonic() - start)
        if not answered:
            raise DeadlineExceededError(
                f"bulk {op!r} over {len(calls)} calls did not complete "
                f"within {limit}s"
            )
        if batch.failed:
            raise batch.failed[min(batch.failed)]
        return batch.results

    @staticmethod
    def _place(n_calls: int, live: tuple) -> list:
        """``[(handle, indices)]``: the calls cut into ``len(live)``
        contiguous shares in worker order, whose sizes differ by at most
        one; an empty share is not sent."""
        cuts = [n_calls * k // len(live) for k in range(len(live) + 1)]
        return [(handle, range(lo, hi))
                for handle, lo, hi in zip(live, cuts, cuts[1:]) if hi > lo]

    # -- publish protocol ----------------------------------------------------

    def _publish(self) -> None:
        """Pack → announce → swap → bounded wait for the attach replies.

        Readers keep the previous epoch throughout; from the swap on,
        requests route only to workers that confirmed the new epoch
        (parent fallback covers the gap), so a publish is never a
        correctness event.  Failures before the swap leave the old epoch
        fully published (the inherited write pipeline retries /
        degrades); failures of individual workers leave *them* on their
        last-good epoch, repaired by the supervisor.  The wait is for the
        workers this publish announced to, and a segment is unlinked by
        whichever transition unpins it.
        """
        snapshot = self._servable_snapshot(self.warehouse)
        t0 = time.monotonic()
        payload = pack_snapshot_bytes(
            snapshot.tree, snapshot.table, stamp=snapshot.stamp
        )
        self._metrics.observe("shard:pack", time.monotonic() - t0)
        # The "crash between pack and announce" site: nothing is
        # published yet, no segment exists — the inherited publish-phase
        # retry / degraded-mode machinery owns what happens next.
        self._fire("shard:publish")
        shm = create_segment(payload)
        inject = self._attach_inject()
        replied = threading.Event()
        with self._shard_lock:
            actions, self._routable = self._fleet.publish(
                (shm.name, snapshot.stamp[0]), replied)
            # Reads pin the new snapshot from here on: no worker is
            # routable until it has attached the epoch its codes are for.
            self._pinned = (snapshot, self._fleet.epoch)
            self._snapshot_bytes = len(payload)
        self._act(actions, inject)
        self._snapshot = snapshot  # atomic reference swap, as inherited
        self._metrics.counter("snapshot_swaps").inc()
        self._metrics.counter("shard_publishes").inc()
        wait_start = time.monotonic()
        replied.wait(self.PUBLISH_ACK_TIMEOUT_S)
        self._metrics.observe(
            "shard:publish_detach_wait", time.monotonic() - wait_start
        )

    def _attach_inject(self):
        """Consume an armed ``shard:attach`` fault into a wire flag the
        workers honor (the failure must happen *in* the worker so the
        keep-last-good path is what's exercised)."""
        try:
            self._fire("shard:attach")
        except BaseException:
            return "attach"
        return None

    # -- supervision (piggybacked on the inherited supervisor thread) --------

    def _supervise_extra(self) -> None:
        """Respawn dead workers and re-announce to lagging ones (the
        fleet's :meth:`~repro.shard.fleet.FleetState.scan`), rouse the
        receiver of a pipe owed replies nobody reads, and fail overdue
        forwards."""
        self._step(self._fleet.scan)
        now = time.monotonic()
        for handle in self._handles:
            # Replies owed and nobody reading since the last scan (a
            # forward nobody waits on): the receiver reads them.
            handle.do(handle.pipe.scan)
            if self._inflight:  # else only map_query's chunks are owed
                self._fail_overdue(handle, now)

    def _fail_overdue(self, handle: _ProcHandle, now: float) -> None:
        """Fail the forwards ``handle``'s worker has not answered past
        their deadline or ``SHARD_RPC_TIMEOUT_S``, whichever is earlier
        — a wedged-but-alive worker holds no thread of ours, so this
        scan is what bounds its callers' wait.  A late answer finds no
        sink and is dropped.  (A ``map_query`` batch keeps its own
        ``timeout``.)"""
        limit = self.SHARD_RPC_TIMEOUT_S
        overdue = [
            rid for rid, request in handle.forwards().items()
            if now - request.started > limit or (
                request.deadline is not None and now > request.deadline)
        ]
        for request in handle.reclaim(overdue):
            request.complete(False, DeadlineExceededError(
                f"shard worker {handle.slot} did not answer "
                f"{request.op!r} by its deadline or within {limit}s"
            ))

    def _held_reads(self) -> list:
        return super()._held_reads() + [
            list(handle.forwards().values()) for handle in self._handles
        ]

    # -- health --------------------------------------------------------------

    def shard_health(self) -> dict:
        """The ``shard`` block of ``stats()``/``health``: fleet
        liveness, per-worker attached epochs, restart/crash/fallback
        counters, snapshot footprint, and the publish detach-wait
        histogram.  See the README metrics glossary."""
        with self._shard_lock:
            seats = [(seat.pipe, seat.attached) for seat in self._fleet.slots]
            epoch = self._fleet.epoch
            segments = len(self._fleet.segments)
        running = [h.running() for h, _attached in seats]
        counters = self._metrics
        return {
            "processes_configured": self._nprocs,
            "processes_alive": sum(running),
            **{name: counters.counter(f"shard_{name}").value for name in (
                "process_restarts", "process_crashes", "attach_failures",
                "local_fallbacks", "reannounces", "receiver_join_timeouts",
                "publishes")},
            "current_epoch": epoch,
            "workers": [
                {
                    "slot": h.slot,
                    "pid": h.pid,
                    "alive": up,
                    "attached_epoch": attached,
                    "answered": h.answered,
                    "read_by_caller": h.read_by_caller,
                    "inflight": h.inflight(),
                }
                for (h, attached), up in zip(seats, running)
            ],
            "snapshot_bytes": self._snapshot_bytes,
            "segments": segments,
            "publish_detach_wait_us": counters.histogram(
                "shard:publish_detach_wait").snapshot(),
        }

    # -- lifecycle -----------------------------------------------------------

    def _shutdown_processes(self) -> None:
        """Stop the fleet (idempotent): every worker, every segment."""
        self._step(self._fleet.stop)

    def _stop_workers(self, handles) -> None:
        """Stop ``handles``' workers and retire their pipes (what is
        pending on them fails with ``ServerClosedError``).  Each worker
        is told EOF by a shutdown of the pipe's write side, which waits
        on no worker, and is given 5 s in all to exit (:meth:`_reap`)."""
        for handle in handles:
            with handle.lock:  # never a closed pipe: its number is reused
                if not handle.pipe.closed:
                    handle.sock.shutdown(socket.SHUT_WR)
        deadline = time.monotonic() + 5.0
        for handle in handles:
            self._retire(handle, ServerClosedError(
                "server shut down before request ran"))
            self._reap(handle.proc, max(0.0, deadline - time.monotonic()))
        for handle in handles:
            self._join_receiver(handle, 5.0)

    @staticmethod
    def _reap(proc, timeout: float) -> None:
        """Join ``proc``; still alive after ``timeout``, kill it and join
        it 2 s; then release its bookkeeping, if it is gone by then."""
        try:
            proc.join(timeout)
            proc.kill()  # signals nothing once it is joined
            proc.join(2.0)
            proc.close()
        except ValueError:
            pass  # released already, or still alive: it keeps them

    def _retire(self, handle: _ProcHandle, exc) -> None:
        """Retire a worker's pipe: what is still pending on it fails with
        ``exc``, its receiver leaves, and the pipe closes as the last
        thread inside it leaves — at once when nobody is.  Closing under
        a reader would not wake its read, and under a sender the
        descriptor number could go to a new pipe mid-send.  Idempotent."""
        _flags, sinks, crashed = handle.do(handle.pipe.retire)
        self._bury(handle, sinks, crashed, exc)

    def _join_receiver(self, handle: _ProcHandle, timeout: float) -> None:
        """Wait for ``handle``'s receiver to end; one that does not in
        ``timeout`` is counted (``shard_health()[
        "receiver_join_timeouts"]``), not silent."""
        receiver = handle.receiver
        if receiver is not None:
            receiver.join(timeout)
            if receiver.is_alive():
                self._metrics.counter("shard_receiver_join_timeouts").inc()

    def close(self, timeout: Optional[float] = None) -> None:
        """Shut down the fleet, the inherited thread pool, and unlink
        every shared segment.  Idempotent; afterwards no server thread,
        worker process, or ``/dev/shm/qctree-*`` segment remains — the
        shared-memory analogue of the no-leaked-threads guarantee.  The
        fleet stops first: a respawn the supervisor is in the middle of
        ends by retiring its fresh worker, and a publish after it
        unlinks its own segment."""
        self._shutdown_processes()
        super().close(timeout)

    def __repr__(self):
        alive = sum(h.running() for h in self._handles)
        return (
            f"ShardServer(processes={alive}/{self._nprocs}, "
            f"epoch={self._fleet.epoch}, closed={self._closed})"
        )
