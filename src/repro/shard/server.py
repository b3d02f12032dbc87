"""``ShardServer`` — multi-process serving over shared-memory snapshots.

The thread-based :class:`~repro.serving.server.QCServer` is capped at
one core for pure-CPU traffic: every reader thread shares the GIL.
This module breaks that cap with the classic shared-nothing-readers design:

* the **parent** keeps everything the thread server already does —
  admission queue, deadlines, metrics ledger, stamped query cache,
  circuit breaker, the single-writer mutation pipeline, the supervisor
  — by *subclassing* ``QCServer``;
* N forked **worker processes** each attach the current snapshot
  segment (a ``QCTREE/3`` blob in ``multiprocessing.shared_memory``,
  see :mod:`repro.shard.pack`) and answer point/range/iceberg/
  exploration requests lock-free from the shared buffers.  Attach is
  O(1) — slice a dozen memoryviews — so respawn and epoch swap are
  instant, and all processes serve **one physical copy** of the data;
* a :class:`ShardRouter` shards requests by first-dimension prefix
  (deterministic hash of the first bound value) so repeated traffic for
  one prefix lands on one process's warm route cache, falling back to
  round-robin for unprefixed requests.

**Publish protocol.**  The single writer mutates the dict tree exactly
as before.  On publish it packs the new frozen view into a *fresh*
segment, announces ``(lsn, epoch, segment_name)`` to every worker over
its pipe, swaps the parent snapshot, and waits (bounded) for each
worker to attach the new epoch and detach the old one; segments with no
remaining attachments are then unlinked.  A worker that fails to attach
keeps serving its last-good epoch — it is simply not routed to until
the supervisor repairs it (re-announce, or respawn on death), with the
parent answering its share from its own snapshot in the meantime — so
readers never block on a publish, never observe a torn snapshot, and
post-publish answers always reflect the current epoch.  POSIX shared
memory makes the unlink safe even against a straggler: an unlinked
segment stays mapped until its last detach.

**Failure modes** (see DESIGN §10 for the full table): a crashed worker
process fails its in-flight requests with
:class:`~repro.errors.WorkerCrashedError` (safe to retry) and is
respawned attached to the current segment; a writer crash between pack
and announce is absorbed by the inherited write pipeline (retry, then
degraded read-only mode, then :meth:`~repro.serving.server.QCServer.
recover`); with *zero* routable processes the parent answers from its
own snapshot (``shard_local_fallbacks``) so the service degrades to
thread-mode rather than failing.
"""

from __future__ import annotations

import multiprocessing
import pickle
import threading
import time
import warnings
import zlib
from collections import deque
from itertools import count
from typing import Optional

from repro.core.cells import ALL
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
from repro.shard.pack import pack_snapshot_bytes
from repro.shard.segment import create_segment, unlink_segment
from repro.shard.worker import _answer_calls, worker_main


def _mp_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else None
    )


class ShardRouter:
    """First-dimension-prefix sharding policy.

    Routing is a *placement* choice, not a correctness one — every
    worker holds the full snapshot — so the router optimizes for cache
    locality: requests whose first dimension is bound hash its value
    (``adler32`` of the repr: stable across processes and runs, unlike
    ``hash()`` under ``PYTHONHASHSEED`` randomization) so one prefix
    always lands on the same worker slot; everything else round-robins.
    """

    #: The ops routed by prefix (a subset of ``SNAPSHOT_OPS``).
    PREFIX_OPS = ("point", "range", "class_of", "open_class")

    def __init__(self, seed: int = 0):
        self._rr = count(seed)

    @staticmethod
    def prefix_key(op: str, args: tuple):
        """The routing key, or None when the request has no usable
        first-dimension prefix."""
        if op not in ShardRouter.PREFIX_OPS or not args:
            return None
        spec = args[0]
        try:
            first = spec[0]
        except (TypeError, IndexError, KeyError):
            return None
        if first is None or first is ALL or first == "*":
            return None
        if isinstance(first, (list, tuple, set, frozenset, dict)):
            return None  # a candidate set spans shards; balance instead
        return first

    def slot(self, op: str, args: tuple, n_slots: int) -> int:
        key = self.prefix_key(op, args)
        if key is None:
            return next(self._rr) % n_slots
        return zlib.adler32(repr(key).encode("utf-8", "replace")) % n_slots


class _Chunk:
    """The ``pending`` sink of one worker's share of a ``map_query``
    batch: fans its answer into the batch by index."""

    __slots__ = ("batch", "indices")

    def __init__(self, batch, indices):
        self.batch = batch
        self.indices = indices

    def complete(self, ok: bool, payload) -> None:
        if ok:
            self.batch.put(self.indices, *payload)
        else:
            self.batch.put(self.indices, (), dict.fromkeys(
                range(len(self.indices)), payload))


def _elements(sink) -> int:
    """The calls a ``pending`` sink answers."""
    return 1 if type(sink) is Request else len(sink.indices)


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


#: What the kernel charges a pipe's socket buffer per message on top of
#: its bytes (measured on Linux x86-64: 278 messages of 83 bytes fill
#: the 208 KiB default buffer, ≈ 770 bytes of bookkeeping each).
_MESSAGE_OVERHEAD = 1024


class _ProcHandle:
    """Parent-side state of one worker process: the process, its pipe,
    the in-flight table, and the epoch it last confirmed attaching.

    Locking: ``lock`` guards ``pending``/``alive``/``outstanding``;
    ``send_lock`` serializes pipe sends and is *never* taken by the
    receiver thread, so a send blocked on a full pipe can never stop the
    receiver from draining answers (which is what unblocks the worker,
    and hence the send).

    ``outstanding`` is what the request messages sent and not yet
    answered charge the pipe (bytes plus :data:`_MESSAGE_OVERHEAD`
    each), ``unanswered`` their charges in send order: the worker
    answers each request message with one answer message, in order, and
    has read all of it by then.  So ``outstanding`` bounds what can sit
    unread in the pipe, and a send that keeps it under a budget far
    below the socket buffer cannot block.
    """

    def __init__(self, slot: int, proc, conn):
        self.slot = slot
        self.proc = proc
        self.pid = proc.pid  # kept: a closed Process forgets its pid
        self.conn = conn
        self.lock = threading.Lock()
        self.send_lock = threading.Lock()
        self.pending: dict = {}
        self.unanswered: deque = deque()
        self.outstanding = 0
        self.alive = True
        self.attached_epoch = 0
        self.answered = 0
        self.receiver: Optional[threading.Thread] = None
        self.last_announce = 0.0

    def send(self, message) -> bool:
        """Send a control message (blocking while the pipe is full);
        False when the worker is gone."""
        data = pickle.dumps(message, pickle.HIGHEST_PROTOCOL)
        with self.send_lock:
            return self.post(data)

    def post(self, data: bytes, sinks: Optional[dict] = None) -> bool:
        """Send one pickled message; the caller holds ``send_lock``.

        ``sinks`` (``{rid: sink}``) makes it a request message: they
        join ``pending`` and its charge joins ``outstanding`` before the
        bytes leave, so its answer can never arrive first.  False when
        the worker is gone — the sinks are registered all the same, and
        the caller takes back with :meth:`reclaim` those nobody else
        failed meanwhile, so each is completed exactly once.
        """
        with self.lock:
            if sinks is not None:
                self.pending.update(sinks)
            if not self.alive:
                return False
            if sinks is not None:
                charge = len(data) + _MESSAGE_OVERHEAD
                self.unanswered.append(charge)
                self.outstanding += charge
        try:
            self.conn.send_bytes(data)
        except (OSError, ValueError):
            return False
        return True

    def reclaim(self, rids) -> list:
        """Remove ``rids`` from ``pending``; returns the sinks that were
        still there (the caller now owns completing them)."""
        with self.lock:
            taken = [self.pending.pop(rid, None) for rid in rids]
        return [sink for sink in taken if sink is not None]

    def forwards(self) -> dict:
        """The unanswered direct forwards by rid (``pending`` also holds
        ``map_query``'s chunks)."""
        with self.lock:
            return {rid: sink for rid, sink in self.pending.items()
                    if type(sink) is Request}

    def inflight(self) -> int:
        """The calls sent and not yet answered; a chunk counts each."""
        with self.lock:
            return sum(map(_elements, self.pending.values()))

    def fail_pending(self, exc) -> None:
        with self.lock:
            stranded = list(self.pending.values())
            self.pending.clear()
        for sink in stranded:
            sink.complete(False, exc)


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
    :meth:`~repro.serving.server.QCServer.submit` admits every read;
    only where it goes differs (see :meth:`_dispatch`).  A snapshot op
    is answered *direct* — pickled onto a worker's pipe by the calling
    thread, its answer finished by that pipe's receiver thread — or
    *local* — run by the pool against the parent's own snapshot,
    counted in ``shard_local_fallbacks``.  The pool never waits on a
    worker; besides the local answers it runs ``health`` and
    ``register_op`` ops.  Everything else is inherited
    :class:`~repro.serving.server.QCServer` behavior: admission,
    deadlines, the one completion, cache (answers are cached
    parent-side keyed by snapshot stamp), breaker, write pipeline,
    degraded mode, fault injection (``op:<name>`` and ``worker`` fire
    on a pool thread — a read whose ``op:`` site is armed is answered
    locally — plus the shard sites ``shard:publish`` and
    ``shard:attach``).
    """

    #: Seconds a direct forward that carries no deadline may wait for
    #: its worker's answer before the supervisor's scan fails it with
    #: ``DeadlineExceededError``; one with a deadline fails at the
    #: earlier of the two (worker death is detected far sooner via pipe
    #: EOF; this bounds a wedged-but-alive worker).  With
    #: ``supervised=False`` there is no scan, and only the worker checks
    #: a deadline.  Also ``map_query``'s default timeout.
    SHARD_RPC_TIMEOUT_S = 30.0
    #: Pipe charge (``_ProcHandle.outstanding``, bytes) under which a
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
    #: Supervisor re-announces the current epoch to a lagging worker at
    #: most this often (seconds).
    REANNOUNCE_INTERVAL_S = 0.5

    def __init__(self, warehouse, processes: int = 2, workers=None,
                 router: Optional[ShardRouter] = None, **kwargs):
        if processes < 1:
            raise ValueError(f"need at least one process, got {processes}")
        self._nprocs = processes
        self._router = router if router is not None else ShardRouter()
        self._ctx = _mp_context()
        self._shard_lock = threading.Lock()
        self._rid = count(1)
        self._handles: list = []
        self._routable: tuple = ()  # see _reroute_locked
        self._epoch_segments: dict = {}  # epoch -> segment name
        self._tickets: dict = {}  # epoch -> [expected slot set, Event]
        self._procs_stopped = False

        # Pack and publish epoch 1 and fork the fleet *before*
        # super().__init__ spawns any thread: forking a single-threaded
        # parent is safe on every Python.
        snapshot = self._servable_snapshot(warehouse)
        payload = pack_snapshot_bytes(
            snapshot.tree, snapshot.table, stamp=snapshot.stamp
        )
        self._epoch = 1
        self._stamp = snapshot.stamp
        self._snapshot_bytes = len(payload)
        shm = create_segment(payload)
        self._epoch_segments[1] = shm.name
        try:
            for slot in range(processes):
                self._handles.append(self._spawn_process(slot))
            self._reroute_locked()  # no other thread exists yet
            super().__init__(warehouse, workers=workers or processes,
                             **kwargs)
        except BaseException:
            self._shutdown_processes()
            self._unlink_all_segments()
            raise

        # Receivers start only now: every fork already happened.
        for handle in self._handles:
            self._start_receiver(handle)

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

    def _spawn_process(self, slot: int) -> _ProcHandle:
        """Fork one worker attached to the current segment and complete
        its ready handshake.  Called single-threaded
        from ``__init__`` and from the supervisor thread on respawn
        (where the fork-with-threads DeprecationWarning of newer Pythons
        is expected and harmless: the child only runs already-imported
        code)."""
        # Async-transport fork safety: the asyncio front door runs its
        # event loop in a ``*-loop`` thread (AsyncServerThread).  Forking
        # while that loop is mid-write could duplicate its socket state
        # into the child were the child ever to touch it; our workers
        # never do (they run worker_main on a fresh Pipe and shared
        # memory only), but a respawn under a live transport is worth a
        # visible warning so operators start transports *after* the
        # fleet, as `serve --async` does.
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
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        lsn, _ = self._stamp
        # The parent-side pipe ends a forked child inherits: its own and
        # every other worker's.  The child closes them first thing —
        # while any copy is open its ``recv()`` never sees EOF, and the
        # fleet outlives a killed parent as orphans.
        inherited = [parent_conn] + [
            h.conn for h in self._handles if not h.conn.closed
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            proc = self._ctx.Process(
                target=worker_main,
                args=(child_conn, self._epoch_segments[self._epoch],
                      lsn, self._epoch, inherited),
                name=f"{getattr(self, 'name', 'shard')}-proc-{slot}",
                daemon=True,
            )
            proc.start()
        child_conn.close()
        handle = _ProcHandle(slot, proc, parent_conn)
        if not parent_conn.poll(self.SPAWN_TIMEOUT_S):
            proc.terminate()
            raise ServingError(
                f"shard worker {slot} did not come up within "
                f"{self.SPAWN_TIMEOUT_S}s"
            )
        kind, _pid, epoch = parent_conn.recv()
        if kind != "ready":  # pragma: no cover - protocol violation
            proc.terminate()
            raise ServingError(
                f"shard worker {slot} sent {kind!r} instead of ready"
            )
        handle.attached_epoch = epoch
        return handle

    def _start_receiver(self, handle: _ProcHandle) -> None:
        thread = threading.Thread(
            target=self._receiver_loop,
            args=(handle,),
            name=f"{self.name}-shard-rx-{handle.slot}",
            daemon=False,
        )
        handle.receiver = thread
        thread.start()

    def _receiver_loop(self, handle: _ProcHandle) -> None:
        conn = handle.conn
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            kind = message[0]
            if kind == "a":
                with handle.lock:
                    handle.outstanding -= handle.unanswered.popleft()
                    owed = [
                        (handle.pending.pop(rid, None), ok, payload)
                        for rid, ok, payload in message[1]
                    ]
                for sink, ok, payload in owed:
                    # A sink already gone was failed or given up on (RPC
                    # timeout, map_query timeout): its answer is dropped.
                    if sink is not None:
                        handle.answered += _elements(sink)
                        sink.complete(ok, payload)
            elif kind == "pub_ok":
                epoch = message[1]
                with self._shard_lock:
                    handle.attached_epoch = epoch
                    self._reroute_locked()
                    self._ack_ticket_locked(epoch, handle.slot)
            elif kind == "pub_err":
                epoch = message[1]
                self._metrics.counter("shard_attach_failures").inc()
                with self._shard_lock:
                    # The worker keeps serving its last-good epoch; the
                    # supervisor re-announces until it converges.
                    self._ack_ticket_locked(epoch, handle.slot)
        with handle.lock:
            was_alive = handle.alive
            handle.alive = False
        with self._shard_lock:
            self._reroute_locked()
            for epoch in list(self._tickets):
                self._ack_ticket_locked(epoch, handle.slot)
        if was_alive and not self._procs_stopped:
            self._metrics.counter("shard_process_crashes").inc()
        handle.fail_pending(WorkerCrashedError(
            f"shard worker process {handle.slot} died before answering; "
            "the read never ran and is safe to retry"
        ))

    def _ack_ticket_locked(self, epoch: int, slot: int) -> None:
        ticket = self._tickets.get(epoch)
        if ticket is None:
            return
        expected, event = ticket
        expected.discard(slot)
        if not expected:
            event.set()
            self._tickets.pop(epoch, None)

    # -- read path: forward to the fleet -------------------------------------

    def _reroute_locked(self) -> None:
        """Recompute ``_routable``: the live workers attached to the
        *current* epoch — the only ones routable, so every answer (and
        thus every parent-side cache fill, keyed by the current stamp)
        reflects the published snapshot even while laggards still serve
        an old epoch.  Called under ``_shard_lock`` wherever one of its
        inputs changes (the epoch, a worker's attached epoch or
        liveness, the handle list); a request reads the tuple without a
        lock.  A worker that dies before the next recompute is still in
        it — its send fails with the retryable ``WorkerCrashedError``,
        as a request racing the death always could."""
        epoch = self._epoch
        self._routable = tuple(
            h for h in self._handles
            if h.alive and h.attached_epoch == epoch
        )

    def _pick(self, op: str, args: tuple) -> Optional[_ProcHandle]:
        live = self._routable
        if len(live) < 2:  # nothing to place: skip the prefix hash
            return live[0] if live else None
        return live[self._router.slot(op, args, len(live))]

    def _dispatch(self, request: Request) -> bool:
        """Send an admitted snapshot op on a worker's pipe from this
        thread (*direct*), else hand it to the inherited pool, which
        answers it from the parent's own snapshot — always current, so
        correctness never waits on the fleet.  It stands aside from the
        direct path exactly when:

        * the op is not in :data:`~repro.serving.server.
          SNAPSHOT_OP_TABLE`, or :meth:`register_op` overrode it — the
          pool runs it as for any server;
        * the server is closed — the pool's queue owns refusing it;
        * no worker on the current epoch is routable (fleet loss, or
          the brief window of an in-flight publish), or the ``faults``
          plan has the op's ``op:<name>`` site armed — local, so the
          site fires on a pool thread as on any server and its
          ``delay_s`` holds no receiver or caller thread;
        * the worker's ``send_lock`` stays busy for
          :data:`DIRECT_SEND_WAIT_S`, or the message does not fit
          :data:`DIRECT_SEND_BUDGET` (an unpicklable one fits nothing) —
          local, so this call waits at most that long for another
          sender and never on a pipe (the asyncio door calls it on its
          loop thread).

        Those last two count a local answer in ``shard_local_fallbacks``.
        The direct path sheds once ``queue_size`` reads are in flight on
        the pipes, carries the deadline to the worker, which answers
        :class:`~repro.errors.DeadlineExceededError` unrun past it, and
        is bounded by the supervisor's scan (:meth:`_fail_overdue`).
        """
        op, args, kwargs = request.op, request.args, request.kwargs
        fn = SNAPSHOT_OP_TABLE.get(op)
        if fn is None or self._ops.get(op) is not fn or self._closed:
            return super()._dispatch(request)
        # Pin before routing: a worker routable now serves this snapshot
        # or a later one, never an earlier one the cache would store.
        request.snapshot = self._snapshot
        faults = self._faults
        handle = (None if faults is not None and faults.armed(f"op:{op}")
                  else self._pick(op, args))
        if handle is not None and handle.send_lock.acquire(
                True, self.DIRECT_SEND_WAIT_S):
            try:
                rid = next(self._rid)
                deadline = request.deadline
                try:
                    data = pickle.dumps(("q", [
                        (rid, op, args, kwargs) if deadline is None
                        else (rid, op, args, kwargs, deadline)
                    ]), pickle.HIGHEST_PROTOCOL)
                except Exception:
                    data = None  # unsendable: answered locally
                # Only this thread (holding send_lock) can raise
                # ``outstanding``; the receiver only lowers it, so a
                # stale read errs safe.
                if data is not None and (
                        handle.outstanding + len(data) + _MESSAGE_OVERHEAD
                        <= self.DIRECT_SEND_BUDGET):
                    with self._inflight_lock:
                        if self._inflight >= self._queue.maxsize:
                            return False
                        self._inflight += 1
                    request.pipe = handle
                    value = self._lookup(request)
                    if value is not MISS:
                        request.complete(True, value)
                    elif not handle.post(data, {rid: request}):
                        for owned in handle.reclaim((rid,)):
                            owned.complete(False, WorkerCrashedError(
                                f"shard worker {handle.slot} is down or its "
                                "pipe broke mid-send; the read never ran "
                                "and is safe to retry"
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
        across the routable fleet (prefix-routed, then balanced), each
        worker answers its whole chunk — one request — in one message
        round-trip, and the results come back in input order.  This
        amortizes the per-request pipe+future overhead that bounds
        ``submit`` — it is the path that scales with cores — while
        keeping the admission ledger balanced (each element counts as
        submitted and completed/errored; past ``timeout`` the unanswered
        ones count as timeouts and their late answers are dropped).  The
        first failed element's error re-raises after the batch completes.
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
        live = self._routable
        start = time.monotonic()
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
                      for handle, indices in self._place(op, calls, live)]
        for handle, rid, sink in chunks:
            share = [calls[i] for i in sink.indices]
            data = pickle.dumps(("q", [(rid, op, share)]),
                                pickle.HIGHEST_PROTOCOL)
            with handle.send_lock:
                sent = handle.post(data, {rid: sink})
            if not sent:
                down = WorkerCrashedError(
                    f"shard worker {handle.slot} died mid-batch; retry"
                )
                for owned in handle.reclaim((rid,)):
                    owned.complete(False, down)
        limit = self.SHARD_RPC_TIMEOUT_S if timeout is None else timeout
        answered = batch.event.wait(limit)
        if not answered:
            # Give up on what is unanswered: out of ``pending`` (a late
            # answer is dropped), and counted below as timeouts.
            for handle, rid, _sink in chunks:
                handle.reclaim((rid,))
        n_answered = batch.close()
        n_err = len(batch.failed)
        metrics.counter("completed").inc(n_answered - n_err)
        metrics.counter("errors").inc(n_err)
        metrics.counter("timeouts").inc(len(calls) - n_answered)
        metrics.observe(op, time.monotonic() - start)
        if not answered:
            raise DeadlineExceededError(
                f"bulk {op!r} over {len(calls)} calls did not complete "
                f"within {limit}s"
            )
        if batch.failed:
            raise batch.failed[min(batch.failed)]
        return batch.results

    def _place(self, op: str, calls: list, live: tuple) -> list:
        """``[(handle, indices)]``: each call where ``router.slot`` puts
        it, the slot computed once per prefix key; one live worker takes
        every call."""
        if len(live) == 1:
            return [(live[0], range(len(calls)))]
        router, n = self._router, len(live)
        slot_of: dict = {}
        shares: dict = {}
        for index, args in enumerate(calls):
            key = router.prefix_key(op, args)
            try:
                slot = slot_of[type(key), key]
            except KeyError:
                slot = router.slot(op, args, n)
                if key is not None:
                    slot_of[type(key), key] = slot
            except TypeError:  # an unhashable prefix
                slot = router.slot(op, args, n)
            shares.setdefault(slot, []).append(index)
        return [(live[slot], indices) for slot, indices in shares.items()]

    # -- publish protocol ----------------------------------------------------

    def _publish(self) -> None:
        """Pack → announce → swap → bounded detach wait → GC.

        Readers keep the previous epoch throughout; from the swap on,
        requests route only to workers that confirmed the new epoch
        (parent fallback covers the gap), so a publish is never a
        correctness event — only a brief locality one.  Failures before
        the swap leave the old epoch fully published (the inherited
        write pipeline retries / degrades); failures of individual
        workers leave *them* on their last-good epoch, repaired by the
        supervisor.
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
        epoch = self._epoch + 1
        lsn = snapshot.stamp[0]
        inject = self._attach_inject()
        try:
            with self._shard_lock:
                live = [h for h in self._handles if h.alive]
                # Expect every live worker *before* announcing: a fast
                # worker's ack can beat this loop, and an ack for a slot
                # not yet expected would be lost — the ticket would then
                # never clear (a full ack timeout, a segment never GC'd).
                expected = {h.slot for h in live}
                ticket_event = threading.Event()
                self._tickets[epoch] = (expected, ticket_event)
                self._epoch = epoch
                self._reroute_locked()
                self._stamp = snapshot.stamp
                self._epoch_segments[epoch] = shm.name
                self._snapshot_bytes = len(payload)
            now = time.monotonic()
            for handle in live:
                if handle.send(("publish", lsn, epoch, shm.name, inject)):
                    handle.last_announce = now
                else:
                    with self._shard_lock:
                        expected.discard(handle.slot)
            with self._shard_lock:
                if not expected:
                    ticket_event.set()
                    self._tickets.pop(epoch, None)
        except BaseException:  # pragma: no cover - announce cannot raise
            with self._shard_lock:
                self._tickets.pop(epoch, None)
            unlink_segment(shm.name)
            raise
        self._snapshot = snapshot  # atomic reference swap, as inherited
        self._metrics.counter("snapshot_swaps").inc()
        self._metrics.counter("shard_publishes").inc()
        wait_start = time.monotonic()
        ticket_event.wait(self.PUBLISH_ACK_TIMEOUT_S)
        self._metrics.observe(
            "shard:publish_detach_wait", time.monotonic() - wait_start
        )
        self._gc_segments()

    def _attach_inject(self):
        """Consume an armed ``shard:attach`` fault into a wire flag the
        workers honor (the failure must happen *in* the worker so the
        keep-last-good path is what's exercised)."""
        try:
            self._fire("shard:attach")
        except BaseException:
            return "attach"
        return None

    def _gc_segments(self) -> None:
        """Unlink every segment no live worker is attached to (except
        the current epoch's).  Safe against stragglers: POSIX keeps an
        unlinked segment alive for processes that already mapped it."""
        with self._shard_lock:
            attached = {
                h.attached_epoch for h in self._handles if h.alive
            }
            attached.add(self._epoch)
            pending = set(self._tickets)
            dead = [
                (epoch, name)
                for epoch, name in self._epoch_segments.items()
                if epoch not in attached and epoch not in pending
            ]
            for epoch, _name in dead:
                self._epoch_segments.pop(epoch, None)
        for _epoch, name in dead:
            unlink_segment(name)

    # -- supervision (piggybacked on the inherited supervisor thread) --------

    def _supervise_extra(self) -> None:
        if self._procs_stopped:
            return
        now = time.monotonic()
        respawn = []
        reannounce = []
        with self._shard_lock:
            epoch = self._epoch
            name = self._epoch_segments.get(epoch)
            lsn = self._stamp[0]
            for i, handle in enumerate(self._handles):
                if handle.alive and not handle.proc.is_alive():
                    with handle.lock:
                        handle.alive = False
                if not handle.alive:
                    respawn.append(i)
                elif (handle.attached_epoch < epoch
                        and now - handle.last_announce
                        > self.REANNOUNCE_INTERVAL_S):
                    reannounce.append(handle)
            if respawn:
                self._reroute_locked()
        for handle in reannounce:
            # Repair a lagging worker: re-announce the current epoch
            # (attach is idempotent worker-side).
            if handle.send(("publish", lsn, epoch, name, None)):
                handle.last_announce = now
                self._metrics.counter("shard_reannounces").inc()
        if self._inflight:  # else nothing to scan but map_query's chunks
            for handle in self._handles:
                self._fail_overdue(handle, now)
        for i in respawn:
            old = self._handles[i]
            old.fail_pending(WorkerCrashedError(
                f"shard worker process {i} died; retry"
            ))
            self._retire_receiver(old, timeout=1.0)
            old.proc.join(timeout=0)
            try:
                fresh = self._spawn_process(i)
            except Exception:
                continue  # segment gone or fork failed; retry next scan
            self._start_receiver(fresh)
            with self._shard_lock:
                self._handles[i] = fresh
                self._reroute_locked()
            self._metrics.counter("shard_process_restarts").inc()
        with self._shard_lock:
            stale = len(self._epoch_segments) > 1
        if respawn or stale:
            # Respawns and re-announce convergence both strand old
            # epochs' segments; sweep whenever more than the current
            # epoch's segment is still registered.
            self._gc_segments()

    def _fail_overdue(self, handle: _ProcHandle, now: float) -> None:
        """Fail the forwards ``handle``'s worker has left unanswered past
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
            handles = list(self._handles)
            epoch = self._epoch
            segments = len(self._epoch_segments)
        counters = self._metrics
        return {
            "processes_configured": self._nprocs,
            "processes_alive": sum(
                1 for h in handles if h.alive and h.proc.is_alive()
            ),
            "process_restarts": counters.counter(
                "shard_process_restarts").value,
            "process_crashes": counters.counter(
                "shard_process_crashes").value,
            "attach_failures": counters.counter(
                "shard_attach_failures").value,
            "local_fallbacks": counters.counter(
                "shard_local_fallbacks").value,
            "reannounces": counters.counter("shard_reannounces").value,
            "receiver_join_timeouts": counters.counter(
                "shard_receiver_join_timeouts").value,
            "publishes": counters.counter("shard_publishes").value,
            "current_epoch": epoch,
            "workers": [
                {
                    "slot": h.slot,
                    "pid": h.pid,
                    "alive": h.alive and h.proc.is_alive(),
                    "attached_epoch": h.attached_epoch,
                    "answered": h.answered,
                    "inflight": h.inflight(),
                }
                for h in handles
            ],
            "snapshot_bytes": self._snapshot_bytes,
            "segments": segments,
            "publish_detach_wait_us": counters.histogram(
                "shard:publish_detach_wait").snapshot(),
        }

    # -- lifecycle -----------------------------------------------------------

    def _shutdown_processes(self) -> None:
        with self._shard_lock:
            if self._procs_stopped:
                return
            self._procs_stopped = True
            self._routable = ()
            handles = list(self._handles)
        down = ServerClosedError("server shut down before request ran")
        for handle in handles:
            handle.send(("stop",))
        deadline = time.monotonic() + 5.0
        for handle in handles:
            handle.proc.join(timeout=max(0.0, deadline - time.monotonic()))
            if handle.proc.is_alive():
                handle.proc.terminate()
                handle.proc.join(timeout=2.0)
            with handle.lock:
                handle.alive = False
            handle.fail_pending(down)
        for handle in handles:
            self._retire_receiver(handle, timeout=5.0)
            # Release the process object's zombie bookkeeping.
            try:
                handle.proc.close()
            except Exception:
                pass

    def _retire_receiver(self, handle: _ProcHandle, timeout: float) -> None:
        """Join the receiver of a worker that is gone, *then* close the
        parent's end of its pipe.  The worker's exit is an EOF on that
        pipe, which is what ends a receiver blocked in ``recv()``;
        closing the connection under it would not wake the read, and
        the descriptor number could be reused while it still waits on
        it.  A join that times out is counted
        (``shard_health()["receiver_join_timeouts"]``), not silent."""
        receiver = handle.receiver
        if receiver is not None:
            receiver.join(timeout)
            if receiver.is_alive():
                self._metrics.counter("shard_receiver_join_timeouts").inc()
        try:
            handle.conn.close()
        except OSError:
            pass

    def _unlink_all_segments(self) -> None:
        with self._shard_lock:
            segments = list(self._epoch_segments.items())
            self._epoch_segments.clear()
        for _epoch, name in segments:
            unlink_segment(name)

    def close(self, timeout: Optional[float] = None) -> None:
        """Shut down the fleet, the inherited thread pool, and unlink
        every shared segment.  Idempotent; afterwards no server thread,
        worker process, or ``/dev/shm/qctree-*`` segment remains — the
        shared-memory analogue of the no-leaked-threads guarantee."""
        with self._lifecycle_lock:
            already = self._closed
        if not already:
            # Supervisor first: a scan that respawns a worker while the
            # fleet is being stopped would install a process and a
            # receiver thread that nobody stops.  Then the fleet: its
            # in-flight forwards fail with ServerClosedError.
            self._halt_supervisor(timeout)
            self._shutdown_processes()
        super().close(timeout)
        self._unlink_all_segments()

    def __repr__(self):
        alive = sum(1 for h in self._handles if h.alive)
        return (
            f"ShardServer(processes={alive}/{self._nprocs}, "
            f"epoch={self._epoch}, closed={self._closed})"
        )
