"""``QCServer`` — a concurrent, fault-tolerant query server over a
QC-tree warehouse.

The paper positions the QC-tree as a summary structure for *online*
semantic OLAP; this module supplies the online part.  The design has
exactly one shared mutable reference:

* **Readers** (a pool of worker threads) drain a bounded admission
  queue.  Each request grabs the current
  :class:`~repro.serving.snapshot.ServingSnapshot` reference *once* and
  answers entirely from it — the snapshot is immutable, so readers take
  no locks on the tree and never block on writers.
* **The writer** (callers of :meth:`QCServer.insert` / ``delete`` /
  ``modify``, serialized by one lock) applies maintenance to the
  mutable dict tree, refreezes it *off the read path* — incrementally,
  by patching the recorded maintenance delta into the previous frozen
  view (:meth:`FrozenQCTree.patch
  <repro.core.frozen.FrozenQCTree.patch>`) — and publishes the result
  by assigning the snapshot reference — an atomic swap.  A reader sees
  either the pre- or the post-mutation snapshot, never a mix: that is
  the linearizable-snapshot-read guarantee the stress tests assert.
  After the swap the writer *warms* the query cache by replaying the
  hottest keys against the new snapshot, so readers do not all pay the
  post-publication cold-miss storm; which keys are hottest is the
  server's own :class:`DemandHeat`, noted on each cacheable read.
  Write latency is reported per
  phase (``maintain`` — with ``maintain_partition`` /
  ``maintain_merge`` / ``maintain_index`` sub-phases from the batched
  engine — then ``refreeze`` / ``publish`` / ``warm``) in
  :meth:`QCServer.stats`.

**Fault tolerance** treats node-level failure as routine, the way
realtime OLAP serving stacks do:

* A **supervisor** thread watches the worker pool: a worker that
  dies with an escaped exception is counted (``worker_crashes``), its
  claimed request is failed with
  :class:`~repro.errors.WorkerCrashedError` instead of hanging the
  caller, and the worker is respawned at a bounded rate
  (``worker_restarts``).  Each worker records the read it holds, so a
  worker holding one read past ``WEDGE_TIMEOUT_S`` is reported as
  wedged.
* The **write pipeline is recoverable end to end**: a maintenance
  failure surfaces the transactional rollback (tree unchanged, error
  re-raised); a failed incremental refreeze falls back to a full
  recompile from the dict tree; a failed publication retries from a
  fresh snapshot; a failed warm is absorbed (the write already
  published).  When even the fallbacks fail, the server flips to
  **degraded read-only mode** — readers keep the last-good snapshot,
  writes raise :class:`~repro.errors.ServerDegradedError` — and every
  subsequent write (or :meth:`recover`) probes whether the fault has
  cleared.  A batch that repeatedly crashes the maintenance phase is
  **quarantined** (:class:`~repro.errors.WriteQuarantinedError`) so one
  poisonous batch cannot wedge the single-writer path.
* A **health/readiness subsystem** (:mod:`~repro.serving.health`)
  serves a ``health`` op reporting liveness, snapshot staleness,
  queue depth, worker liveness, and write-degraded state, and an optional
  :class:`~repro.serving.health.CircuitBreaker` sheds load at admission
  (:class:`~repro.errors.CircuitOpenError`) when the recent error rate
  crosses a threshold, half-opening to probe recovery.
* Every failure mode above is drivable deterministically through
  :class:`~repro.reliability.faults.ServingFaults` (the ``faults``
  constructor hook), which the chaos test suite builds on.

Admission control (bounded queue, load shedding, per-request
deadlines) lives in :mod:`~repro.serving.admission`; request metrics in
:mod:`~repro.serving.metrics`.  Cacheable answers (point / range /
iceberg) are memoized in an :class:`~repro.core.query_cache.
LsnQueryCache` keyed by the snapshot's stamp, so a snapshot swap
implicitly invalidates every cached answer.  A *hit* in it is answered
by the thread that asked — :meth:`QCServer.cached_answer`, used by the
synchronous :meth:`QCServer.query` family and by the asyncio front door
on its loop thread — because a dict lookup is not worth two thread
hand-offs.  Anything else is admitted by :meth:`QCServer.submit` as one
:class:`~repro.serving.admission.Request`, which :meth:`QCServer.
_dispatch` hands to the worker pool, and finished by
:meth:`QCServer._finish`, whichever thread has its outcome.

The op table has one seam, :meth:`QCServer.register_op`: tests
substitute slow, blocking or failing ops through it without touching
the worker loop.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future
from typing import Optional

from repro.core.query_cache import (
    MISS,
    LsnQueryCache,
    constrained_iceberg_cache_key,
    iceberg_cache_key,
    point_cache_key,
    range_cache_key,
)
from repro.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    QueryError,
    SchemaError,
    ServerClosedError,
    ServerDegradedError,
    ServerOverloadedError,
    WorkerCrashedError,
    WriteQuarantinedError,
)
from repro.serving.admission import AdmissionQueue, Request
from repro.serving.health import CLOSED, CircuitBreaker, health_report
from repro.serving.metrics import ServerMetrics

#: Snapshot methods exposed as server operations out of the box.
SNAPSHOT_OPS = (
    "point", "range", "iceberg", "iceberg_in_range",
    "class_of", "rollup", "rollups", "rollup_exceptions",
    "drilldowns", "open_class",
)

#: Copy constructor applied to cached answers of mutable result types,
#: so a caller mutating its answer cannot poison the cache.
_CACHE_COPY = {"range": dict, "iceberg": list, "iceberg_in_range": dict}


def _snapshot_op(name):
    def call(snapshot, *args, **kwargs):
        return getattr(snapshot, name)(*args, **kwargs)

    call.__name__ = f"op_{name}"
    return call


#: The one table of snapshot-op functions, ``fn(snapshot, *args,
#: **kwargs)``: every server's op table starts as a copy of it, and a
#: shard worker process answers from it.
SNAPSHOT_OP_TABLE = {op: _snapshot_op(op) for op in SNAPSHOT_OPS}


def _own_copy(op: str, value):
    """The caller's copy of an answer the cache may also hold."""
    copy = _CACHE_COPY.get(op)
    return value if copy is None else copy(value)


class DemandHeat:
    """Per-key demand counts of a server's cacheable reads: what the
    writer re-fills after a snapshot swap (:meth:`QCServer._warm_cache`).

    Unlike the cache's entries, heat survives a swap — that is the
    point: after a swap it remembers which answers were hottest, so the
    writer can re-fill them instead of serving every reader a cold miss.
    Each warm pass halves it after reading it, so an old workload fades
    rather than pinning the warm set, and a key asked once is gone after
    one swap.  Bounded by the cache's size: past ``4 * size`` keys the
    cold tail is dropped down to ``2 * size``.
    """

    __slots__ = ("size", "_counts")

    def __init__(self, size: int):
        self.size = size
        self._counts: dict = {}

    def __len__(self) -> int:
        return len(self._counts)

    def note(self, key) -> None:
        """Count one read of ``key``."""
        counts = self._counts
        counts[key] = counts.get(key, 0) + 1
        if len(counts) > 4 * self.size:
            keep = sorted(counts, key=counts.get, reverse=True)
            self._counts = {k: counts[k] for k in keep[: 2 * self.size]}

    def hot_keys(self, n: int) -> list:
        """The ``n`` most-demanded keys, hottest first."""
        counts = self._counts
        if n <= 0 or not counts:
            return []
        return sorted(counts, key=counts.get, reverse=True)[:n]

    def decay(self) -> None:
        """Halve every count, dropping the keys that reach 0."""
        self._counts = {k: h // 2 for k, h in self._counts.items() if h > 1}


class QCServer:
    """Multi-worker query service over a warehouse's frozen snapshots.

    >>> server = QCServer(warehouse, workers=4)
    >>> server.submit("point", ("S2", "*", "f")).result()
    9.0
    >>> server.insert([("S3", "P1", "s", 5.0)])   # snapshot-swap write
    >>> server.query("health")["status"]
    'ok'
    >>> server.close()

    Parameters
    ----------
    warehouse:
        The store to serve; every snapshot is its frozen views.  The
        server owns its mutation path: apply writes through the server,
        not the warehouse, while serving.
    workers:
        Reader threads.  They are deliberately *non-daemon*: a clean
        :meth:`close` must leave no background threads behind (CI
        enforces this).
    queue_size:
        Admission-queue bound; submissions beyond it are shed with
        :class:`~repro.errors.ServerOverloadedError`.
    default_timeout:
        Default per-request deadline in seconds (None = no deadline),
        overridable per call via ``submit(..., timeout=...)``.
    cache_size:
        Server-side stamped query cache (0 disables it).
    warm_keys:
        After each snapshot swap, replay up to this many of the
        hottest cached keys against the new snapshot on the writer
        thread (0 disables warming, and with it the demand heat).
    supervised:
        Run the worker supervisor (bounded-rate respawn of dead
        workers).  On by default; ``supervise_interval`` sets its scan
        period in seconds.
    quarantine_after:
        Consecutive maintenance-phase crashes of the *same* batch after
        which that batch is quarantined (rejected with
        :class:`~repro.errors.WriteQuarantinedError`).
    breaker:
        A :class:`~repro.serving.health.CircuitBreaker` to shed load at
        admission when the recent error rate spikes; ``None`` installs
        one with default thresholds, ``False`` disables the breaker.
    faults:
        A :class:`~repro.reliability.faults.ServingFaults` plan; the
        server fires its named sites (``worker``, ``op:<name>``,
        ``write:<phase>``) on the hot paths so tests and chaos runs can
        inject failures deterministically.  ``None`` (the default) adds
        no overhead beyond an attribute check.

    The first five are deployment and tuning values; ``supervised`` /
    ``supervise_interval`` / ``quarantine_after`` / ``breaker`` /
    ``faults`` are the fault-tolerance knobs — safety code, which tests
    switch off or arm one at a time to isolate the mechanism they check.
    """

    #: Seconds a worker may hold one read before it counts as wedged.
    WEDGE_TIMEOUT_S = 5.0
    #: Bounded-rate respawn: at most this many restarts per window.
    MAX_RESTARTS_PER_WINDOW = 32
    RESTART_WINDOW_S = 1.0

    def __init__(self, warehouse, workers: int = 4, queue_size: int = 128,
                 default_timeout: Optional[float] = None,
                 cache_size: int = 4096, warm_keys: int = 32,
                 name: str = "qcserver", supervised: bool = True,
                 supervise_interval: float = 0.05,
                 quarantine_after: int = 3, breaker=None, faults=None):
        if workers < 1:
            raise ValueError(f"need at least one worker, got {workers}")
        self.warehouse = warehouse
        self.default_timeout = default_timeout
        self.name = name
        # Warehouses with background phases the server cannot time
        # itself (a segmented warehouse's seals and compactions) report
        # them through an observer hook into the same write_phase
        # histograms the write pipeline uses.
        warehouse.set_phase_observer(
            lambda phase, seconds: self._metrics.observe(
                f"write_phase:{phase}", seconds
            )
        )
        self._ops = dict(SNAPSHOT_OP_TABLE)
        self._ops["health"] = lambda snapshot: self.health()
        self._metrics = ServerMetrics()
        self._queue = AdmissionQueue(queue_size)
        self._write_lock = threading.Lock()
        self._lifecycle_lock = threading.Lock()
        self._closed = False
        self._cache = LsnQueryCache(cache_size) if cache_size else None
        self._cache_lock = threading.Lock()
        self._warm_keys = warm_keys
        #: Demand per cache key, read by the warmer; guarded by the
        #: cache lock.
        self._heat = (DemandHeat(cache_size)
                      if cache_size and warm_keys > 0 else None)
        self._faults = faults
        if breaker is None:
            breaker = CircuitBreaker()
        self._breaker = breaker or None  # breaker=False disables it
        # Write-pipeline fault state (all guarded by the write lock).
        self._quarantine_after = quarantine_after
        self._write_failures: dict = {}
        self._quarantined: set = set()
        self._write_degraded = False
        self._degraded_reason: Optional[dict] = None
        self.last_write_error: Optional[dict] = None
        # Front-door transports (e.g. the asyncio TCP listener) register
        # here so stats()/health reflect the full serving surface.
        self._transports: list = []
        self._transport_lock = threading.Lock()
        self._snapshot = self._servable_snapshot(self.warehouse)
        # Reads sent on a worker process's pipe and not yet finished: a
        # shard server's direct path sheds on this count (always 0 here).
        self._inflight = 0
        self._inflight_lock = threading.Lock()
        # Worker pool + supervisor.  The worker list is mutated by the
        # supervisor on respawn, so every access is under the lock.
        # ``_held[slot]`` is the read that slot's worker is serving.
        self._worker_lock = threading.Lock()
        self._held: list = [None] * workers
        self._restart_times: deque = deque()
        self._workers = [
            self._spawn_worker(slot) for slot in range(workers)
        ]
        for thread in self._workers:
            thread.start()
        self._stop_supervisor = threading.Event()
        self._supervise_interval = supervise_interval
        self._supervisor = None
        if supervised:
            self._supervisor = threading.Thread(
                target=self._supervise_loop,
                name=f"{name}-supervisor",
                daemon=False,
            )
            self._supervisor.start()

    # -- snapshot lifecycle --------------------------------------------------

    @classmethod
    def _servable_snapshot(cls, warehouse):
        """A fresh snapshot of ``warehouse`` to publish (a classmethod:
        the shard server packs one before any server state exists)."""
        return warehouse.snapshot_view()

    @property
    def snapshot(self):
        """The currently published read snapshot."""
        return self._snapshot

    def _publish(self) -> None:
        """Compile and atomically swap in a snapshot of the current
        warehouse state.  Runs on the writer path only; readers keep
        serving the previous snapshot throughout.  The swap is the last
        statement: a failure anywhere earlier leaves the previous
        snapshot published, never a torn one."""
        snapshot = self._servable_snapshot(self.warehouse)
        self._snapshot = snapshot  # atomic reference swap
        self._metrics.counter("snapshot_swaps").inc()

    # -- fault injection -----------------------------------------------------

    def _fire(self, site: str) -> None:
        faults = self._faults
        if faults is not None:
            faults.fire(site)

    # -- read path -----------------------------------------------------------

    def register_op(self, name: str, fn) -> None:
        """Add (or override) a served operation.

        ``fn(snapshot, *args, **kwargs)`` runs on a worker thread
        against the request's pinned snapshot.  This is the seam tests
        substitute slow, blocking or failing ops through (a gate that
        holds every worker busy, a stalled point query, an op that
        raises).
        """
        self._ops[name] = fn

    def submit(self, op: str, /, *args, timeout: Optional[float] = None,
               **kwargs) -> Future:
        """Admit a read request; returns a :class:`~concurrent.futures.
        Future` resolving to the answer.

        Raises :class:`~repro.errors.ServerOverloadedError` immediately
        when the admission queue is full (load shedding), its subclass
        :class:`~repro.errors.CircuitOpenError` while the circuit
        breaker is shedding, and
        :class:`~repro.errors.ServerClosedError` after :meth:`close`.
        ``timeout`` (seconds, default ``default_timeout``) sets the
        request's deadline; a request still queued when it expires is
        answered with :class:`~repro.errors.DeadlineExceededError`.

        The one admission: the op check, the breaker, the deadline, the
        shedding and the ``submitted`` count are all here, and
        :meth:`_dispatch` only decides who answers.
        """
        if op not in self._ops:
            raise QueryError(
                f"unknown server op {op!r}; known: {sorted(self._ops)}"
            )
        breaker = self._breaker_for(op)
        if breaker is not None and not breaker.allow():
            self._metrics.counter("breaker_rejected").inc()
            raise CircuitOpenError(
                "circuit breaker open after an error burst; "
                "back off and retry"
            )
        now = time.monotonic()
        limit = self.default_timeout if timeout is None else timeout
        request = Request(self, op, args, kwargs, now,
                          None if limit is None else now + limit)
        try:
            admitted = self._dispatch(request)
        except BaseException:
            if breaker is not None:
                breaker.on_discard()  # never admitted: no outcome owed
            raise
        if not admitted:
            if breaker is not None:
                breaker.on_discard()
            self._metrics.counter("shed").inc()
            raise ServerOverloadedError(
                f"{self._queue.maxsize} reads waiting or in flight; "
                f"request {op!r} shed"
            )
        self._metrics.counter("submitted").inc()
        return request.future

    def _dispatch(self, request: Request) -> bool:
        """Hand an admitted read to what answers it; False sheds it.
        Here: the worker pool's queue (a shard server overrides this to
        send snapshot ops on a worker's pipe)."""
        try:
            return self._queue.offer(request)
        except RuntimeError:
            raise ServerClosedError("server is closed") from None

    def _breaker_for(self, op: str):
        """The breaker ``op`` answers to.  ``health`` is the op that
        *reports* the breaker: it must be answerable while the breaker
        is open, and its success as a half-open probe would close a
        breaker it says nothing about — so it neither consults nor
        feeds it."""
        return None if op == "health" else self._breaker

    def _backlog(self) -> int:
        """Admitted reads waiting for a worker — the count load shedding
        bounds by ``queue_size`` and health readiness reads.  The pool
        sheds on its queue's depth, the pipes on their reads in
        flight."""
        return max(self._queue.depth(), self._inflight)

    def cached_answer(self, op: str, args: tuple, kwargs: dict):
        """The answer to a read when the calling thread can give it — a
        hit in the stamped cache — else :data:`~repro.core.query_cache.
        MISS`, and the caller goes on to :meth:`submit`.  The one hit
        path: the front door calls it on its loop thread, :meth:`query`
        on the caller's.

        A hit is a dict lookup; carrying it to a worker and back costs
        two thread hand-offs that dwarf it.  It is answered here only
        when the answer cannot differ from the worker's:

        * the cache is on and the request has a cache key, the server
          is open and the op registered — what a worker would look up;
        * no ``faults`` plan is installed — a plan's ``op:<name>`` site
          fires on a worker, and a hit answered here would skip it;
        * the breaker is CLOSED — while it sheds, a hit is shed like
          any request, and a hit must never be the half-open probe:
          ``allow()`` would spend the probe slot and ``on_success``
          would close the breaker on evidence that no worker ran;
        * the lookup is at the stamp of ``self._snapshot`` read once,
          so a publication can never be answered from the entries of
          the snapshot it replaced.

        The ledger is kept as a worker keeps it (``submitted``,
        ``completed``, the op's histogram, a window success for the
        breaker) and mutable answers are copied.  A miss counts
        nothing: the worker's own ``lookup`` counts it, once.
        """
        cache = self._cache
        breaker = self._breaker
        if (cache is None or self._faults is not None or self._closed
                or op not in self._ops
                or (breaker is not None and breaker.state != CLOSED)):
            return MISS
        key = self._cache_key(op, args, kwargs)
        if key is None:
            return MISS
        start = time.monotonic()
        stamp = self._snapshot.stamp
        heat = self._heat
        with self._cache_lock:
            value = cache.probe(key, stamp)
            if value is not MISS and heat is not None:
                heat.note(key)
        if value is MISS:
            return MISS
        metrics = self._metrics
        metrics.counter("submitted").inc()
        metrics.counter("completed").inc()
        metrics.observe(op, time.monotonic() - start)
        if breaker is not None:
            breaker.on_window_success()
        return _own_copy(op, value)

    def query(self, op: str, /, *args, timeout: Optional[float] = None,
              **kwargs):
        """Synchronous convenience wrapper: a cache hit is answered on
        the calling thread (:meth:`cached_answer`), anything else is
        submitted and waited for."""
        value = self.cached_answer(op, args, kwargs)
        if value is MISS:
            value = self.submit(
                op, *args, timeout=timeout, **kwargs
            ).result()
        return value

    def point(self, raw_cell, timeout: Optional[float] = None):
        """Synchronous point query (:meth:`query`)."""
        return self.query("point", raw_cell, timeout=timeout)

    def range(self, raw_spec, timeout: Optional[float] = None) -> dict:
        """Synchronous range query (:meth:`query`)."""
        return self.query("range", raw_spec, timeout=timeout)

    def iceberg(self, threshold, op: str = ">=",
                timeout: Optional[float] = None) -> list:
        """Synchronous pure iceberg query (:meth:`query`)."""
        return self.query("iceberg", threshold, op=op, timeout=timeout)

    # -- worker pool ---------------------------------------------------------

    def _spawn_worker(self, slot: int) -> threading.Thread:
        return threading.Thread(
            target=self._worker_loop,
            args=(slot,),
            name=f"{self.name}-worker-{slot}",
            daemon=False,
        )

    def _worker_loop(self, slot: int) -> None:
        queue, held = self._queue, self._held
        while True:
            request = queue.take()
            if request is None:
                return  # closed and drained: clean exit
            held[slot] = request
            try:
                self._serve(request)
            except BaseException:
                # The worker is about to die.  Count the crash, make
                # sure the claimed request's caller is not left hanging,
                # and exit the thread; the supervisor respawns the slot.
                self._metrics.counter("worker_crashes").inc()
                request.complete(False, WorkerCrashedError(
                    f"worker died before answering {request.op!r}; the "
                    "read never ran and is safe to retry"
                ))
                return
            finally:
                held[slot] = None

    def _serve(self, request: Request) -> None:
        self._fire("worker")  # simulated pre-claim worker death
        now = time.monotonic()
        if request.future.cancelled() or (
                request.deadline is not None and now > request.deadline):
            # Not run: a cancelled read is counted so by the completion,
            # and an expired one answered unrun, so a burst drains at
            # queue speed.
            request.complete(False, DeadlineExceededError(
                f"request {request.op!r} spent {now - request.started:.3f}s "
                "queued, past its deadline"
            ))
            return
        request.started = now
        request.snapshot = self._snapshot  # pin one immutable version
        try:
            value = self._answer(request)
        except BaseException as exc:
            request.complete(False, exc)
            return
        request.complete(True, value)

    def _finish(self, request: Request, ok: bool, payload) -> None:
        """The one completion of an admitted read, reached through
        :meth:`Request.complete`, on whichever thread has its outcome: a
        pool worker, a pipe's receiver, the supervisor, a dying worker
        or :meth:`close`.  ``payload`` is the answer when ``ok``, else
        the exception.

        A read its caller cancelled counts under ``cancelled`` and
        nothing else (its half-open probe slot released).  A missed
        lookup's answer fills the cache and the caller gets its own
        copy.  A :class:`~repro.errors.DeadlineExceededError` counts
        under ``timeouts`` (a breaker failure, no latency sample); any
        other outcome is timed from ``started`` into the op's histogram
        and counts under ``completed`` / ``errors``.
        """
        if request.pipe is not None:
            with self._inflight_lock:
                self._inflight -= 1
        op, future = request.op, request.future
        metrics = self._metrics
        breaker = self._breaker_for(op)
        if not future.set_running_or_notify_cancel():
            metrics.counter("cancelled").inc()
            if breaker is not None:
                breaker.on_discard()
            return
        if ok:
            if request.key is not None:
                # Not stored once a swap superseded its snapshot: that
                # would re-pin the cache to the old stamp and thrash the
                # entries filled under the new one.
                snapshot = request.snapshot
                if snapshot is self._snapshot:
                    with self._cache_lock:
                        self._cache.store(request.key, snapshot.stamp,
                                          payload)
                payload = _own_copy(op, payload)
            metrics.observe(op, time.monotonic() - request.started)
            metrics.counter("completed").inc()
            if breaker is not None:
                breaker.on_success()
            future.set_result(payload)
            return
        if isinstance(payload, DeadlineExceededError):
            metrics.counter("timeouts").inc()
            if breaker is not None:
                breaker.on_failure()
            future.set_exception(payload)
            return
        metrics.observe(op, time.monotonic() - request.started)
        metrics.counter("errors").inc()
        if breaker is not None:
            if isinstance(payload, (QueryError, SchemaError)):
                # The op refused a malformed request: the server served
                # it correctly, the client was wrong.  An error in the
                # ledger, but one client's typos must not shed every
                # client's load — and it is no verdict for a half-open
                # probe (slot released).
                breaker.on_window_success()
                breaker.on_discard()
            else:
                breaker.on_failure()
        future.set_exception(payload)

    def _cache_key(self, op: str, args: tuple, kwargs: dict):
        if op == "point" and len(args) == 1 and not kwargs:
            return point_cache_key(args[0])
        if op == "range" and len(args) == 1 and not kwargs:
            return range_cache_key(args[0])
        if op == "iceberg" and 1 <= len(args) <= 2 and set(kwargs) <= {"op"}:
            comparator = args[1] if len(args) == 2 else kwargs.get("op", ">=")
            return iceberg_cache_key(args[0], comparator)
        if (op == "iceberg_in_range" and len(args) == 2
                and set(kwargs) <= {"op"}):
            return constrained_iceberg_cache_key(
                args[0], args[1], kwargs.get("op", ">="))
        return None

    def _answer(self, request: Request):
        """Execute one read against its pinned snapshot, through the
        stamped cache when the op is cacheable."""
        op = request.op
        self._fire(f"op:{op}")  # injected op errors / slow ops
        value = self._lookup(request)
        if value is MISS:
            value = self._ops[op](request.snapshot, *request.args,
                                  **request.kwargs)
        return value

    def _lookup(self, request: Request):
        """The caller's copy of the cached answer to ``request`` at its
        pinned snapshot, else :data:`~repro.core.query_cache.MISS` — a
        miss of a cacheable op sets ``request.key``, so the completion
        fills the cache.  Counts the hit or miss, and its demand, once."""
        cache = self._cache
        if cache is None:
            return MISS
        key = self._cache_key(request.op, request.args, request.kwargs)
        if key is None:
            return MISS
        heat = self._heat
        with self._cache_lock:
            value = cache.lookup(key, request.snapshot.stamp)
            if heat is not None:
                heat.note(key)
        if value is MISS:
            request.key = key
            return MISS
        return _own_copy(request.op, value)

    # -- supervisor ----------------------------------------------------------

    def _supervise_loop(self) -> None:
        while not self._stop_supervisor.wait(self._supervise_interval):
            self._respawn_dead_workers()
            self._supervise_extra()

    def _supervise_extra(self) -> None:
        """Extension point: subclasses piggyback additional supervision
        (e.g. the shard server's worker-*process* respawn and lagging-
        epoch repair) on the same supervisor thread."""

    def _respawn_dead_workers(self) -> None:
        """Replace dead worker threads, at a bounded rate.

        The rate bound (``MAX_RESTARTS_PER_WINDOW`` per
        ``RESTART_WINDOW_S``) keeps a crash loop from burning CPU on
        thread churn; slots over budget stay dead until the window
        slides and are retried on the next scan.
        """
        now = time.monotonic()
        with self._worker_lock:
            if self._closed:
                return
            window = self._restart_times
            while window and now - window[0] > self.RESTART_WINDOW_S:
                window.popleft()
            for slot, thread in enumerate(self._workers):
                if thread.is_alive():
                    continue
                if len(window) >= self.MAX_RESTARTS_PER_WINDOW:
                    return  # budget exhausted; retry next scan
                replacement = self._spawn_worker(slot)
                self._workers[slot] = replacement
                window.append(now)
                self._metrics.counter("worker_restarts").inc()
                replacement.start()

    def _held_reads(self) -> list:
        """The reads each worker holds now, one list per worker: a pool
        thread's claimed read (a shard server adds each worker process's
        forwards)."""
        return [[request] for request in list(self._held)
                if request is not None]

    def worker_health(self) -> dict:
        """Worker-pool liveness: alive/configured counts, supervisor
        restart/crash totals, the age of the oldest read a worker holds,
        and wedged workers (holding a read past ``WEDGE_TIMEOUT_S``)."""
        with self._worker_lock:
            threads = list(self._workers)
        now = time.monotonic()
        oldest = [max(now - request.started for request in reads)
                  for reads in self._held_reads() if reads]
        counters = self._metrics
        return {
            "configured": len(threads),
            "alive": sum(1 for t in threads if t.is_alive()),
            "restarts": counters.counter("worker_restarts").value,
            "crashes": counters.counter("worker_crashes").value,
            "supervised": self._supervisor is not None,
            "oldest_read_s": round(max(oldest, default=0.0), 3),
            "wedged": sum(1 for age in oldest if age > self.WEDGE_TIMEOUT_S),
        }

    # -- health --------------------------------------------------------------

    @property
    def breaker(self):
        """The admission circuit breaker (None when disabled)."""
        return self._breaker

    @property
    def write_degraded(self) -> bool:
        """True while the write pipeline is in degraded read-only mode."""
        return self._write_degraded

    @property
    def degraded_reason(self) -> Optional[dict]:
        """Why the server degraded (phase + error), or None."""
        return self._degraded_reason

    def health(self) -> dict:
        """The health/readiness report (also served as the ``health``
        op, where answering at all additionally proves a live worker).
        See :func:`~repro.serving.health.health_report`."""
        return health_report(self)

    def shard_health(self) -> Optional[dict]:
        """Worker-process fleet readout for ``health``/``stats()``; None
        for a server that has no process fleet."""
        return None

    # -- write path (single writer, snapshot swap) ---------------------------

    def insert(self, records) -> None:
        """Insert a batch; serialized with other writers, invisible to
        readers until the post-refreeze snapshot swap."""
        records = [tuple(r) for r in records]
        self._mutate("insert", lambda: self.warehouse.insert(records),
                     batch_key=("insert", tuple(records)))

    def delete(self, records) -> None:
        """Delete a batch; same publication discipline as :meth:`insert`."""
        records = [tuple(r) for r in records]
        self._mutate("delete", lambda: self.warehouse.delete(records),
                     batch_key=("delete", tuple(records)))

    def write(self, inserts=(), deletes=()) -> None:
        """Apply one mixed maintenance batch (deletes before inserts).

        The general batched write entry point: the whole batch runs as
        one :meth:`QCWarehouse.maintain
        <repro.core.warehouse.QCWarehouse.maintain>` transaction — one
        WAL record, one merged delta, one refreeze patch — and a
        *single* snapshot publication.
        """
        inserts = [tuple(r) for r in inserts]
        deletes = [tuple(r) for r in deletes]
        self._mutate(
            "write",
            lambda: self.warehouse.maintain(inserts=inserts, deletes=deletes),
            batch_key=("write", tuple(inserts), tuple(deletes)),
        )

    def modify(self, old_records, new_records) -> None:
        """Replace records (§3.3's delete-then-insert) as one serialized
        server operation — one mixed maintenance batch with a *single*
        snapshot publication, so readers never observe the
        deleted-but-not-reinserted middle."""
        old_records = [tuple(r) for r in old_records]
        new_records = [tuple(r) for r in new_records]
        self._mutate(
            "modify",
            lambda: self.warehouse.maintain(
                inserts=new_records, deletes=old_records
            ),
            batch_key=("write", tuple(new_records), tuple(old_records)),
        )

    def _mutate(self, op: str, apply, batch_key=None) -> None:
        """The recoverable write pipeline: maintain → refreeze →
        publish → warm, each phase with its own failure containment.

        ========== ==========================================================
        phase      on failure
        ========== ==========================================================
        maintain   transactional rollback already restored the tree; the
                   error re-raises to the caller, the batch's failure
                   count rises toward quarantine.
        refreeze   discard the suspect patch state and recompile the
                   frozen view from the dict tree; a second failure
                   enters degraded read-only mode.
        publish    retry once from a freshly recompiled view; a second
                   failure enters degraded read-only mode (readers keep
                   the last-good snapshot — the swap is the final
                   statement of :meth:`_publish`, so it cannot tear).
        warm       absorbed: warming is an optimization and the write
                   has already published.
        ========== ==========================================================

        Once maintenance succeeds the batch is durably applied (and WAL-
        logged); later-phase failures are *publication* failures — the
        write surfaces as :class:`~repro.errors.ServerDegradedError`
        but will become visible when recovery republishes.
        """
        if self._closed:
            raise ServerClosedError("server is closed")
        metrics = self._metrics
        warehouse = self.warehouse
        with self._write_lock:
            if self._write_degraded:
                # Probe: the fault may have cleared since we degraded.
                self._try_exit_degraded_locked(op)
            if batch_key is not None and batch_key in self._quarantined:
                raise WriteQuarantinedError(
                    f"write batch rejected: {self._quarantine_after} "
                    f"earlier attempts of this exact batch crashed the "
                    f"writer's maintenance phase"
                )
            warehouse.last_maintenance = None
            t0 = time.monotonic()
            try:
                self._fire("write:maintain")
                apply()
            except BaseException as exc:
                # Transactional maintenance: the tree is unchanged.
                metrics.counter("writes_failed").inc()
                self._note_write_error(op, "maintain", exc)
                self._note_maintain_failure(batch_key)
                raise
            self._note_maintain_success(batch_key)
            t1 = time.monotonic()
            # Bring the frozen view current *before* building the
            # snapshot, so the refreeze (incremental patch or full
            # recompile) is measured as its own phase and the publish
            # phase is just snapshot construction + the reference swap.
            try:
                self._fire("write:refreeze")
                warehouse.serving_tree
            except BaseException as exc:
                metrics.counter("refreeze_fallbacks").inc()
                self._note_write_error(op, "refreeze", exc)
                try:
                    self._fire("write:refreeze")  # a persistent fault
                    warehouse.invalidate_serving_view()
                    warehouse.serving_tree
                except BaseException as retry_exc:
                    raise self._enter_degraded_locked(
                        op, "refreeze", retry_exc
                    ) from retry_exc
            t2 = time.monotonic()
            try:
                self._fire("write:publish")
                self._publish()
            except BaseException as exc:
                metrics.counter("publish_retries").inc()
                self._note_write_error(op, "publish", exc)
                try:
                    self._fire("write:publish")  # a persistent fault
                    warehouse.invalidate_serving_view()
                    warehouse.serving_tree
                    self._publish()
                except BaseException as retry_exc:
                    raise self._enter_degraded_locked(
                        op, "publish", retry_exc
                    ) from retry_exc
            t3 = time.monotonic()
            try:
                self._fire("write:warm")
                self._warm_cache()
            except BaseException as exc:
                # Never fatal: the write has already published.
                metrics.counter("warm_failures").inc()
                self._note_write_error(op, "warm", exc)
            t4 = time.monotonic()
        refreeze = warehouse.last_refreeze
        if refreeze is not None:
            mode = refreeze.get("mode")
            name = "refreeze_patched" if mode == "patched" else "refreeze_full"
            metrics.counter(name).inc()
        metrics.observe(f"write:{op}", t4 - t0)
        metrics.observe("write_phase:maintain", t1 - t0)
        maintenance = warehouse.last_maintenance
        if maintenance is not None:
            # The batched engine's sub-phases: Δ-partition + classification
            # vs link derivation + structural apply vs cover-index upkeep.
            metrics.observe(
                "write_phase:maintain_partition", maintenance["partition_s"]
            )
            metrics.observe(
                "write_phase:maintain_merge", maintenance["merge_s"]
            )
            metrics.observe(
                "write_phase:maintain_index",
                maintenance.get("index_s", 0.0),
            )
        metrics.observe("write_phase:refreeze", t2 - t1)
        metrics.observe("write_phase:publish", t3 - t2)
        metrics.observe("write_phase:warm", t4 - t3)

    # -- write-pipeline fault state (write lock held) ------------------------

    def _note_write_error(self, op: str, phase: str, exc) -> None:
        self.last_write_error = {
            "op": op, "phase": phase, "error": repr(exc),
        }

    def _note_maintain_failure(self, batch_key) -> None:
        if batch_key is None:
            return
        count = self._write_failures.get(batch_key, 0) + 1
        self._write_failures[batch_key] = count
        if count >= self._quarantine_after:
            self._quarantined.add(batch_key)
            self._metrics.counter("writes_quarantined").inc()

    def _note_maintain_success(self, batch_key) -> None:
        if batch_key is not None:
            self._write_failures.pop(batch_key, None)

    def lift_quarantine(self) -> int:
        """Clear the write quarantine (e.g. after an operator fixed the
        underlying cause); returns how many batches were released."""
        with self._write_lock:
            released = len(self._quarantined)
            self._quarantined.clear()
            self._write_failures.clear()
        return released

    def _enter_degraded_locked(self, op: str, phase: str,
                               exc) -> ServerDegradedError:
        """Flip to degraded read-only mode; returns the error to raise."""
        if not self._write_degraded:
            self._write_degraded = True
            self._metrics.counter("degraded_entered").inc()
        self._degraded_reason = {
            "op": op, "phase": phase, "error": repr(exc),
        }
        return ServerDegradedError(
            f"write {op!r} applied its maintenance but the {phase} phase "
            f"failed even through its fallback ({exc!r}); server is now "
            f"degraded read-only, serving the last-good snapshot — the "
            f"write publishes when recovery succeeds"
        )

    def _try_exit_degraded_locked(self, op: str) -> None:
        """Probe the publication path; clears degraded mode on success,
        raises :class:`ServerDegradedError` when still broken."""
        try:
            self._fire("write:refreeze")
            self.warehouse.invalidate_serving_view()
            self.warehouse.serving_tree
            self._fire("write:publish")
            self._publish()
        except BaseException as exc:
            self._degraded_reason = {
                "op": op, "phase": "recovery", "error": repr(exc),
            }
            raise ServerDegradedError(
                f"server is degraded read-only and the recovery probe "
                f"failed again ({exc!r}); write {op!r} rejected"
            ) from exc
        self._write_degraded = False
        self._degraded_reason = None
        self._metrics.counter("degraded_exited").inc()

    def recover(self) -> bool:
        """Probe the write pipeline and exit degraded read-only mode.

        Returns True when the server is healthy afterwards (including
        when it was never degraded); False when the probe failed and
        the server stays degraded.  Writes probe implicitly, so calling
        this is only needed to recover without issuing a write.
        """
        with self._write_lock:
            if not self._write_degraded:
                return True
            try:
                self._try_exit_degraded_locked("recover")
            except ServerDegradedError:
                return False
        return True

    # -- cache warming (writer thread, post-swap) ----------------------------

    def _warm_cache(self) -> None:
        """Replay the hottest cached keys against the just-published
        snapshot, so readers find warm answers instead of a post-swap
        cold-miss storm, then halve the heat.  Runs on the writer
        thread, inside the write lock — the published snapshot cannot
        change underneath it."""
        cache, heat = self._cache, self._heat
        if heat is None:
            return
        snapshot = self._snapshot
        with self._cache_lock:
            keys = heat.hot_keys(self._warm_keys)
            heat.decay()
        warmed = 0
        for key in keys:
            try:
                value = self._replay(snapshot, key)
            except Exception:
                continue  # e.g. a label deleted by this very write
            with self._cache_lock:
                cache.store(key, snapshot.stamp, value)
            warmed += 1
        if warmed:
            with self._cache_lock:
                cache.warmed += warmed
            self._metrics.counter("cache_warmed").inc(warmed)

    @staticmethod
    def _replay(snapshot, key):
        """Recompute the answer a cache key denotes against ``snapshot``.

        Normalized range specs are themselves valid raw specs (``"*"``
        strings and candidate tuples), so every namespaced key family
        can be replayed verbatim.
        """
        kind = key[0]
        if kind == "point":
            return snapshot.point(key[1])
        if kind == "range":
            return snapshot.range(key[1])
        if kind == "iceberg":
            return snapshot.iceberg(key[1], op=key[2])
        if kind == "iceberg_range":
            return snapshot.iceberg_in_range(key[1], key[2], op=key[3])
        raise QueryError(f"unknown cache key namespace {kind!r}")

    # -- lifecycle & reporting -----------------------------------------------

    def close(self, timeout: Optional[float] = None) -> None:
        """Shut down: stop the supervisor, stop admissions, fail
        stranded requests, join the workers.  Idempotent.  After it
        returns no server thread is alive — the no-leaked-threads
        guarantee CI checks."""
        with self._lifecycle_lock:
            if self._closed:
                return
            self._closed = True
        # Supervisor first, so no worker is respawned mid-shutdown.
        self._halt_supervisor(timeout)
        for request in self._queue.close():
            self._metrics.counter("stranded").inc()
            request.complete(False, ServerClosedError(
                "server shut down before request ran"
            ))
        with self._worker_lock:
            workers = list(self._workers)
        for thread in workers:
            thread.join(timeout)
        # Warehouses running background work of their own (a segmented
        # warehouse's compactor) stop it here, keeping the no-leaked-
        # threads guarantee.
        self.warehouse.close()

    def _halt_supervisor(self, timeout: Optional[float] = None) -> None:
        """Stop the supervisor and wait out the scan it is in
        (idempotent)."""
        self._stop_supervisor.set()
        if self._supervisor is not None:
            self._supervisor.join(timeout)

    def __enter__(self) -> "QCServer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    @property
    def closed(self) -> bool:
        return self._closed

    # -- transports ----------------------------------------------------------

    def register_transport(self, transport) -> None:
        """Attach a front-door transport (must expose ``describe()`` and
        a boolean ``ready``); it then shows up in stats and gates health
        readiness until unregistered."""
        with self._transport_lock:
            if transport not in self._transports:
                self._transports.append(transport)

    def unregister_transport(self, transport) -> None:
        """Detach a front-door transport (idempotent)."""
        with self._transport_lock:
            try:
                self._transports.remove(transport)
            except ValueError:
                pass

    @property
    def transports(self) -> tuple:
        """The currently registered front-door transports."""
        with self._transport_lock:
            return tuple(self._transports)

    def stats(self) -> dict:
        """Operational readout: counters, per-op latency histograms,
        queue depth, worker/supervisor health, snapshot identity,
        degraded/breaker state, cache health.

        The admission ledger balances as ``submitted == completed +
        timeouts + errors + cancelled`` (stranded requests are counted
        under ``errors`` or ``cancelled``; ``shed`` and
        ``breaker_rejected`` requests were never submitted).
        """
        stats = self._metrics.to_dict()
        stats["workers"] = self.worker_health()
        stats["queue"] = {
            "depth": self._queue.depth(),
            "maxsize": self._queue.maxsize,
        }
        stats["snapshot"] = self._snapshot.describe()
        stats["serving"] = self.warehouse.serving
        stats["cache"] = (
            self._cache.stats() if self._cache is not None else None
        )
        if self._heat is not None:
            stats["cache"]["hot_tracked"] = len(self._heat)
        refreeze = self.warehouse.last_refreeze
        stats["refreeze"] = dict(refreeze) if refreeze is not None else None
        maintenance = self.warehouse.last_maintenance
        stats["maintenance"] = (
            dict(maintenance) if maintenance is not None else None
        )
        stats["degraded"] = {
            "writes": self._write_degraded,
            "reason": self._degraded_reason,
            "quarantined_batches": len(self._quarantined),
        }
        stats["breaker"] = (
            self._breaker.snapshot() if self._breaker is not None else None
        )
        segments = self.warehouse.segment_health()
        if segments is not None:
            stats["segments"] = segments
        shard = self.shard_health()
        if shard is not None:
            stats["shard"] = shard
        transports = self.transports
        if transports:
            stats["transports"] = [t.describe() for t in transports]
        stats["closed"] = self._closed
        return stats

    def __repr__(self):
        lsn, epoch = self._snapshot.stamp
        degraded = ", degraded" if self._write_degraded else ""
        return (
            f"QCServer(workers={len(self._workers)}, "
            f"queue={self._queue.depth()}/{self._queue.maxsize}, "
            f"snapshot=(lsn={lsn}, epoch={epoch}), "
            f"closed={self._closed}{degraded})"
        )
