"""Asyncio TCP front door over :class:`~repro.serving.server.QCServer`.

The thread server's worker pool answers queries; what it lacked was a
*transport* that can hold tens of thousands of open connections without
a thread per client.  :class:`AsyncQCServer` supplies it: one asyncio
event loop accepts connections and serves each with one
:class:`asyncio.Protocol` object that parses the line protocol
(:mod:`~repro.serving.protocol`) and answers every request **on the
first thread that can answer it** — the admission queue, deadlines,
metrics ledger, cache, circuit breaker and the whole fault-tolerance
layer are the server's own, for the thread server and the multi-process
:class:`~repro.shard.server.ShardServer` alike.

**Which thread runs what** (one request, left to right):

=================  =======================================  ==============
step               loop thread (``{name}-loop``)            other threads
=================  =======================================  ==============
socket read        ``data_received``: every complete line
                   of the read is parsed and dispatched,
                   in order
cache hit          ``QCServer.cached_answer`` → formatted,
                   placed in its response slot
miss / uncached    ``QCServer.submit`` (admission, early    a worker
                   shedding, the ``@<budget>`` deadline)    answers it
write              handed to the 1-thread write executor    that thread
                   (single-writer discipline)               runs it
``stats``          answered inline
completion         ``call_soon_threadsafe`` → the slot is   the resolving
                   filled                                   thread calls it
socket write       every answer ready at the head of the
                   connection's order, in ONE
                   ``transport.write`` per read or
                   completion
=================  =======================================  ==============

A cache hit therefore never leaves the loop thread: no future, no
queue, no second thread — a dict lookup is not worth two hand-offs.
It is answered inline only under the conditions
:meth:`QCServer.cached_answer <repro.serving.server.QCServer.
cached_answer>` states (cache on and key cacheable, server open, op
registered, no fault plan installed, breaker CLOSED, looked up at the
published snapshot's stamp); anything else is admitted through
``submit()`` exactly as before.  Responses leave in **submission
order** per connection: each request takes a slot in a deque when it
is dispatched, and only the ready slots at the head are written — a
hit behind an unanswered miss waits its turn.

**Backpressure is wired end to end** rather than left to TCP buffers:

* *Per-connection in-flight cap* — each connection may have at most
  ``max_inflight`` requests dispatched but unwritten.  At the cap the
  connection stops parsing and pauses reading its socket, so a
  client that pipelines faster than the server answers is throttled by
  TCP flow control at the *sender*, and server-side memory per
  connection stays bounded (``max_inflight`` slots plus at most one
  socket read of unparsed lines, none longer than the line limit).
* *Early protocol-level rejection* — when ``QCServer.submit`` sheds
  (admission queue full, circuit open), the connection immediately
  answers ``error: ServerOverloadedError: ...`` instead of letting
  requests pile into socket buffers.  The client learns it must back
  off after one round trip, while workers never see the request.
* *Deadline propagation* — a client-supplied ``@<budget_s>`` line
  prefix becomes the request's admission deadline, so work the client
  has given up on is dropped at dequeue instead of served into the
  void.
* *Connection cap* — beyond ``max_connections`` concurrent sessions,
  new connections get a single rejection line and are closed before
  they hold any request state.
* *Slow readers shed load, not memory* — when a client stops reading
  (slow-loris) the transport's write buffer passes its high-water mark
  and calls ``pause_writing()``: the connection stops writing *and*
  stops reading, so its ready answers stay in their (capped) slots and
  nothing else — never the event loop or the worker pool — waits on it.
* *Malformed input is answered, not trusted* — a request line over
  :data:`LINE_LIMIT` bytes or one that is not UTF-8 gets a typed
  ``error:`` line (the oversized one also ends the session: the stream
  is no longer parseable).

**Clean drain**: :meth:`AsyncQCServer.aclose` stops the listener, stops
every connection's reading, and then *waits for the admitted requests
to be answered* — each one is written (or, for a peer that vanished,
dropped once it resolves) before its connection closes, so no asyncio
task outlives the close, no future is stranded, and the server's
admission ledger (``submitted == completed + timeouts + errors +
cancelled``) still balances.  A bounded ``DRAIN_TIMEOUT_S`` guards
against a wedged server: past it, the remaining connections are aborted
(the underlying futures then resolve through ``QCServer``'s own
stranded-request accounting).

Writes (``insert`` / ``delete``) run on a dedicated single-thread
executor so the event loop never blocks on the maintain → refreeze →
publish pipeline; the single thread preserves the single-writer
discipline across all connections.

:class:`AsyncServerThread` runs the whole loop in a dedicated
non-daemon thread for synchronous callers (the CLI, tests, benchmark
harnesses); on close it audits the loop for leftover tasks — the
no-orphaned-tasks guarantee the backpressure suite asserts.
"""

from __future__ import annotations

import asyncio
import socket
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Optional

from repro.core.query_cache import MISS
from repro.errors import ReproError, ServerOverloadedError, ServingError
from repro.serving import protocol
from repro.serving.metrics import Counter

#: Transport counters, in display order.
COUNTERS = (
    "connections_opened", "connections_closed", "connections_rejected",
    "requests", "writes", "shed_early", "protocol_errors",
)

#: Longest request line accepted, in bytes (asyncio's own stream-reader
#: default).
LINE_LIMIT = 1 << 16


class _Slot:
    """One response's place in its connection's order; ``text`` is None
    until the answer is in."""

    __slots__ = ("text",)

    def __init__(self, text: Optional[str] = None):
        self.text = text


class _Session(asyncio.Protocol):
    """One connection: its unparsed bytes, its response slots in
    submission order, and the three conditions under which it stops
    taking requests (cap reached, peer not reading, session over).

    Every method runs on the loop thread.  :meth:`_advance` is the one
    place state moves: parse what may be parsed, write what is ready,
    match the socket's read side to what is left — called after every
    event that can change any of it.
    """

    def __init__(self, door: "AsyncQCServer"):
        self.door = door
        self.transport = None
        self.n_dims = door._server.warehouse.table.n_dims
        self.buffer = b""       # received, not yet parsed
        self.slots: deque = deque()
        self.accepting = False  # False for good: quit, oversized line,
        #                         EOF consumed, peer lost, door closing
        self.eof = False        # the peer sent everything it will send
        self.writable = True    # its write buffer is under high water
        self.lost = False       # peer gone: answers drain into the void

    # -- transport events ----------------------------------------------------

    def connection_made(self, transport) -> None:
        self.transport = transport
        door = self.door
        if door._closing or len(door._sessions) >= door.max_connections:
            # Reject before holding any request state: one protocol-
            # level line, then close.  Bounded memory under a
            # connection flood is exactly this branch.
            door._count("connections_rejected")
            transport.write((protocol.format_error(ServerOverloadedError(
                f"connection limit reached "
                f"({door.max_connections} active); retry later"
            )) + "\n").encode("utf-8"))
            transport.close()
            return
        self.accepting = True
        door._sessions.add(self)
        door._count("connections_opened")

    def data_received(self, data: bytes) -> None:
        if self.accepting:
            self.buffer += data
            self._advance()

    def eof_received(self) -> bool:
        self.eof = True
        self._advance()
        return True  # keep the write side open: answers are still due

    def pause_writing(self) -> None:
        # Called from inside our own ``transport.write``: the
        # ``_advance`` that is writing sees the flag when it returns.
        self.writable = False

    def resume_writing(self) -> None:
        self.writable = True
        self._advance()

    def connection_lost(self, exc) -> None:
        self.lost = True
        self.stop()

    # -- driven by the door --------------------------------------------------

    def stop(self) -> None:
        """Take no more requests; what was admitted is still answered,
        then the connection closes."""
        self.accepting = False
        self.buffer = b""
        self._advance()

    def abandon(self) -> None:
        """Forced end of a wedged drain: drop the connection and the
        slots nobody will fill in time."""
        self.lost = True
        self.slots.clear()
        self.transport.abort()
        self.stop()

    def answer(self, slot: _Slot, parsed, future) -> None:
        """Completion of an admitted request (scheduled onto the loop by
        the thread that resolved ``future``)."""
        try:
            slot.text = protocol.format_response(parsed, future.result())
        except BaseException as exc:
            # Whatever the worker stored goes on the wire verbatim —
            # injected crashes are BaseExceptions and still an answer.
            slot.text = protocol.format_error(exc)
        self._advance()

    # -- the state machine ---------------------------------------------------

    def _advance(self) -> None:
        self._take_lines()
        while self._flush() and self.buffer:
            self._take_lines()  # writing made room under the cap
        if not self.accepting and not self.slots:
            if self.lost:
                self.door._forget(self)
            else:
                self.transport.close()  # flushes, then connection_lost
        elif not (self.lost or self.eof):
            # The backpressure point: at the in-flight cap (or behind a
            # peer that is not reading) the socket stops being read and
            # TCP pushes back on the sender.  Both calls are no-ops when
            # the transport is already in the state asked for.
            if (self.accepting and self.writable
                    and len(self.slots) < self.door.max_inflight):
                self.transport.resume_reading()
            else:
                self.transport.pause_reading()

    def _take_lines(self) -> None:
        """Parse and dispatch buffered lines, in order, while the
        connection may take requests.  Every line that is answered —
        errors too, so a garbage stream cannot grow the deque — holds a
        slot until its answer is written."""
        door = self.door
        slots = self.slots
        cap = door.max_inflight
        buffer = self.buffer
        start = 0
        while self.accepting and self.writable and len(slots) < cap:
            end = buffer.find(b"\n", start)
            if end < 0:
                if len(buffer) - start > LINE_LIMIT:
                    end = len(buffer)  # refused below, as a whole
                elif self.eof:
                    # The peer's last line may lack its newline.
                    end = len(buffer)
                    self.accepting = False
                else:
                    break
            raw = buffer[start:end]
            start = end + 1
            if len(raw) > LINE_LIMIT:
                # The stream is no longer parseable: answer, then end.
                self._refuse(ValueError(
                    f"request line exceeds {LINE_LIMIT} bytes"
                ))
                self.accepting = False
                break
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError as exc:
                self._refuse(exc)
                continue
            if not line or line.startswith("#"):
                continue
            try:
                parsed = protocol.parse_line(line, n_dims=self.n_dims)
            except ReproError as exc:
                self._refuse(exc)
                continue
            if parsed.kind == "quit":
                self.accepting = False
                break
            slots.append(door._dispatch(self, parsed))
        self.buffer = buffer[start:] if self.accepting else b""

    def _refuse(self, exc: Exception) -> None:
        """A line that cannot be a request: a typed error takes its
        place in the order."""
        self.door._count("protocol_errors")
        self.slots.append(_Slot(protocol.format_error(exc)))

    def _flush(self) -> bool:
        """Write every answer ready at the head of the order in one
        ``transport.write``; True when slots were freed."""
        if not (self.writable or self.lost):
            return False  # the peer is not reading: hold, stay capped
        slots = self.slots
        ready = []
        while slots and slots[0].text is not None:
            ready.append(slots.popleft().text)
        if not ready:
            return False
        if not self.lost:
            ready.append("")  # the last answer's newline
            self.transport.write("\n".join(ready).encode("utf-8"))
        return True


class AsyncQCServer:
    """The asyncio open-loop front door (see module docstring).

    Parameters
    ----------
    server:
        The :class:`~repro.serving.server.QCServer` (or
        :class:`~repro.shard.server.ShardServer`) answering requests.
        The transport does not own it: close the transport first, then
        the server.
    host, port:
        Listen address; ``port=0`` binds an ephemeral port (read it back
        from :attr:`port` after :meth:`start`).
    max_connections:
        Concurrent session cap; connections beyond it receive one
        ``error: ServerOverloadedError`` line and are closed.
    max_inflight:
        Per-connection cap on dispatched-but-unwritten requests; past it
        the connection's socket is simply not read (TCP backpressure to
        the sender).
    default_timeout:
        Deadline applied to requests without an ``@<budget_s>`` prefix
        (None = the server's own default).
    """

    #: Upper bound (seconds) on how long :meth:`aclose` waits for
    #: in-flight requests to drain before aborting their connections.
    DRAIN_TIMEOUT_S = 30.0

    def __init__(self, server, host: str = "127.0.0.1", port: int = 0, *,
                 max_connections: int = 10_000, max_inflight: int = 32,
                 default_timeout: Optional[float] = None,
                 name: str = "qcasync"):
        if max_connections < 1:
            raise ServingError(
                f"need at least one connection slot, got {max_connections}"
            )
        if max_inflight < 1:
            raise ServingError(
                f"per-connection in-flight cap must be >= 1, "
                f"got {max_inflight}"
            )
        self._server = server
        self._host = host
        self._requested_port = port
        self.max_connections = max_connections
        self.max_inflight = max_inflight
        self._default_timeout = default_timeout
        self.name = name
        self._counters = {c: Counter(c) for c in COUNTERS}
        self._listener = None
        self._loop = None
        self._closing = False
        #: Connections that are open or still owe admitted answers.
        self._sessions: set = set()
        self._drained: Optional[asyncio.Future] = None
        self._write_pool: Optional[ThreadPoolExecutor] = None

    # -- lifecycle -----------------------------------------------------------

    @property
    def host(self) -> str:
        return self._host

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` after :meth:`start`)."""
        if self._listener is not None and self._listener.sockets:
            return self._listener.sockets[0].getsockname()[1]
        return self._requested_port

    @property
    def ready(self) -> bool:
        """Listener readiness: started, accepting, and not draining."""
        return (
            self._listener is not None
            and self._listener.is_serving()
            and not self._closing
        )

    async def start(self) -> "AsyncQCServer":
        """Bind the listener and start accepting connections."""
        if self._listener is not None:
            raise ServingError("transport already started")
        self._loop = asyncio.get_running_loop()
        self._write_pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix=f"{self.name}-writer"
        )
        # A connect burst past the accept queue waits out a SYN
        # retransmit (a second or more), so the queue is sized to the
        # connections the door admits, within what the kernel allows.
        self._listener = await self._loop.create_server(
            lambda: _Session(self), self._host, self._requested_port,
            backlog=min(self.max_connections, socket.SOMAXCONN),
        )
        self._server.register_transport(self)
        return self

    async def serve_forever(self) -> None:
        """Serve until cancelled (the CLI's foreground mode)."""
        if self._listener is None:
            await self.start()
        await self._listener.serve_forever()

    async def aclose(self) -> None:
        """Stop accepting, drain in-flight requests, stop cleanly.

        Stops every connection's reading (no new admissions), then
        waits up to :attr:`DRAIN_TIMEOUT_S` for what was admitted to be
        answered and the connections to close; anything still open
        after that is aborted so nothing survives the close.
        Idempotent.
        """
        if self._closing:
            return
        self._closing = True
        if self._listener is not None:
            self._listener.close()
            await self._listener.wait_closed()
        for session in list(self._sessions):
            session.stop()
        if self._sessions:
            self._drained = self._loop.create_future()
            await asyncio.wait({self._drained}, timeout=self.DRAIN_TIMEOUT_S)
            # Wedged drain (e.g. the server itself hung): force it.
            for session in list(self._sessions):
                session.abandon()
        if self._write_pool is not None:
            # Every connection is done, so the pool is idle (or
            # finishing its last write); shutdown is near-instant.
            self._write_pool.shutdown(wait=True)
        self._server.unregister_transport(self)

    async def __aenter__(self) -> "AsyncQCServer":
        await self.start()
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.aclose()

    # -- connection handling -------------------------------------------------

    def _count(self, name: str, n: int = 1) -> None:
        self._counters[name].inc(n)

    def _forget(self, session: _Session) -> None:
        """``session`` is closed and owes nothing (idempotent)."""
        if session not in self._sessions:
            return
        self._sessions.remove(session)
        self._count("connections_closed")
        drained = self._drained
        if drained is not None and not self._sessions and not drained.done():
            drained.set_result(None)

    def _dispatch(self, session: _Session,
                  parsed: protocol.ParsedLine) -> _Slot:
        """One parsed request → its response slot, filled here when the
        loop thread can answer (cache hit, ``stats``, a refusal) and by
        :meth:`_Session.answer` otherwise.

        Queries are submitted to the server *here*, on the loop, so
        admission-control rejections surface immediately as protocol
        errors (early shedding) while accepted work proceeds
        concurrently and answers in submission order.
        """
        server = self._server
        if parsed.kind == "stats":
            try:
                return _Slot(protocol.format_response(parsed, server.stats()))
            except Exception as exc:
                return _Slot(protocol.format_error(exc))
        if parsed.kind == "write":
            fn = server.insert if parsed.command == "insert" else server.delete
            future = self._write_pool.submit(fn, [parsed.args[0]])
            self._count("writes")
        else:
            try:
                value = server.cached_answer(
                    parsed.op, parsed.args, parsed.kwargs
                )
                if value is not MISS:
                    self._count("requests")
                    return _Slot(protocol.format_response(parsed, value))
                timeout = (
                    parsed.timeout if parsed.timeout is not None
                    else self._default_timeout
                )
                future = server.submit(
                    parsed.op, *parsed.args, timeout=timeout, **parsed.kwargs
                )
            except Exception as exc:
                if isinstance(exc, ServerOverloadedError):
                    self._count("shed_early")
                return _Slot(protocol.format_error(exc))
            self._count("requests")
        slot = _Slot()
        call_soon = self._loop.call_soon_threadsafe

        def resolved(future) -> None:
            # On whichever thread resolved the future: one hop back.
            try:
                call_soon(session.answer, slot, parsed, future)
            except RuntimeError:
                pass  # loop closed after a forced drain: nobody waits

        future.add_done_callback(resolved)
        return slot

    # -- reporting -----------------------------------------------------------

    def describe(self) -> dict:
        """JSON-ready transport readout for stats/health."""
        counters = {c: self._counters[c].value for c in COUNTERS}
        return {
            "kind": "asyncio",
            "name": self.name,
            "listening": self.ready,
            "host": self._host,
            "port": self.port,
            "connections": {
                "active": len(self._sessions),
                "max": self.max_connections,
                "opened": counters["connections_opened"],
                "closed": counters["connections_closed"],
                "rejected": counters["connections_rejected"],
            },
            "max_inflight_per_connection": self.max_inflight,
            "requests": counters["requests"],
            "writes": counters["writes"],
            "shed_early": counters["shed_early"],
            "protocol_errors": counters["protocol_errors"],
        }

    def __repr__(self):
        return (
            f"AsyncQCServer({self._host}:{self.port}, "
            f"active={len(self._sessions)}/{self.max_connections}, "
            f"ready={self.ready})"
        )


class AsyncServerThread:
    """Run an :class:`AsyncQCServer` event loop in a dedicated thread.

    For synchronous callers: the CLI's ``serve --async``, the oracle
    and backpressure tests, and the open-loop benchmark all start the
    loop here, talk to it over TCP, and join it on :meth:`close`.  The
    thread is non-daemon — the repo-wide no-leaked-threads guarantee
    applies — and on shutdown the loop is audited for leftover tasks
    (:attr:`leftover_tasks`), which must be empty after a clean drain.

    >>> handle = AsyncServerThread(server, port=0)
    >>> client = LineClient(handle.host, handle.port)
    >>> ...
    >>> handle.close()
    >>> assert handle.leftover_tasks == ()
    """

    def __init__(self, server, host: str = "127.0.0.1", port: int = 0,
                 *, name: str = "qcasync", **kwargs):
        self._ready = threading.Event()
        self._error: Optional[BaseException] = None
        self._stop: Optional[asyncio.Event] = None
        self.door: Optional[AsyncQCServer] = None
        self.loop: Optional[asyncio.AbstractEventLoop] = None
        self.leftover_tasks: tuple = ()
        self.host = host
        self.port = port
        self._server = server
        self._name = name
        self._kwargs = kwargs
        self._thread = threading.Thread(
            target=self._run, name=f"{name}-loop", daemon=False
        )
        self._thread.start()
        self._ready.wait()
        if self._error is not None:
            self._thread.join()
            raise self._error

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # pragma: no cover - defensive
            if not self._ready.is_set():
                self._error = exc
                self._ready.set()
            else:
                raise

    async def _main(self) -> None:
        self.loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        door = AsyncQCServer(
            self._server, self.host, self.port,
            name=self._name, **self._kwargs,
        )
        try:
            await door.start()
        except BaseException as exc:
            self._error = exc
            self._ready.set()
            return
        self.door = door
        self.port = door.port
        self._ready.set()
        await self._stop.wait()
        await door.aclose()
        current = asyncio.current_task()
        self.leftover_tasks = tuple(
            t for t in asyncio.all_tasks() if t is not current and not t.done()
        )
        for task in self.leftover_tasks:  # pragma: no cover - defensive
            task.cancel()

    def close(self) -> None:
        """Drain the transport and join the loop thread.  Idempotent."""
        if not self._thread.is_alive():
            return
        if self.loop is not None and self._stop is not None:
            self.loop.call_soon_threadsafe(self._stop.set)
        self._thread.join()

    def __enter__(self) -> "AsyncServerThread":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
