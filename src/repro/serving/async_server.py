"""Asyncio TCP front door over :class:`~repro.serving.server.QCServer`.

The thread server's worker pool answers queries; what it lacked was a
*transport* that can hold tens of thousands of open connections without
a thread per client.  :class:`AsyncQCServer` supplies it: one asyncio
event loop accepts connections, parses the line protocol
(:mod:`~repro.serving.protocol`), and bridges each request into the
existing ``QCServer.submit()`` future machinery via
:func:`asyncio.wrap_future` — the worker pool, admission queue,
deadlines, metrics ledger, cache, circuit breaker, and the whole
fault-tolerance layer are reused unchanged, for the thread server and
the multi-process :class:`~repro.shard.server.ShardServer` alike.

**Backpressure is wired end to end** rather than left to TCP buffers:

* *Per-connection in-flight cap* — each connection may have at most
  ``max_inflight`` requests admitted but unanswered.  At the cap the
  read loop simply stops reading the socket, so a client that pipelines
  faster than the server answers is throttled by TCP flow control at
  the *sender*, and server-side memory per connection stays bounded
  (one queue of at most ``max_inflight`` pending responses).
* *Early protocol-level rejection* — when ``QCServer.submit`` sheds
  (admission queue full, circuit open), the transport immediately
  queues an ``error: ServerOverloadedError: ...`` response line instead
  of letting requests pile into socket buffers.  The client learns it
  must back off after one round trip, while workers never see the
  request.
* *Deadline propagation* — a client-supplied ``@<budget_s>`` line
  prefix becomes the request's admission deadline, so work the client
  has given up on is dropped at dequeue instead of served into the
  void.
* *Connection cap* — beyond ``max_connections`` concurrent sessions,
  new connections get a single rejection line and are closed before
  they allocate any per-connection state.
* *Slow readers shed load, not memory* — responses are written with
  ``drain()`` under the transport's write high-water mark; a client
  that stops reading (slow-loris) blocks only its own connection's
  responder at the cap, never the event loop or the worker pool.

**Clean drain**: :meth:`AsyncQCServer.aclose` stops the listener,
cancels every connection's read loop, and then *waits for the
responders to drain* — every admitted request is answered (or failed by
the server's own shutdown path) before the transport returns, so no
asyncio task outlives the close, no wrapped future is stranded, and the
server's admission ledger (``submitted == completed + timeouts +
errors + cancelled``) still balances.  A bounded ``drain_timeout``
guards against a wedged server: past it, remaining tasks are cancelled
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
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Optional

from repro.errors import ReproError, ServerOverloadedError, ServingError
from repro.serving import protocol
from repro.serving.metrics import Counter

#: Transport counters, in display order.
COUNTERS = (
    "connections_opened", "connections_closed", "connections_rejected",
    "requests", "writes", "shed_early", "protocol_errors",
)


class _TextItem:
    """A response already formatted (stats, early rejections)."""

    __slots__ = ("text",)

    def __init__(self, text: str):
        self.text = text


class _ErrorItem:
    """A failure to report without any in-flight work behind it."""

    __slots__ = ("exc",)

    def __init__(self, exc: BaseException):
        self.exc = exc


class _AwaitItem:
    """An admitted request whose answer is still in flight."""

    __slots__ = ("parsed", "awaitable")

    def __init__(self, parsed, awaitable):
        self.parsed = parsed
        self.awaitable = awaitable


class _Connection:
    """Per-connection state: the stream pair, the ordered response
    queue, and the in-flight semaphore that implements the cap."""

    __slots__ = ("reader", "writer", "queue", "sem", "broken")

    def __init__(self, reader, writer, max_inflight: int):
        self.reader = reader
        self.writer = writer
        self.queue: asyncio.Queue = asyncio.Queue()
        self.sem = asyncio.Semaphore(max_inflight)
        self.broken = False


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
        Per-connection cap on admitted-but-unanswered requests; past it
        the connection's socket is simply not read (TCP backpressure to
        the sender).
    default_timeout:
        Deadline applied to requests without an ``@<budget_s>`` prefix
        (None = the server's own default).
    drain_timeout:
        Upper bound on how long :meth:`aclose` waits for in-flight
        requests to drain before cancelling them.
    """

    def __init__(self, server, host: str = "127.0.0.1", port: int = 0, *,
                 max_connections: int = 10_000, max_inflight: int = 32,
                 default_timeout: Optional[float] = None,
                 drain_timeout: float = 30.0, name: str = "qcasync"):
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
        self._drain_timeout = drain_timeout
        self.name = name
        self._counters = {c: Counter(c) for c in COUNTERS}
        self._active = 0
        self._listener = None
        self._loop = None
        self._closing = False
        self._handlers: set = set()
        self._responders: set = set()
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
        self._listener = await asyncio.start_server(
            self._handle_connection, self._host, self._requested_port
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

        Cancels read loops (no new admissions), then waits up to
        ``drain_timeout`` for responders to finish answering what was
        admitted; anything still pending after that is cancelled so no
        task survives the close.  Idempotent.
        """
        if self._closing:
            return
        self._closing = True
        if self._listener is not None:
            self._listener.close()
            await self._listener.wait_closed()
        for task in list(self._handlers):
            task.cancel()
        pending = self._handlers | self._responders
        if pending:
            done, still_pending = await asyncio.wait(
                pending, timeout=self._drain_timeout
            )
            if still_pending:
                # Wedged drain (e.g. the server itself hung): force it.
                for task in still_pending:
                    task.cancel()
                await asyncio.gather(*still_pending, return_exceptions=True)
        if self._write_pool is not None:
            # All connection tasks are done, so the pool is idle (or
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

    async def _handle_connection(self, reader, writer) -> None:
        if self._closing or self._active >= self.max_connections:
            # Reject before allocating any per-connection state: one
            # protocol-level line, then close.  Bounded memory under a
            # connection flood is exactly this branch.
            self._count("connections_rejected")
            try:
                writer.write(
                    (protocol.format_error(ServerOverloadedError(
                        f"connection limit reached "
                        f"({self.max_connections} active); retry later"
                    )) + "\n").encode("utf-8")
                )
                await writer.drain()
            except (ConnectionError, OSError):
                pass
            writer.close()
            return
        self._active += 1
        self._count("connections_opened")
        task = asyncio.current_task()
        self._handlers.add(task)
        conn = _Connection(reader, writer, self.max_inflight)
        responder = asyncio.create_task(
            self._respond_loop(conn), name=f"{self.name}-responder"
        )
        self._responders.add(responder)
        try:
            await self._read_loop(conn)
        except asyncio.CancelledError:
            pass  # transport closing: fall through to the drain
        except (ConnectionError, OSError):
            pass  # peer vanished mid-read
        finally:
            conn.queue.put_nowait(None)
            try:
                await responder
            except asyncio.CancelledError:
                pass  # forced shutdown cancelled the drain underneath us
            self._responders.discard(responder)
            self._handlers.discard(task)
            self._active -= 1
            self._count("connections_closed")
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_loop(self, conn: _Connection) -> None:
        n_dims = self._server.warehouse.table.n_dims
        while True:
            try:
                raw = await conn.reader.readline()
            except (ValueError, asyncio.LimitOverrunError) as exc:
                # Oversized line: the stream is no longer parseable.
                self._count("protocol_errors")
                await conn.sem.acquire()
                conn.queue.put_nowait(_ErrorItem(exc))
                return
            if not raw:
                return  # EOF
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError as exc:
                self._count("protocol_errors")
                await conn.sem.acquire()
                conn.queue.put_nowait(_ErrorItem(exc))
                continue
            if not line or line.startswith("#"):
                continue
            # The backpressure point: at the in-flight cap this blocks,
            # the socket stops being read, and TCP pushes back on the
            # sender.  Every queued item holds one slot (errors too, so
            # a garbage stream cannot grow the response queue).
            await conn.sem.acquire()
            try:
                parsed = protocol.parse_line(line, n_dims=n_dims)
            except ReproError as exc:
                self._count("protocol_errors")
                conn.queue.put_nowait(_ErrorItem(exc))
                continue
            if parsed.kind == "quit":
                conn.sem.release()
                return
            conn.queue.put_nowait(self._dispatch(parsed))

    def _dispatch(self, parsed: protocol.ParsedLine):
        """Turn one parsed request into a queued response item.

        Queries are submitted to the server *here*, on the read loop, so
        admission-control rejections surface immediately as protocol
        errors (early shedding) while accepted work proceeds
        concurrently and answers in submission order.
        """
        server = self._server
        if parsed.kind == "stats":
            try:
                return _TextItem(
                    protocol.format_response(parsed, server.stats())
                )
            except Exception as exc:
                return _ErrorItem(exc)
        if parsed.kind == "write":
            fn = server.insert if parsed.command == "insert" else server.delete
            future = self._loop.run_in_executor(
                self._write_pool, fn, [parsed.args[0]]
            )
            self._count("writes")
            return _AwaitItem(parsed, future)
        timeout = (
            parsed.timeout if parsed.timeout is not None
            else self._default_timeout
        )
        try:
            future = server.submit(
                parsed.op, *parsed.args, timeout=timeout, **parsed.kwargs
            )
        except BaseException as exc:
            if isinstance(exc, ServerOverloadedError):
                self._count("shed_early")
            return _ErrorItem(exc)
        self._count("requests")
        return _AwaitItem(parsed, asyncio.wrap_future(future, loop=self._loop))

    async def _respond_loop(self, conn: _Connection) -> None:
        """Write responses in submission order, releasing the
        connection's in-flight slot as each one resolves.

        A broken peer (slow-loris that closed, reset, …) flips the
        connection to drain mode: remaining answers are still awaited —
        keeping the server ledger balanced — but not written.
        """
        while True:
            item = await conn.queue.get()
            if item is None:
                return
            try:
                if isinstance(item, _TextItem):
                    text = item.text
                elif isinstance(item, _ErrorItem):
                    text = protocol.format_error(item.exc)
                else:
                    try:
                        value = await item.awaitable
                        text = protocol.format_response(item.parsed, value)
                    except asyncio.CancelledError:
                        raise  # forced shutdown: do not swallow
                    except BaseException as exc:
                        text = protocol.format_error(exc)
            finally:
                conn.sem.release()
            if conn.broken:
                continue
            try:
                conn.writer.write(text.encode("utf-8") + b"\n")
                await conn.writer.drain()
            except (ConnectionError, OSError, RuntimeError):
                conn.broken = True

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
                "active": self._active,
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
            f"active={self._active}/{self.max_connections}, "
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
