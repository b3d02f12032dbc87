"""The serving line protocol, factored out of the transports.

One request per line, one response per request.  The grammar is the one
``python -m repro serve`` has spoken over stdin since the serving PR;
this module extracts parsing and response formatting so the asyncio TCP
front door (:mod:`~repro.serving.async_server`), the stdin REPL, the
open-loop load harness (:mod:`~repro.serving.arrivals`), and the tests
all share a single definition instead of four drifting copies.

Request lines::

    [@<budget_s>] <command> [arguments]

    point S2,*,f              range S1|S2,*,f        iceberg 9 >=
    rollup S2,P1,f            rollups S2,P1,f        drilldowns S2,P1,f
    rollup_exceptions S2,P1,f class *,P1,*           open S2,P1,f
    insert S3,P1,s,5.0        delete S3,P1,s,5.0
    stats                     health                 quit

The optional ``@<budget_s>`` prefix (e.g. ``@0.25 point S2,*,f``) is the
client-supplied latency budget in seconds: the transport propagates it
as the request's admission deadline, so a request that cannot be served
within its budget is answered with ``DeadlineExceededError`` instead of
consuming a worker after the client has given up.  Labels are text
on the wire; a session reads each by its dimension's type
(:func:`line_parser`), so ``point 1,*`` asks an ``int`` dimension for 1.

Responses keep the stdin protocol's framing so existing scripts parse
either transport:

* single line for ``point`` / ``class`` / ``open`` (JSON) / ``insert`` /
  ``delete`` (``OK``) / ``stats`` / ``health`` (JSON);
* multiple ``cell\\tvalue`` lines terminated by ``# <n> cells`` for
  ``range``, ``# <n> classes`` for the rollup family, and ``# end`` for
  ``iceberg``;
* a single ``error: <ExceptionType>: <message>`` line for any failure —
  including protocol-level load shedding, where the wire carries
  ``ServerOverloadedError`` *before* the request ever occupies a worker.

:func:`response_complete` encodes the framing rules once, so pipelining
clients (many requests in flight on one connection, responses in
submission order) can split the byte stream back into answers.
"""

from __future__ import annotations

import json
import math
import socket
from collections import deque
from functools import partial
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple, Optional

from repro.cube.table import LABEL_PARSERS
from repro.errors import QueryError

#: Commands answered with exactly one line.
SINGLE_LINE = frozenset((
    "point", "class", "open", "insert", "delete", "stats", "health",
))
#: Commands answered with ``cell\tvalue`` lines plus a ``# ...`` trailer.
ROLLUP_FAMILY = frozenset((
    "rollup", "rollups", "drilldowns", "rollup_exceptions",
))
#: Protocol command -> server op, where the names differ.
COMMAND_OPS = {"class": "class_of", "open": "open_class"}

#: Every command the protocol accepts (used for error messages).
COMMANDS = tuple(sorted(
    SINGLE_LINE | ROLLUP_FAMILY | {"range", "iceberg", "quit", "exit"}
))


def parse_cell(text: str) -> tuple:
    """Parse ``"S2,*,f"`` into a raw cell tuple."""
    return tuple(map(str.strip, text.split(",")))


def parse_range_spec(text: str) -> tuple:
    """Parse ``"S1|S2,*,f"`` into a raw range spec."""
    spec = []
    for part in text.split(","):
        part = part.strip()
        if part == "*":
            spec.append("*")
        elif "|" in part:
            spec.append([v.strip() for v in part.split("|")])
        else:
            spec.append(part)
    return tuple(spec)


def coerce_record(fields, n_dims: int) -> tuple:
    """An insert/delete record from CLI fields: measure positions (after
    the dimensions) become floats when they parse as such."""
    record = list(fields[:n_dims])
    for value in fields[n_dims:]:
        try:
            record.append(float(value))
        except ValueError:
            record.append(value)
    return tuple(record)


def label_parsers(label_types) -> Optional[tuple]:
    """Each dimension's :data:`~repro.cube.table.LABEL_PARSERS` entry
    (``str`` while untyped); None when all are ``str``, as a text field
    is then its label already."""
    if set(label_types) <= {None, "str"}:
        return None
    return tuple(LABEL_PARSERS[kind or "str"] for kind in label_types)


def _label(parse, field):
    """``field`` as a label, a candidate list item by item; ``*`` and a
    field ``parse`` refuses stay text, which no typed dimension holds."""
    if isinstance(field, list):
        return [_label(parse, item) for item in field]
    try:
        return field if field == "*" else parse(field)
    except (KeyError, ValueError):
        return field


def read_labels(fields: tuple, parsers: Optional[tuple]) -> tuple:
    """A cell, range spec or record with its dimension fields read by
    ``parsers`` (:func:`label_parsers`); a record's measures are kept,
    and a short cell is left for the engine to refuse."""
    if parsers is None or len(fields) < len(parsers):
        return fields
    return tuple(map(_label, parsers, fields)) + fields[len(parsers):]


class ParsedLine(NamedTuple):
    """One parsed protocol request.

    ``kind`` routes dispatch: ``"query"`` goes through
    ``QCServer.submit``, ``"write"`` through the single-writer mutation
    path, ``"stats"`` is answered inline by the transport, and
    ``"quit"`` ends the session.  ``timeout`` carries the client's
    ``@<budget_s>`` deadline (None = transport default).

    An immutable record built once per request line, inside the
    measured round trip — a named tuple, because a frozen dataclass
    pays six ``object.__setattr__`` calls to say the same thing.
    """

    kind: str
    command: str
    op: Optional[str] = None
    args: tuple = ()
    kwargs: Mapping = MappingProxyType({})
    timeout: Optional[float] = None


def parse_line(line: str, n_dims: Optional[int] = None) -> ParsedLine:
    """Parse one request line into a :class:`ParsedLine`.

    ``n_dims`` is required to coerce ``insert`` / ``delete`` record
    measures; queries do not need it.  Raises
    :class:`~repro.errors.QueryError` for malformed lines — transports
    turn that into a protocol-level ``error:`` response.
    """
    line = line.strip()
    timeout = None
    if line.startswith("@"):
        head, _, rest = line.partition(" ")
        try:
            timeout = float(head[1:])
        except ValueError:
            raise QueryError(
                f"bad deadline budget {head!r}; expected @<seconds> "
                f"(e.g. @0.25 point S2,*,f)"
            ) from None
        if not (timeout > 0 and math.isfinite(timeout)):
            # ``nan <= 0`` is False: a NaN budget would pass a plain
            # sign test and become a deadline no clock ever exceeds.
            raise QueryError(
                f"deadline budget must be positive and finite, "
                f"got {head!r}"
            )
        line = rest.strip()
    parts = line.split(None, 1)
    if not parts:
        raise QueryError("empty request line")
    command, rest = parts[0], (parts[1].strip() if len(parts) > 1 else "")
    if command == "point":  # first: the line a serving door mostly reads
        return ParsedLine("query", command, "point", (parse_cell(rest),),
                          timeout=timeout)
    if command in ("quit", "exit"):
        return ParsedLine(kind="quit", command="quit", timeout=timeout)
    if command == "stats":
        return ParsedLine(kind="stats", command="stats", timeout=timeout)
    if command == "health":
        return ParsedLine(kind="query", command="health", op="health",
                          timeout=timeout)
    if command in ("insert", "delete"):
        if not rest:
            raise QueryError(f"{command} needs a record, e.g. "
                             f"{command} S3,P1,s,5.0")
        if n_dims is None:
            raise QueryError(
                f"{command} is not served on this transport (no schema "
                f"bound for record coercion)"
            )
        record = coerce_record(parse_cell(rest), n_dims)
        return ParsedLine(kind="write", command=command, args=(record,),
                          timeout=timeout)
    if command == "range":
        return ParsedLine(kind="query", command=command, op="range",
                          args=(parse_range_spec(rest),), timeout=timeout)
    if command == "iceberg":
        fields = rest.split()
        if not fields:
            raise QueryError("iceberg needs a threshold, e.g. iceberg 9 >=")
        try:
            threshold = float(fields[0])
        except ValueError:
            raise QueryError(
                f"bad iceberg threshold {fields[0]!r}"
            ) from None
        op = fields[1] if len(fields) > 1 else ">="
        return ParsedLine(kind="query", command=command, op="iceberg",
                          args=(threshold, op), timeout=timeout)
    if command in ROLLUP_FAMILY or command in ("class", "open"):
        server_op = COMMAND_OPS.get(command, command)
        return ParsedLine(kind="query", command=command, op=server_op,
                          args=(parse_cell(rest),), timeout=timeout)
    raise QueryError(
        f"unknown command {command!r}; known: {', '.join(COMMANDS)}"
    )


def line_parser(warehouse) -> Callable[[str], ParsedLine]:
    """One session's :func:`parse_line` over ``warehouse``, its cells,
    range specs and records read by :func:`read_labels` —
    ``parse_line`` itself, with no step per field, over ``str`` labels."""
    n_dims = warehouse.table.n_dims
    parsers = label_parsers(warehouse.label_types)
    if parsers is None:
        return partial(parse_line, n_dims=n_dims)

    def parse(line: str) -> ParsedLine:
        parsed = parse_line(line, n_dims)
        if not parsed.args or parsed.command == "iceberg":
            return parsed
        return parsed._replace(args=(read_labels(parsed.args[0], parsers),))

    return parse


# -- responses ----------------------------------------------------------------


def _cell_value_lines(pairs) -> list:
    return [f"{','.join(map(str, cell))}\t{value}" for cell, value in pairs]


def format_response(parsed: ParsedLine, value) -> str:
    """Format a successful answer (possibly multi-line, no trailing
    newline) exactly as the stdin protocol prints it."""
    command = parsed.command
    if command == "point":
        return "NULL" if value is None else str(value)
    if command == "range":
        lines = _cell_value_lines(sorted(value.items()))
        lines.append(f"# {len(value)} cells")
        return "\n".join(lines)
    if command == "iceberg":
        lines = _cell_value_lines(value)
        lines.append("# end")
        return "\n".join(lines)
    if command in ROLLUP_FAMILY:
        lines = _cell_value_lines(value)
        lines.append(f"# {len(value)} classes")
        return "\n".join(lines)
    if command == "class":
        if value is None:
            return "NULL"
        upper_bound, agg = value
        return f"{','.join(map(str, upper_bound))}\t{agg}"
    if command == "open":
        return json.dumps(
            {
                "upper_bound": list(value["upper_bound"]),
                "lower_bounds": [list(lb) for lb in value["lower_bounds"]],
                "members": [list(m) for m in value["members"]],
                "value": value["value"],
            },
            sort_keys=True,
        )
    if command in ("insert", "delete"):
        return "OK"
    if command in ("stats", "health"):
        return json.dumps(value, sort_keys=True)
    raise QueryError(f"no response formatter for command {command!r}")


def format_error(exc: BaseException) -> str:
    """One ``error:`` line carrying the exception type — the wire-level
    contract backpressure clients match on (``ServerOverloadedError``
    means back off, ``DeadlineExceededError`` means the budget was too
    tight, anything else is a real failure)."""
    return f"error: {type(exc).__name__}: {exc}"


def response_complete(command: str, lines) -> bool:
    """Whether ``lines`` form a complete response to ``command``.

    The framing rules, in one place: an ``error:`` first line is always
    a complete (single-line) response; single-line commands complete at
    one line; ``iceberg`` completes at ``# end``; ``range`` and the
    rollup family complete at their ``# <n> ...`` trailer.
    """
    if not lines:
        return False
    if lines[0].startswith("error:"):
        return True
    if command in SINGLE_LINE:
        return True
    last = lines[-1]
    if command == "iceberg":
        return last == "# end"
    if command == "range" or command in ROLLUP_FAMILY:
        return last.startswith("# ")
    raise QueryError(f"no framing rule for command {command!r}")


def command_of(line: str) -> str:
    """The command word of a request line (past any ``@<budget_s>``
    prefix) — what a pipelining client remembers per request to frame
    its response."""
    parts = line.split(None, 2)
    if not parts:
        return ""
    if parts[0].startswith("@") and len(parts) > 1:
        return parts[1]
    return parts[0]


class LineClient:
    """A small blocking TCP client for the line protocol (tests, shells,
    the benchmark's closed loop).

    Supports pipelining: :meth:`send` writes a request without waiting,
    :meth:`read_response` consumes the next response off the wire using
    :func:`response_complete` framing.  :meth:`call` does both — one
    ``sendall`` and, when the response arrives whole, one ``recv``: the
    client sits inside every round trip it measures, so it talks to the
    socket directly (``TCP_NODELAY``, its own receive buffer) instead
    of through a buffered file pair.
    """

    _RECV_BYTES = 1 << 16

    def __init__(self, host: str, port: int, timeout: float = 30.0):
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._pending: deque = deque()  # commands awaiting a response
        self._lines: deque = deque()    # received complete lines
        self._tail = b""                # received bytes of a partial line

    def send(self, line: str) -> None:
        """Pipeline one request line (no response wait)."""
        self._pending.append(command_of(line))
        self._sock.sendall(line.encode("utf-8") + b"\n")

    def read_response(self) -> str:
        """The next pipelined response, framed per its request command."""
        if not self._pending:
            raise QueryError("no pipelined request awaiting a response")
        command = self._pending.popleft()
        received = self._lines
        lines: list = []
        while not response_complete(command, lines):
            while not received:
                chunk = self._sock.recv(self._RECV_BYTES)
                if not chunk:
                    raise ConnectionError(
                        f"connection closed mid-response to {command!r} "
                        f"(got {lines!r})"
                    )
                *whole, self._tail = (self._tail + chunk).split(b"\n")
                received.extend(whole)
            lines.append(received.popleft().decode("utf-8"))
        return "\n".join(lines)

    def call(self, line: str) -> str:
        """Send one request and wait for its response."""
        self.send(line)
        return self.read_response()

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "LineClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
