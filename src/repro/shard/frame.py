"""The shard worker pipe's framing: a fixed header, then a payload.

Every message on a worker's pipe (a ``socket.socketpair``), either way,
is one frame: :data:`HEADER` — kind, request id, payload length — then
that many payload bytes.  A payload is either *codes* (a point as its
label codes, a ``map_query`` point chunk as a code matrix, a point's
scalar answer as a status byte and an ``<f8>``) or a pickle (every other
request, answer, error and control message).  :mod:`repro.shard.worker`
says what each kind carries.

Each end reads through one :class:`FrameReader`: one ``recv_into`` a
reusable buffer takes whatever the socket holds, and the frames already
whole in it are handed out with no further system call.
"""

from __future__ import annotations

import pickle
from struct import Struct

from repro.core.cells import ALL
from repro.cube.table import ANY_CODE, UNSEEN_CODE

#: kind (u8), request id (u64; 0 on a control frame), payload length.
HEADER = Struct("<BQI")

# parent -> worker
REQUEST = 1  #: pickled ``(op, args, kwargs, deadline)``
CHUNK = 2  #: pickled ``(op, [args, ...])``: a ``map_query`` chunk
POINT = 3  #: ``<Id`` epoch, deadline (inf: none), ``n_dims`` ``<i4`` codes
CODES = 4  #: ``<I`` epoch, then an ``n × n_dims`` ``<i4`` code matrix
# worker -> parent
ANSWER = 5  #: pickled ``(ok, payload)``
VALUE = 6  #: ``<Bd`` status, value: a point's scalar answer
REFUSED = 7  #: no payload: the codes were of an epoch the worker is not on
# both ways
CONTROL = 8  #: pickled control tuple (``ready``, ``publish``, ``pub_ok``…)

#: The code of ``*`` (None, :data:`~repro.core.cells.ALL`), and of a
#: label the table has never seen — no cell holding one is in the cube.
ANY = ANY_CODE
UNSEEN = UNSEEN_CODE

#: :data:`VALUE` statuses: a float answer, or None.
FLOAT = 0
NONE = 1

#: A :data:`VALUE` frame, header and all.
VALUE_FRAME = Struct("<BQIBd")
VALUE_BODY = Struct("<Bd")
EPOCH = Struct("<I")
POINT_HEAD = Struct("<Id")

_POINT_FRAMES: dict = {}
_CODE_ROWS: dict = {}


def frame(kind: int, rid: int, payload: bytes = b"") -> bytes:
    return HEADER.pack(kind, rid, len(payload)) + payload


def pickled(kind: int, rid: int, message) -> bytes:
    return frame(kind, rid, pickle.dumps(message, pickle.HIGHEST_PROTOCOL))


def point_frame(rid: int, epoch: int, deadline, codes) -> bytes:
    """A :data:`POINT` frame of ``codes`` from the table of ``epoch``."""
    packer = _POINT_FRAMES.get(len(codes))
    if packer is None:
        packer = _POINT_FRAMES[len(codes)] = Struct(f"<BQIId{len(codes)}i")
    return packer.pack(
        POINT, rid, packer.size - HEADER.size, epoch,
        float("inf") if deadline is None else deadline, *codes)


def codes_of(buf, start: int, end: int) -> tuple:
    """The ``<i4`` codes in ``buf[start:end]``."""
    n = (end - start) // 4
    unpack = _CODE_ROWS.get(n)
    if unpack is None:
        unpack = _CODE_ROWS[n] = Struct(f"<{n}i").unpack_from
    return unpack(buf, start)


def point_codes(cell, encoders):
    """``cell``'s label codes under ``encoders`` (a table's label → code
    dict per dimension), or None when the point travels pickled: the
    wrong arity, a label the table never saw, or one no dictionary can
    look up.  The worker then raises or answers exactly as
    ``point_query_raw`` does in the parent."""
    try:
        if len(cell) != len(encoders):
            return None
        codes = []
        for label, table in zip(cell, encoders):
            if label is ALL or label is None or label == "*":
                codes.append(ANY)
            else:
                code = table.get(label)
                if code is None:
                    return None
                codes.append(code)
        return codes
    except Exception:
        return None


def chunk_codes(calls, table):
    """The code matrix (:meth:`~repro.cube.table.BaseTable.encode_points`)
    of a chunk of point calls, each one cell of ``table``'s arity; None
    when a call is not one such cell or a label is one no dictionary can
    look up — the chunk then travels pickled."""
    try:
        cells = [cell for (cell,) in calls]
        if any(len(cell) != table.n_dims for cell in cells):
            return None
        return table.encode_points(cells)
    except Exception:
        return None


class FrameReader:
    """The frames arriving on one end of the pipe.

    :meth:`read` hands out the next frame already whole in the buffer,
    else reads the socket (blocking) until one is; :meth:`ready` says
    whether one is whole without a system call.  A frame's payload is
    ``buf[start:end]``, valid until the next :meth:`read`.  The buffer
    grows to the largest frame seen.
    """

    __slots__ = ("_recv_into", "buf", "_view", "_head", "_tail")

    def __init__(self, sock, size: int = 16 * 1024):
        self._recv_into = sock.recv_into
        self.buf = bytearray(size)
        self._view = memoryview(self.buf)
        self._head = self._tail = 0

    def ready(self) -> bool:
        """Whether a whole frame is in the buffer."""
        have = self._tail - self._head
        return have >= HEADER.size and have - HEADER.size >= (
            HEADER.unpack_from(self.buf, self._head)[2])

    def read(self):
        """``(kind, rid, start, end)`` of the next frame, or None at EOF
        (EOF in the middle of a frame too)."""
        size = HEADER.size
        while True:
            head, tail = self._head, self._tail
            need = size
            if tail - head >= size:
                kind, rid, length = HEADER.unpack_from(self.buf, head)
                end = head + size + length
                if end <= tail:
                    self._head = end
                    return kind, rid, head + size, end
                need += length
            if head == tail:
                self._head = self._tail = 0
            elif head + need > len(self.buf):
                self._move_front(need)
            n = self._recv_into(self._view[self._tail:])
            if not n:
                return None
            self._tail += n

    def _move_front(self, need: int) -> None:
        """Move the partial frame to the buffer's front, into a new
        buffer when it needs more than this one holds.  The old buffer is
        never resized: a payload view of it may still be alive."""
        kept = bytes(self._view[self._head:self._tail])
        if need > len(self.buf):
            self.buf = bytearray(max(need, 2 * len(self.buf)))
            self._view = memoryview(self.buf)
        self.buf[:len(kept)] = kept
        self._head, self._tail = 0, len(kept)

    def message(self, start: int, end: int):
        """The message a pickled payload carries."""
        return pickle.loads(self._view[start:end])
