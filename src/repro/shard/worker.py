"""Shard worker process: serve queries lock-free from an attached segment.

Each worker is a forked child running :func:`worker_main` over one end
of a socket pair.  It attaches the current shared-memory segment (a
``QCTREE/3`` blob, see :mod:`repro.shard.pack`), wraps it in a
:class:`~repro.serving.snapshot.ServingSnapshot`, and answers requests
from :data:`~repro.serving.server.SNAPSHOT_OP_TABLE` — the
functions the thread-based server dispatches, so both serving modes
share one query surface.

Wire protocol: frames (:mod:`repro.shard.frame`; DESIGN §10 "The
pipe" tables what each kind carries) on a ``socket.socketpair``, one
answer frame per request frame, in order, each read through a
:class:`~repro.shard.frame.FrameReader` and written with one
``sendall``.  A point goes as ``POINT`` codes of the pinned snapshot's
table and its epoch, answered ``VALUE`` (or ``ANSWER``), or ``REFUSED``
by a worker on another epoch — the parent then answers from its own
snapshot; a ``map_query`` point chunk as a ``CODES`` matrix; every
other read and chunk pickled (``REQUEST`` / ``CHUNK``, answered
``ANSWER`` ``(ok, payload)``).  ``CONTROL`` carries ``ready``,
``publish`` (attach the new segment, then release the old; on *any*
attach failure keep serving the last-good epoch and report ``pub_err``;
its ``inject="attach"`` test hook forces that path) and ``pub_ok``.
A deadline is an absolute ``time.monotonic()`` instant (one
clock for the parent and its forked children) checked before the op
runs: past it, the read is answered
:class:`~repro.errors.DeadlineExceededError` unrun, as the thread pool
answers one that waited in its queue too long.
"""

from __future__ import annotations

import gc
import os
import pickle
import time

import numpy as np

from repro.core.cells import ALL
from repro.core.point_query import point_query
from repro.errors import DeadlineExceededError, ServingError
from repro.reliability.faults import InjectedFault
from repro.serving.server import SNAPSHOT_OP_TABLE
from repro.shard.frame import (
    ANSWER,
    ANY,
    CHUNK,
    CODES,
    CONTROL,
    EPOCH,
    FLOAT,
    NONE,
    POINT,
    POINT_HEAD,
    REFUSED,
    REQUEST,
    UNSEEN,
    VALUE,
    VALUE_BODY,
    VALUE_FRAME,
    FrameReader,
    codes_of,
    frame,
    pickled,
)
from repro.shard.pack import attach_packed
from repro.shard.segment import attach_segment


def _picklable_error(exc):
    """The exception itself when it survives pickling, else a
    :class:`ServingError` carrying its repr."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return ServingError(f"worker error: {exc!r}")


class _Attachment:
    """One attached epoch: segment handle + packed snapshot views."""

    def __init__(self, name: str, lsn: int, epoch: int):
        self.name = name
        self.epoch = epoch
        self.shm = attach_segment(name)
        try:
            self.attached = attach_packed(self.shm.buf)
            self.snapshot = self.attached.serving_snapshot()
        except BaseException:
            self.shm.close()
            raise
        self.snapshot.stamp = (lsn, epoch)

    def close(self) -> None:
        self.attached.release()
        self.attached = None
        self.snapshot = None
        # frombuffer arrays, cached views, and exception-traceback
        # frames may still pin the mapping until collected; collect now
        # so the detach below is the real one, not a __del__-time race.
        gc.collect()
        try:
            self.shm.close()
        except BufferError:
            # A stray export still pins the mapping; the OS reclaims it
            # when the process exits — never crash the worker over it.
            pass


#: Point chunks this long take the batch kernel.  Its ≈ 100 NumPy calls
#: cost one cell 117 µs against 5.7 scalar, and a ``map_query`` of 1–32
#: cells 1.5–3× more end to end; the two meet at ≈ 64 cells
#: (``shard_bulk`` tree, 2-vCPU x86-64 VM).
_BATCH_MIN = 64


def _answer_calls(fn, snapshot, calls) -> tuple:
    """``(values, errors)`` of ``fn(snapshot, *args)`` per call; a call
    that raised has value None and its exception in ``errors``."""
    values, errors = [], {}
    for i, args in enumerate(calls):
        try:
            values.append(fn(snapshot, *args))
        except Exception as exc:
            values.append(None)
            errors[i] = exc
    return values, errors


def _answer_chunk(snapshot, op, calls) -> tuple:
    """A pickled chunk's ``(values, errors)``, call by call, so each call
    fails alone.  (A point chunk the batch kernel can read travels as
    codes: :func:`_answer_codes`.)"""
    values, errors = _answer_calls(SNAPSHOT_OP_TABLE[op], snapshot, calls)
    return values, {i: _picklable_error(exc) for i, exc in errors.items()}


def _answer_batch(snapshot, message) -> tuple:
    """``(ok, payload)`` of one pickled request: a chunk ``(op, calls)``
    or one call ``(op, args, kwargs, deadline)``.  A function so its
    locals (snapshot reference, captured exception tracebacks) die on
    return instead of pinning the old mapping across an epoch swap or
    shutdown."""
    if len(message) == 2:
        op, calls = message
        return True, _answer_chunk(snapshot, op, calls)
    op, args, kwargs, deadline = message
    fn = SNAPSHOT_OP_TABLE.get(op)
    try:
        if deadline is not None and time.monotonic() > deadline:
            raise _late(op)
        if fn is None:
            raise ServingError(
                f"op {op!r} is not a snapshot op; custom "
                "ops run in the parent process"
            )
        return True, fn(snapshot, *args, **kwargs)
    except Exception as exc:
        return False, _picklable_error(exc)


def _late(op) -> DeadlineExceededError:
    return DeadlineExceededError(
        f"request {op!r} reached its shard worker past its deadline"
    )


def _point_of_codes(tree, codes):
    """``point_query_raw``'s answer to a cell given as its label codes:
    None for a label never seen, without a walk."""
    if UNSEEN in codes:
        return None
    return point_query(tree, [ALL if code == ANY else code for code in codes])


def _answer_point(current, buf, rid: int, start: int, end: int) -> bytes:
    """The answer frame of a :data:`~repro.shard.frame.POINT` frame: a
    float or None as a :data:`~repro.shard.frame.VALUE`, any other
    answer or error pickled, and a refusal when its codes are of another
    epoch's table."""
    epoch, deadline = POINT_HEAD.unpack_from(buf, start)
    if epoch != current.epoch:
        return frame(REFUSED, rid)
    try:
        if time.monotonic() > deadline:
            raise _late("point")
        value = _point_of_codes(
            current.snapshot.tree,
            codes_of(buf, start + POINT_HEAD.size, end))
    except Exception as exc:
        return pickled(ANSWER, rid, (False, _picklable_error(exc)))
    if value is None:
        return VALUE_FRAME.pack(VALUE, rid, VALUE_BODY.size, NONE, 0.0)
    if type(value) is float:
        return VALUE_FRAME.pack(VALUE, rid, VALUE_BODY.size, FLOAT, value)
    return pickled(ANSWER, rid, (True, value))


def _answer_codes(current, buf, rid: int, start: int, end: int) -> bytes:
    """The answer frame of a :data:`~repro.shard.frame.CODES` chunk: its
    ``(values, {})`` pickled — from the batch kernel at
    :data:`_BATCH_MIN` cells or more, else cell by cell — or a refusal
    when its codes are of another epoch's table."""
    if EPOCH.unpack_from(buf, start)[0] != current.epoch:
        return frame(REFUSED, rid)
    tree = current.snapshot.tree
    codes = np.frombuffer(buf, dtype="<i4", offset=start + EPOCH.size,
                          count=(end - start - EPOCH.size) // 4)
    try:
        codes = codes.reshape(-1, tree.n_dims)
        values = None
        if len(codes) >= _BATCH_MIN:
            try:
                values = tree._point_query_codes(codes)
            except OverflowError:
                pass  # routing keys past int64: cell by cell
        if values is None:
            values = [_point_of_codes(tree, row) for row in codes.tolist()]
    except Exception as exc:
        return pickled(ANSWER, rid, (False, _picklable_error(exc)))
    return pickled(ANSWER, rid, (True, (values, {})))


def worker_main(sock, segment_name: str, lsn: int, epoch: int,
                inherited=()) -> None:
    """Entry point of a shard worker process (runs until EOF).

    ``sock`` is the worker's end of the pipe.  ``inherited`` are the
    parent-side ends the fork copied into this process; they are closed
    before anything else, so that the parent's death — however abrupt —
    is an EOF on ``sock``."""
    for parent_end in inherited:
        parent_end.close()
    # The fork copied the parent's whole heap (dict tree, frozen view,
    # cover index, table).  The worker never frees any of it, yet
    # each full collection would walk it all — a ~30 ms stall every few
    # bulk batches.  Park it in the permanent generation.
    gc.freeze()
    try:
        current = _Attachment(segment_name, lsn, epoch)
    except OSError:
        # The segment went before the worker could attach it (close()
        # unlinked it while a respawn was under way): no handshake, and
        # the parent reads the EOF as a failed spawn.
        sock.close()
        return
    frames = FrameReader(sock)
    send = sock.sendall
    try:
        send(pickled(CONTROL, 0, ("ready", os.getpid(), epoch)))
        while True:
            got = frames.read()
            if got is None:
                break
            kind, rid, start, end = got
            if kind == POINT:
                send(_answer_point(current, frames.buf, rid, start, end))
            elif kind == CODES:
                send(_answer_codes(current, frames.buf, rid, start, end))
            elif kind == REQUEST or kind == CHUNK:
                send(pickled(ANSWER, rid, _answer_batch(
                    current.snapshot, frames.message(start, end))))
            elif kind == CONTROL:
                current = _publish(current, frames.message(start, end), send)
    except (OSError, KeyboardInterrupt):
        pass  # the parent hung up mid-send, or interactive teardown
    finally:
        current.close()
        try:
            sock.close()
        except OSError:
            pass


def _publish(current, message, send):
    """Attach the epoch a ``publish`` announces, then release the old
    one; on *any* attach failure keep serving the last-good epoch and
    report ``pub_err``.  Returns the attachment now served."""
    _, lsn, epoch, name, inject = message
    try:
        if inject == "attach":
            raise InjectedFault("injected fault at shard:attach")
        fresh = _Attachment(name, lsn, epoch)
    except Exception as exc:
        send(pickled(CONTROL, 0, ("pub_err", epoch, repr(exc))))
        return current
    current.close()
    send(pickled(CONTROL, 0, ("pub_ok", epoch)))
    return fresh
