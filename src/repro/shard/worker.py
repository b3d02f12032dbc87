"""Shard worker process: serve queries lock-free from an attached segment.

Each worker is a forked child running :func:`worker_main` over one end
of a duplex pipe.  It attaches the current shared-memory segment (a
``QCTREE/3`` blob, see :mod:`repro.shard.pack`), wraps it in a
:class:`~repro.serving.snapshot.ServingSnapshot`, and answers batches of
requests from :data:`~repro.serving.server.SNAPSHOT_OP_TABLE` — the
functions the thread-based server dispatches, so both serving modes
share one query surface.

Wire protocol (tuples over ``multiprocessing.Pipe``).  Both ends send
``send_bytes(pickle.dumps(message, HIGHEST_PROTOCOL))`` — the C pickler
called directly: 1.2 µs to encode a one-point request and 0.8 µs its
answer, where ``Connection.send``'s ``ForkingPickler`` took 2.9 and 3.8
(2-vCPU x86-64 VM) — and read with ``recv()``, which unpickles either.

parent → worker
    ``("q", [(rid, op, args, kwargs[, deadline]), ...])``
        answer a batch; one reply message covers the whole batch, so a
        batch's answer is the parent's proof that the whole message left
        the pipe.  ``deadline`` (a read ``ShardServer``'s direct path
        sent from the caller's thread, when it has one) is an absolute
        ``time.monotonic()`` instant — one clock for the parent and its
        forked children — checked before the op runs: a request that
        reaches its worker past it is answered with
        :class:`~repro.errors.DeadlineExceededError` unrun, as the
        thread pool answers one that waited in its queue too long.
        ``map_query`` sends each worker one chunk, ``(rid, op, [args,
        ...])``, answered ``(rid, True, (values, {position: error}))``.
    ``("publish", lsn, epoch, segment_name, inject)``
        attach the new segment, then release the old one.  On *any*
        attach failure the worker keeps serving its last-good epoch and
        reports ``pub_err`` — readers never lose a snapshot.
        ``inject`` is a test hook: ``"attach"`` forces the failure path.
    ``("stop",)``
        detach, close, exit.

worker → parent
    ``("ready", pid, epoch)`` · ``("a", [(rid, ok, payload), ...])`` ·
    ``("pub_ok", epoch)`` · ``("pub_err", epoch, reason)``
"""

from __future__ import annotations

import gc
import os
import pickle
import time

from repro.errors import DeadlineExceededError, ServingError
from repro.reliability.faults import InjectedFault
from repro.serving.server import SNAPSHOT_OP_TABLE
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

    def __init__(self, name: str, index_key):
        self.name = name
        self.shm = attach_segment(name)
        try:
            self.attached = attach_packed(self.shm.buf)
            self.snapshot = self.attached.serving_snapshot(index_key=index_key)
        except BaseException:
            self.shm.close()
            raise

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
    """A chunk's ``(values, errors)``: one batch-kernel call for a long
    enough point chunk it can read, else call by call, so each call
    fails alone."""
    tree = snapshot.tree
    if op == "point" and len(calls) >= _BATCH_MIN:
        try:
            if all(len(args) == 1 and len(args[0]) == tree.n_dims
                   for args in calls):
                return tree._point_query_batch(
                    snapshot.table, [args[0] for args in calls]), {}
        except (TypeError, ValueError, OverflowError):
            pass
    values, errors = _answer_calls(SNAPSHOT_OP_TABLE[op], snapshot, calls)
    return values, {i: _picklable_error(exc) for i, exc in errors.items()}


def _answer_batch(snapshot, batch) -> list:
    """Answer one request batch.  A function so its locals (snapshot
    reference, captured exception tracebacks) die on return instead of
    pinning the old mapping across an epoch swap or shutdown."""
    answers = []
    for request in batch:
        rid, op, args = request[:3]
        if len(request) == 3:
            answers.append((rid, True, _answer_chunk(snapshot, op, args)))
            continue
        kwargs = request[3]
        fn = SNAPSHOT_OP_TABLE.get(op)
        try:
            if len(request) > 4 and time.monotonic() > request[4]:
                raise DeadlineExceededError(
                    f"request {op!r} reached its shard worker past its "
                    "deadline"
                )
            if fn is None:
                raise ServingError(
                    f"op {op!r} is not a snapshot op; custom "
                    "ops run in the router process"
                )
            answers.append((rid, True, fn(snapshot, *args, **kwargs)))
        except Exception as exc:
            answers.append((rid, False, _picklable_error(exc)))
    return answers


def _send(conn, message) -> None:
    conn.send_bytes(pickle.dumps(message, pickle.HIGHEST_PROTOCOL))


def worker_main(conn, segment_name: str, lsn: int, epoch: int,
                index_key=None, inherited=()) -> None:
    """Entry point of a shard worker process (runs until ``stop``/EOF).

    ``inherited`` are the parent-side pipe ends the fork copied into
    this process; they are closed before anything else, so that the
    parent's death — however abrupt — is an EOF on ``conn``."""
    for parent_end in inherited:
        parent_end.close()
    # The fork copied the parent's whole heap (dict tree, frozen view,
    # cover index, table).  The worker never frees any of it, yet
    # each full collection would walk it all — a ~30 ms stall every few
    # bulk batches.  Park it in the permanent generation.
    gc.freeze()
    current = _Attachment(segment_name, index_key)
    current.snapshot.stamp = (lsn, epoch)
    attached_epoch = epoch
    try:
        _send(conn, ("ready", os.getpid(), attached_epoch))
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            kind = message[0]
            if kind == "q":
                _send(conn, (
                    "a", _answer_batch(current.snapshot, message[1])
                ))
            elif kind == "publish":
                _, new_lsn, new_epoch, new_name, inject = message
                try:
                    if inject == "attach":
                        raise InjectedFault(
                            "injected fault at shard:attach"
                        )
                    fresh = _Attachment(new_name, index_key)
                except Exception as exc:
                    _send(conn, ("pub_err", new_epoch, repr(exc)))
                else:
                    fresh.snapshot.stamp = (new_lsn, new_epoch)
                    old = current
                    current = fresh
                    attached_epoch = new_epoch
                    old.close()
                    _send(conn, ("pub_ok", new_epoch))
            elif kind == "stop":
                break
    except KeyboardInterrupt:  # pragma: no cover - interactive teardown
        pass
    finally:
        current.close()
        try:
            conn.close()
        except OSError:
            pass
