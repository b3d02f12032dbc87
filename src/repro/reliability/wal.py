"""Write-ahead log for warehouse maintenance batches.

The QC-tree is an in-memory summary; checkpoints persist it, but a
crash between checkpoints would lose every batch applied since the last
one.  The WAL closes that window: :meth:`QCWarehouse.insert
<repro.core.warehouse.QCWarehouse.insert>` and ``delete`` append the raw
batch here — flushed and fsynced — *before* mutating the tree, so after
a crash ``QCWarehouse.recover(directory, wal_path, schema)`` replays the
un-checkpointed batches on top of the last checkpoint directory, and a
successful ``checkpoint(directory)`` truncates the log.

File format (text, UTF-8)::

    QCWAL/1 base=0
    <crc32 hex> {"lsn": 1, "op": "insert", "records": [...]}
    <crc32 hex> {"lsn": 2, "op": "delete", "records": [...]}
    <crc32 hex> {"lsn": 3, "op": "maintain", "records": [...]}

One record per line; the CRC32 covers the JSON text.  ``insert`` and
``delete`` records carry raw batch records verbatim; a ``maintain``
record is a *mixed* batch whose rows are tagged with a leading ``"-"``
(delete) or ``"+"`` (insert) marker — replay strips the tags and hands
both halves to one :func:`~repro.core.maintenance.maintain_batch` call,
preserving the batch's single-transaction semantics.  Pure batches keep
the original op names, so logs written by older builds replay unchanged.  A *torn tail* — a
final line that is incomplete or fails its checksum — is expected after
a crash mid-append and is silently dropped: the append never committed,
and the in-memory mutation it preceded died with the process.  The
next append cuts it off first, so a store reopened after the crash logs
its new batches on lines of their own.  A corrupt
record *followed by* valid ones cannot be explained by a torn append and
raises :class:`RecoveryError` instead of silently skipping committed
batches.

Sequence numbers are **monotonic across truncations**: :meth:`truncate`
records the last assigned lsn in the header (``base=<n>``) so later
appends continue the sequence.  That lets a checkpoint stamped with the
lsn it includes (its manifest's ``lsn``) be compared against any later
log state without ambiguity — replay skips records the checkpoint
already contains instead of applying them twice.  A bare ``QCWAL/1``
header (older files) means ``base=0``.
"""

from __future__ import annotations

import json
import os
import re
import zlib
from dataclasses import dataclass
from typing import Iterator, List, Optional

from repro.atomic import replace_file
from repro.errors import RecoveryError

_MAGIC = "QCWAL/1"
_HEADER = re.compile(r"^QCWAL/1(?: base=(\d+))?$")
_OPS = ("insert", "delete", "maintain")


@dataclass(frozen=True)
class WalRecord:
    """One committed maintenance batch: a sequence number, an operation
    (``"insert"``, ``"delete"``, or ``"maintain"`` for tagged mixed
    batches), and the raw records of the batch."""

    lsn: int
    op: str
    records: tuple


class WriteAheadLog:
    """An append-only, checksummed batch log at ``path``.

    Opening scans any existing log (validating it) so appends continue
    the sequence; a missing file is created with just the magic header.
    """

    def __init__(self, path):
        self.path = os.fspath(path)
        self.tail_was_torn = False
        self.base_lsn = 0
        # Where the next append must cut the file (the end of its last
        # whole record) when a crashed append left a torn tail.
        self._cut_at: Optional[int] = None
        if os.path.exists(self.path) and os.path.getsize(self.path) > 0:
            records = self._scan()
            last = records[-1].lsn if records else self.base_lsn
            self._next_lsn = last + 1
        else:
            # Missing, or created-but-empty (a crash before the header
            # committed): start a fresh log.
            self._write_header(base=0)
            self._next_lsn = 1

    # -- appending ---------------------------------------------------------

    def append(self, op: str, records) -> int:
        """Durably append one batch; returns its sequence number.

        The line is flushed and fsynced before the call returns, so once
        a caller proceeds to mutate the tree the batch is guaranteed to
        be replayable.
        """
        if op not in _OPS:
            raise RecoveryError(f"unknown WAL operation {op!r}")
        lsn = self._next_lsn
        body = json.dumps(
            {"lsn": lsn, "op": op, "records": [list(r) for r in records]}
        )
        crc = zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF
        line = f"{crc:08x} {body}\n"
        if self._cut_at is not None:
            # Glued onto a torn tail, this record would fail its
            # checksum and be dropped as torn too.
            os.truncate(self.path, self._cut_at)
            line = "\n" + line
            self._cut_at = None
        with open(self.path, "a") as fp:
            fp.write(line)
            fp.flush()
            os.fsync(fp.fileno())
        self._next_lsn = lsn + 1
        return lsn

    # -- reading -----------------------------------------------------------

    def records(self) -> List[WalRecord]:
        """All committed batches, oldest first (torn tail dropped)."""
        return self._scan()

    def __iter__(self) -> Iterator[WalRecord]:
        return iter(self.records())

    def __len__(self) -> int:
        return len(self.records())

    def _scan(self) -> List[WalRecord]:
        with open(self.path, "rb") as fp:
            data = fp.read()
        if not data:
            # An empty file is what a crash between creating the log and
            # writing its header leaves behind; there is nothing to lose.
            return []
        lines = data.split(b"\n")
        header = lines[0].decode("utf-8", errors="replace").strip()
        match = _HEADER.match(header)
        if match is None:
            raise RecoveryError(
                f"{self.path}: bad WAL magic {header!r}; expected {_MAGIC!r}"
            )
        self.base_lsn = int(match.group(1) or 0)
        out: List[WalRecord] = []
        torn_at: Optional[int] = None
        end = whole = len(lines[0])  # byte offsets past a line's text
        for lineno, raw in enumerate(lines[1:], start=2):
            end += 1 + len(raw)
            if not raw.strip():
                continue  # blank (including the final empty split element)
            record = self._parse_line(raw)
            if record is None:
                if torn_at is None:
                    torn_at = lineno
                continue
            if torn_at is not None:
                raise RecoveryError(
                    f"{self.path}: corrupt record at line {torn_at} is "
                    f"followed by valid record(s) — the log is damaged, "
                    f"not merely torn"
                )
            previous = out[-1].lsn if out else self.base_lsn
            if record.lsn != previous + 1:
                raise RecoveryError(
                    f"{self.path}: sequence break at line {lineno}: lsn "
                    f"{record.lsn} follows {previous}"
                )
            out.append(record)
            whole = end
        self.tail_was_torn = torn_at is not None
        self._cut_at = (whole if self.tail_was_torn
                        or not data.endswith(b"\n") else None)
        return out

    @staticmethod
    def _parse_line(raw: bytes) -> Optional[WalRecord]:
        """Parse one log line; None means unparseable (candidate torn tail)."""
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError:
            return None
        prefix, sep, body = text.partition(" ")
        if not sep or len(prefix) != 8:
            return None
        try:
            want_crc = int(prefix, 16)
        except ValueError:
            return None
        if zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF != want_crc:
            return None
        try:
            doc = json.loads(body)
            lsn, op = doc["lsn"], doc["op"]
            records = tuple(tuple(r) for r in doc["records"])
        except (json.JSONDecodeError, KeyError, TypeError):
            return None
        if op not in _OPS or not isinstance(lsn, int):
            return None
        return WalRecord(lsn=lsn, op=op, records=records)

    # -- truncation --------------------------------------------------------

    def truncate(self) -> None:
        """Drop all records after a successful checkpoint (atomically).

        The sequence does *not* restart: the new header carries the last
        assigned lsn as its base, so appends keep counting and any
        snapshot stamped before the truncation stays comparable.
        """
        base = self._next_lsn - 1
        self._write_header(base)
        self.base_lsn = base
        self._cut_at = None

    @property
    def last_lsn(self) -> int:
        """The most recently assigned sequence number (0 for a new log)."""
        return self._next_lsn - 1

    def _write_header(self, base: int) -> None:
        """Replace the log with just its header (atomically)."""
        replace_file(self.path, lambda fp: fp.write(f"{_MAGIC} base={base}\n"))

    def __repr__(self):
        return f"WriteAheadLog({self.path!r}, next_lsn={self._next_lsn})"
