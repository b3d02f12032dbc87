"""``Piece`` — one base table and the QC-tree derived from it.

Theorem 2 makes a QC-tree a *derived index of its base table*: unique
for the table, so always rebuildable from it.  Every store in this repo
is one or more pieces — a :class:`~repro.core.warehouse.QCWarehouse`
holds one live piece, a :class:`~repro.core.warehouse.SegmentedWarehouse`
a list of sealed pieces plus one live piece — and this class is the only
place that knows a piece's lifecycle: the refreeze decision
(:meth:`Piece.frozen_view`), the cover index (:attr:`Piece.cover_index`),
mutation by replacement (:meth:`Piece.derive`), the on-disk table
(:meth:`Piece.save` / :meth:`Piece.load`), and :meth:`Piece.fsck` /
:meth:`Piece.rebuild`.

A piece is born as its columns: :meth:`build`, :meth:`derive`,
:meth:`rebuild` and :meth:`load` run Algorithm 1 straight to the frozen
view (:func:`~repro.core.construct.build_frozen`).  A dict tree exists
only where Algorithms 5–7 run: a live piece thaws one at its first
:meth:`apply` (:attr:`Piece.tree`) and keeps it until it is sealed.
Not every head write is an :meth:`apply`: a batch large against the
head replaces it with the piece :meth:`derive` builds from the
post-batch table (the store's crossover rule,
:attr:`QCWarehouse.REBUILD_RATIO
<repro.core.warehouse.QCWarehouse.REBUILD_RATIO>`), so a small head
never thaws one.

A piece is *live* until :meth:`Piece.seal` gives it a ``segment_id``;
from then on it is immutable (replaced through :meth:`derive`, never
edited), which is what lets a checkpoint skip files this very object
already wrote.

On disk a piece is its table's columns and nothing else — one piece
file (:func:`piece_bytes`): the label dictionaries in a JSON header,
then the code matrix and the ``<f8`` measure matrix — and :meth:`load`
builds the tree from it, so every open takes one path.  See
:mod:`repro.core.manifest` for the checkpoint directory every store
writes.
"""

from __future__ import annotations

import json
import os
import threading
import zlib
from typing import Optional

import numpy as np

from repro.atomic import replace_file
from repro.core.construct import build_frozen
from repro.core.maintenance.batch import batch_tables, maintain_batch
from repro.core.qctree import QCTree
from repro.cube.cover_index import CoverIndex
from repro.cube.table import BaseTable, label_type
from repro.errors import RecoveryError, SchemaError
from repro.reliability.fsck import fsck_tree

#: The first line of a piece file.  A table file without it is the CSV
#: an earlier layout wrote, which :meth:`Piece.load` still reads.
MAGIC = b"QCPIECE/1\n"
#: The name suffix of a piece file in a checkpoint directory.
SUFFIX = ".piece"


def piece_bytes(table: BaseTable) -> bytes:
    """``table`` as one piece file: :data:`MAGIC`, then one JSON header
    line — the schema's names, each dimension's labels in dictionary
    order (:meth:`BaseTable.columns`), the code dtype and the row count
    — padded to 8 bytes, then the code matrix in the narrowest unsigned
    dtype that holds the largest dictionary, then the measure matrix as
    ``<f8`` (every finite double exactly).  The header is ASCII: JSON
    escapes every label :func:`~repro.cube.table.label_type` accepts."""
    labels, codes = table.columns()
    dtype = np.min_scalar_type(max([len(column) for column in labels] + [1])
                               - 1).newbyteorder("<")
    header = json.dumps({
        "dimensions": table.schema.dimension_names,
        "measures": table.schema.measure_names,
        "labels": labels,
        "codes": dtype.str,
        "rows": table.n_rows,
    }, separators=(",", ":")).encode("ascii")
    head = MAGIC + header
    return b"".join([head, b" " * (-(len(head) + 1) % 8), b"\n",
                     codes.astype(dtype).tobytes(),
                     table.measures.astype("<f8").tobytes()])


def read_piece(data: bytes, schema, label_types=None) -> BaseTable:
    """The table of the piece file :func:`piece_bytes` wrote, each label
    checked against its dimension's ``label_types`` entry (a
    :func:`~repro.cube.table.label_type`; None takes any).  A damaged
    file raises :class:`SchemaError`, ``ValueError`` or ``TypeError``."""
    end = data.find(b"\n", len(MAGIC))
    if end < 0:
        raise SchemaError("the piece header has no end")
    header = json.loads(data[len(MAGIC):end])
    missing = sorted({"dimensions", "measures", "labels", "codes",
                      "rows"}.difference(header))
    if missing:
        raise SchemaError(f"the piece header lacks {missing}")
    names = (tuple(header["dimensions"]), tuple(header["measures"]))
    if names != (schema.dimension_names, schema.measure_names):
        raise SchemaError(
            f"the piece header names the columns {names}, the schema "
            f"{(schema.dimension_names, schema.measure_names)}")
    labels, rows = header["labels"], header["rows"]
    if len(labels) != schema.n_dims or type(rows) is not int or rows < 0:
        raise SchemaError("the piece header's labels or rows are malformed")
    for name, kind, column in zip(schema.dimension_names,
                                  label_types or (None,) * schema.n_dims,
                                  labels):
        for label in column:
            found = label_type(label)
            if found is None or found != (kind or found):
                raise SchemaError(
                    f"dimension {name!r} holds the label {label!r}, not of "
                    f"type {kind or 'str, int, float or bool'}")
    dtype = np.dtype(header["codes"])
    if dtype.kind != "u":
        raise SchemaError(f"the piece's code dtype {dtype} is not unsigned")
    body = end + 1
    size = rows * (schema.n_dims * dtype.itemsize + schema.n_measures * 8)
    if len(data) - body != size:
        raise SchemaError(
            f"the piece header promises {rows} rows in {size} bytes, the "
            f"body holds {len(data) - body}")
    codes = np.frombuffer(data, dtype, rows * schema.n_dims, body)
    measures = np.frombuffer(data, "<f8", rows * schema.n_measures,
                             body + codes.nbytes)
    return BaseTable.from_columns(
        schema, labels, codes.reshape(rows, schema.n_dims),
        measures.reshape(rows, schema.n_measures).astype(np.float64))


class Piece:
    """Owner of one base table and its tree (see module docstring)."""

    __slots__ = ("table", "aggregate", "segment_id", "_tree", "_frozen",
                 "_pending", "_cover_index", "_cover_rebuilt",
                 "_cover_patched", "_saved_at", "_lock")

    def __init__(self, frozen, table: BaseTable,
                 segment_id: Optional[int] = None):
        #: The base table (copy-on-write: a batch installs a *new* one).
        self.table = table
        self.aggregate = frozen.aggregate
        #: None while live; the segment id once sealed (immutable).
        self.segment_id = segment_id
        self._tree = None
        self._frozen = frozen
        self._pending = None
        # The long-lived cover index over the live table: built lazily
        # on the first write (or deep fsck), patched per batch from the
        # maintenance delta afterwards, discarded whenever a failed
        # batch leaves it ahead of the rolled-back table.
        self._cover_index = None
        self._cover_rebuilt = 0
        self._cover_patched = 0
        self._saved_at = None
        self._lock = threading.Lock()

    @classmethod
    def build(cls, table: BaseTable, aggregate,
              segment_id: Optional[int] = None) -> "Piece":
        """A fresh piece over ``table``: Algorithm 1 to its columns."""
        return cls(build_frozen(table, aggregate), table, segment_id)

    # -- read view -----------------------------------------------------------

    def frozen_view(self):
        """The frozen serving view, brought current on demand.

        Born with the piece (built again from the table after
        :meth:`rebuild`); afterwards the deltas accumulated since the
        last read are spliced into the stale view — cost proportional to
        the maintenance delta, not the tree size — unless
        :meth:`FrozenQCTree.patch <repro.core.frozen.FrozenQCTree.patch>`
        finds the dirty set too large and recompiles.  Sealing hands a
        live piece over with whatever view and unread delta it had, so
        for a sealed piece the patch happens here — off the write path —
        at most once, and its dict tree goes with the delta.
        """
        frozen = self._frozen
        if frozen is not None and self._pending is None:
            return frozen
        with self._lock:
            return self._current_view()

    def _current_view(self):
        """:meth:`frozen_view`'s work, under ``self._lock``."""
        if self._frozen is None:
            self._frozen = build_frozen(self.table, self.aggregate)
        elif self._pending is not None:
            self._frozen = self._frozen.patch(self._pending)
            self._pending = None
            if self.segment_id is not None:
                self._tree = None  # sealed: nothing maintains it any more
        return self._frozen

    @property
    def tree(self) -> QCTree:
        """The dict tree Algorithms 5–7 maintain: the frozen view's thaw
        (:meth:`QCTree.from_frozen`), kept by a live piece from its first
        use on — the first :meth:`apply`, which a head the store only
        ever rebuilds (:meth:`derive`) never reaches; a sealed piece
        keeps none, so each access thaws anew."""
        with self._lock:
            tree = self._tree
            if tree is None:
                tree = QCTree.from_frozen(self._current_view())
                if self.segment_id is None:
                    self._tree = tree
            return tree

    @property
    def frozen_ready(self) -> bool:
        """True when the serving view needs no further compile/patch work."""
        return self._frozen is not None and self._pending is None

    @property
    def pending_delta(self):
        """The merged maintenance delta no read has consumed yet (None
        when the view is current)."""
        return self._pending

    @property
    def n_rows(self) -> int:
        return self.table.n_rows

    @property
    def name(self) -> str:
        """How reports refer to this piece."""
        if self.segment_id is None:
            return "head"
        return f"segment[{self.segment_id}]"

    # -- maintenance -----------------------------------------------------------

    @property
    def cover_index(self) -> CoverIndex:
        """The persistent posting index over the live table.

        One :class:`~repro.cube.cover_index.CoverIndex` per live table:
        built from scratch at most once (counted under ``rebuilt`` in
        :meth:`cover_stats`), then patched in place by every maintenance
        batch — the postings carry across batches instead of being
        re-derived per write.
        """
        if self._cover_index is None:
            self._cover_index = CoverIndex(self.table)
            self._cover_rebuilt += 1
        return self._cover_index

    @property
    def live_cover_index(self) -> Optional[CoverIndex]:
        """The cover index if one is currently built, else None (never
        builds one)."""
        return self._cover_index

    def cover_stats(self) -> dict:
        """Lifecycle counters of the cover index, plus its own stats
        while one is live."""
        out = {
            "patched": self._cover_patched,
            "rebuilt": self._cover_rebuilt,
        }
        if self._cover_index is not None:
            out.update(self._cover_index.stats())
        return out

    def apply(self, inserts=(), deletes=()):
        """Run one mixed batch on this (live) piece in place; returns the
        :class:`~repro.core.maintenance.batch.BatchMaintenanceResult`.

        Transactional: on failure tree, table and view are untouched.
        On success the batch's delta is merged into the unread pending
        delta, so any number of writes between two reads cost one patch.
        """
        tree = self.tree
        with self._lock:
            try:
                result = maintain_batch(tree, self.table,
                                        inserts=inserts, deletes=deletes,
                                        cover_index=self.cover_index)
            except BaseException:
                # The tree rolled back, but the persistent index may
                # already hold the batch delta — drop it; the next batch
                # rebuilds it lazily.
                self._cover_index = None
                raise
            self.table = result.table
            self._cover_patched += 1
            pending = self._pending
            self._pending = (result.delta if pending is None
                             else pending.merge(result.delta))
        return result

    def derive(self, inserts=(), deletes=(),
               segment_id: Optional[int] = None) -> "Piece":
        """A new piece built (Theorem 2) from this one's table after the
        batch; this piece is not touched, so a batch that fails leaves
        nothing to roll back.

        The post-batch table is the one :meth:`apply` leaves — the same
        rows, order and label codes
        (:func:`~repro.core.maintenance.batch.batch_tables`): ``deletes``
        drop the rows matched earliest first, measures ignored, then
        ``inserts`` are appended in dimension order, equal dimension
        tuples in arrival order — the order earliest-first delete
        matching depends on.  No tree is copied: the new piece is
        built to its columns, with no dict tree, cover index or pending
        delta.
        """
        table = batch_tables(self.table, inserts, deletes)[2]
        return Piece.build(table, self.aggregate, segment_id)

    def seal(self, segment_id: int) -> None:
        """Make this piece immutable under ``segment_id`` — O(1): the
        frozen view and unread delta stay as they are (finalised lazily
        by :meth:`frozen_view`, which then drops the dict tree), the
        write-side index is released, and without a delta the dict tree
        goes at once."""
        with self._lock:
            self.segment_id = segment_id
            self._cover_index = None
            if self._pending is None:
                self._tree = None

    def rebuild(self) -> None:
        """Drop everything derived from the table — dict tree, view and
        unread delta — which is always safe (Theorem 2: the table
        determines the tree): the next read builds the columns again,
        the next write thaws them."""
        with self._lock:
            self._tree = self._frozen = self._pending = None

    def fsck(self, deep: bool = True):
        """Verify the piece (:func:`~repro.reliability.fsck.fsck_tree`):
        the dict tree a live piece maintains gets the structure and link
        passes; ``deep`` also rebuilds the tree from the table and
        compares it, and the view the piece serves, byte for byte."""
        trees = [self.frozen_view()]
        if self.segment_id is None and self._tree is not None:
            trees.insert(0, self._tree)
        return fsck_tree(*trees, table=self.table if deep else None)

    # -- persistence -----------------------------------------------------------

    def save(self, table_path) -> str:
        """Write the table's piece file (:func:`piece_bytes`) atomically
        (:func:`~repro.atomic.replace_file`) and return its CRC32 (8 hex
        digits) for the manifest.

        A sealed piece is immutable, so it skips the write when *this
        object* already wrote (or was loaded from) exactly this path and
        the file is still there; a file that merely has the right name —
        left by another run or another warehouse — is overwritten.
        """
        path = os.path.abspath(table_path)
        if (self.segment_id is not None and self._saved_at is not None
                and self._saved_at[0] == path and os.path.exists(path)):
            return self._saved_at[1]
        data = piece_bytes(self.table)
        replace_file(path, lambda fp: fp.write(data), mode="wb")
        crc = f"{zlib.crc32(data):08x}"
        self._saved_at = (path, crc)
        return crc

    @classmethod
    def load(cls, table_path, schema, aggregate, label_types=None,
             crc32: Optional[str] = None, rows: Optional[int] = None):
        """The piece :meth:`save` wrote at ``table_path``: its table read
        under ``label_types`` and its tree built with ``aggregate``.  A
        file without :data:`MAGIC` is read as the CSV table an earlier
        layout wrote; the next checkpoint writes it as a piece file.

        ``crc32`` and ``rows`` are what the manifest recorded for the
        file; a file whose bytes or row count differ, or that is not a
        readable table of ``schema``, raises :class:`RecoveryError`
        naming it.  A missing file raises :class:`OSError`.
        """
        with open(table_path, "rb") as fp:
            data = fp.read()
        found = f"{zlib.crc32(data):08x}"
        if crc32 is not None and found != crc32:
            raise RecoveryError(
                f"{table_path}: checksum mismatch (the manifest says "
                f"crc32={crc32}, the file has {found})"
            )
        try:
            if data.startswith(MAGIC):
                table = read_piece(data, schema, label_types)
            else:  # the CSV of an earlier layout: read once, rewritten
                table = BaseTable.parse_csv(data.decode("utf-8"), schema,
                                            label_types)
        except (TypeError, ValueError, SchemaError) as exc:
            raise RecoveryError(f"{table_path}: {exc}") from exc
        if rows is not None and table.n_rows != rows:
            raise RecoveryError(
                f"{table_path}: {table.n_rows} rows, the manifest says "
                f"{rows}"
            )
        piece = cls.build(table, aggregate)
        if crc32 is not None:
            piece._saved_at = (os.path.abspath(table_path), crc32)
        return piece

    def __repr__(self):
        return f"Piece({self.name}, rows={self.n_rows})"
