"""``Piece`` — one ``(dict tree, base table)`` pair and everything derived
from it.

Theorem 2 makes a QC-tree a *derived index of its base table*: unique
for the table, so always rebuildable from it, and Algorithms 5–7
maintain exactly that pair.  Every store in this repo is one or more
such pairs — a :class:`~repro.core.warehouse.QCWarehouse` holds one live
piece, a :class:`~repro.core.warehouse.SegmentedWarehouse` a list of
sealed pieces plus one live piece — and this class is the only place
that knows a pair's lifecycle: the refreeze decision
(:meth:`Piece.frozen_view`), the cover index (:attr:`Piece.cover_index`),
mutation by replacement (:meth:`Piece.derive`), the on-disk twin
(:meth:`Piece.save` / :meth:`Piece.load`), and :meth:`Piece.fsck` /
:meth:`Piece.rebuild`.

A piece is *live* until :meth:`Piece.seal` gives it a ``segment_id``;
from then on it is immutable (replaced through :meth:`derive`, never
edited), which is what lets a checkpoint skip files this very object
already wrote.

On disk a piece is the checksummed ``QCTREE/2`` snapshot plus the table
CSV; see :mod:`repro.core.manifest` for the checkpoint directory
every store writes.
"""

from __future__ import annotations

import os
import threading
from collections import Counter
from typing import Optional

from repro.core.construct import build_qctree
from repro.core.maintenance.batch import maintain_batch
from repro.core.serialize import load_qctree_from, save_qctree
from repro.cube.cover_index import CoverIndex
from repro.cube.table import BaseTable, csv_comment
from repro.errors import SchemaError, SerializationError
from repro.reliability.fsck import fsck_tree
from repro.reliability.transactional import transactional


def _stamped_lsn(meta) -> int:
    """The ``wal_lsn`` stamp of a snapshot meta dict (0 when absent)."""
    try:
        return int(meta.get("wal_lsn") or 0)
    except (AttributeError, TypeError, ValueError):
        return 0


def _csv_stamped_lsn(table_path) -> int:
    """The ``wal_lsn`` stamp of a table CSV comment (0 when absent)."""
    try:
        comment = csv_comment(table_path)
    except OSError:
        return 0
    if not comment or not comment.startswith("wal_lsn="):
        return 0
    try:
        return int(comment.split("=", 1)[1])
    except ValueError:
        return 0


def _paired_table(tree, table: BaseTable) -> Optional[BaseTable]:
    """``table`` (fresh from its CSV, codes minted in sorted order)
    re-encoded to the codes the loaded ``tree`` was saved under, or None
    when they cannot be paired: the file carries no ``labels``
    dictionaries, or they do not cover the table's labels."""
    labels = tree.snapshot_labels
    if labels is None:
        return None
    try:
        return table.with_label_dictionaries(labels)
    except SchemaError:
        return None


class Piece:
    """Owner of one ``(dict tree, table)`` pair (see module docstring)."""

    __slots__ = ("tree", "table", "segment_id", "_frozen", "_pending",
                 "_cover_index", "_cover_rebuilt", "_cover_patched",
                 "_row_counts", "_saved_at", "_lock")

    def __init__(self, tree, table: BaseTable, frozen=None,
                 segment_id: Optional[int] = None):
        #: The mutable dict tree Algorithms 5–7 run against.
        self.tree = tree
        #: The base table (copy-on-write: a batch installs a *new* one).
        self.table = table
        #: None while live; the segment id once sealed (immutable).
        self.segment_id = segment_id
        self._frozen = frozen
        self._pending = None
        # The long-lived cover index over the live table: built lazily
        # on the first write (or deep fsck), patched per batch from the
        # maintenance delta afterwards, discarded whenever a failed
        # batch leaves it ahead of the rolled-back table.
        self._cover_index = None
        self._cover_rebuilt = 0
        self._cover_patched = 0
        self._row_counts: Optional[Counter] = None
        self._saved_at = None
        self._lock = threading.Lock()

    @classmethod
    def build(cls, table: BaseTable, aggregate) -> "Piece":
        """A fresh piece over ``table`` (Algorithm 1 construction)."""
        return cls(build_qctree(table, aggregate), table)

    # -- read view -----------------------------------------------------------

    def frozen_view(self):
        """The frozen serving view, brought current on demand.

        Compiled on first use; afterwards the deltas accumulated since
        the last read are spliced into the stale view — cost
        proportional to the maintenance delta, not the tree size —
        unless :meth:`FrozenQCTree.patch
        <repro.core.frozen.FrozenQCTree.patch>` finds the dirty set too
        large and recompiles.
        Sealing hands a live piece over with whatever view and unread
        delta it had, so for a sealed piece the expensive compile/patch
        happens here — off the write path — at most once.
        """
        frozen = self._frozen
        if frozen is not None and self._pending is None:
            return frozen
        with self._lock:
            if self._frozen is None:
                self._frozen = self.tree.freeze()
            elif self._pending is not None:
                self._frozen = self._frozen.patch(self._pending)
            self._pending = None
            return self._frozen

    @property
    def frozen_ready(self) -> bool:
        """True when the serving view needs no further compile/patch work."""
        return self._frozen is not None and self._pending is None

    @property
    def pending_delta(self):
        """The merged maintenance delta no read has consumed yet (None
        when the view is current or was never compiled)."""
        return self._pending

    def drop_view(self) -> None:
        """Forget the frozen view and any unread delta: the next
        :meth:`frozen_view` recompiles from the (transactionally
        maintained) dict tree, which is always safe."""
        with self._lock:
            self._frozen = None
            self._pending = None

    @property
    def n_rows(self) -> int:
        return self.table.n_rows

    @property
    def name(self) -> str:
        """How reports refer to this piece."""
        if self.segment_id is None:
            return "head"
        return f"segment[{self.segment_id}]"

    def row_counts(self) -> Counter:
        """``Counter`` of encoded dimension tuples, for delete routing.

        Memoised until the next batch (forever, once sealed); lets a
        delete batch count its matches here in O(records) instead of
        O(rows).
        """
        counts = self._row_counts
        if counts is None:
            with self._lock:
                counts = self._row_counts
                if counts is None:
                    counts = Counter(self.table.rows)
                    self._row_counts = counts
        return counts

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
        delta (when a frozen view exists to patch), so any number of
        writes between two reads cost one patch.
        """
        with self._lock:
            try:
                result = maintain_batch(self.tree, self.table,
                                        inserts=inserts, deletes=deletes,
                                        cover_index=self.cover_index)
            except BaseException:
                # The tree rolled back, but the persistent index may
                # already hold the batch delta — drop it; the next batch
                # rebuilds it lazily.
                self._cover_index = None
                raise
            self.table = result.table
            self._row_counts = None
            self._cover_patched += 1
            if self._frozen is not None:
                pending = self._pending
                self._pending = (
                    result.delta if pending is None
                    else pending.merge(result.delta)
                )
        return result

    def preview(self, inserts=(), deletes=()) -> tuple:
        """``(before, after)`` — the classes as ``{decoded upper bound:
        value}`` now and as the batch would leave them; nothing is kept.

        Apply → read → roll back on the live dict tree, borrowed under
        the piece's lock: readers only ever see the frozen view, which
        the round trip leaves current.  The persistent cover index is
        not lent (a rolled-back batch would leave it ahead of the table).
        """
        def classes(table):
            return {table.decode_cell(ub): value for ub, value
                    in self.tree.class_upper_bounds().items()}

        with self._lock, transactional(self.tree) as rollback:
            try:
                before = classes(self.table)
                result = maintain_batch(self.tree, self.table,
                                        inserts=inserts, deletes=deletes)
                return before, classes(result.table)
            finally:
                rollback()

    def derive(self, inserts=(), deletes=(),
               segment_id: Optional[int] = None) -> "Piece":
        """A new piece equal to this one after the batch; this piece is
        not touched.

        The batch runs on a *copy* of the dict tree (the one tree copy
        left on a write path: a second tree is the contract here) and a
        finalised frozen view is patched copy-on-write, so concurrent
        readers and failed batches both see the original.  ``deletes``
        are matched the way
        :func:`~repro.core.maintenance.delete.resolve_deletions`
        matches — earliest rows first, measures ignored; ``inserts`` are
        appended after this piece's rows and ``maintain_batch`` sorts
        them on their dimension labels only (a stable sort), so rows
        with the same dimension tuple keep their arrival order — what
        earliest-first delete matching depends on.
        """
        tree = self.tree.copy()
        result = maintain_batch(tree, self.table,
                                inserts=inserts, deletes=deletes)
        frozen = None
        if self.frozen_ready:
            frozen = self._frozen.patch(result.delta)
        return Piece(tree, result.table, frozen=frozen,
                     segment_id=segment_id)

    def seal(self, segment_id: int) -> None:
        """Make this piece immutable under ``segment_id`` — O(1): the
        frozen view and unread delta stay as they are (finalised lazily
        by :meth:`frozen_view`), only the write-side index is released."""
        self.segment_id = segment_id
        self._cover_index = None

    def rebuild(self) -> None:
        """Rebuild the tree from the table (Theorem 2: the table
        determines it), dropping everything derived from the old one."""
        self.tree = build_qctree(self.table, self.tree.aggregate)
        self._saved_at = None
        self.drop_view()

    def fsck(self, deep: bool = True, samples: Optional[int] = 64,
             seed: int = 0):
        """Verify the pair; ``deep`` also re-derives sampled class
        aggregates from the table."""
        return fsck_tree(
            self.tree,
            table=self.table if deep else None,
            samples=samples,
            seed=seed,
            # Reuse the persistent index (when one is live) instead of
            # re-deriving the posting lists for the aggregate pass.
            cover_index=self._cover_index if deep else None,
        )

    # -- persistence -----------------------------------------------------------

    def save(self, tree_path, table_path, meta=None) -> None:
        """Persist the pair: table CSV first, then the ``QCTREE/2`` tree.

        Both writes are atomic (temp file + fsync + rename) and both are
        stamped with ``meta["wal_lsn"]`` when given — the last log
        position they include.  The table is written *before* the tree,
        so a crash between the two leaves a recognisable state: a table
        stamped ahead of the tree (:meth:`load` rebuilds the tree from
        it) rather than the reverse, which would be unrecoverable
        without a table at the tree's lsn.

        A sealed piece is immutable, so it skips the write when *this
        object* already persisted itself at (or was loaded from) exactly
        these paths and the files are still there; a file that merely
        has the right name — left by another run or another warehouse —
        is overwritten.
        """
        paths = (os.path.abspath(tree_path), os.path.abspath(table_path))
        if (self.segment_id is not None and self._saved_at == paths
                and all(os.path.exists(p) for p in paths)):
            return
        lsn = (meta or {}).get("wal_lsn")
        comment = f"wal_lsn={lsn}" if lsn is not None else None
        self.table.to_csv(table_path, comment=comment)
        # The label dictionaries ride along: the tree stores encoded
        # codes, and a CSV round-trip would otherwise re-mint them in
        # sorted order — silently mispairing tree and table whenever
        # maintenance appended labels out of sorted order.
        save_qctree(self.tree, tree_path, meta=meta,
                    labels=self.table._decoders)
        self._saved_at = paths

    @classmethod
    def load(cls, tree_path, table_path, schema, aggregate) -> tuple:
        """Restore a pair written by :meth:`save`; returns ``(piece,
        lsn, rebuilt)`` — the WAL position the pair includes and whether
        the tree had to be rebuilt from the CSV.

        The table is authoritative (it is written first, so it is at
        least as fresh, and Theorem 2 makes the rebuilt tree answer
        identically); the stored tree is used only when it provably
        pairs with it.  The tree is rebuilt from the table when

        * the tree file is missing or fails its checksum;
        * the table is stamped ahead of the tree (torn checkpoint: the
          table committed, the tree written after it did not);
        * the file carries **no** ``labels`` dictionaries (legacy or
          hand-written): a CSV parse mints codes in sorted order, the
          tree may have been saved under any order, and nothing in the
          file says which;
        * the dictionaries do not cover the table's labels (a table
          replaced after the tree was written).

        Otherwise the CSV table is re-encoded to the codes the tree was
        saved under (:func:`_paired_table`).  A rebuild uses
        ``aggregate`` — the one the manifest records.  A missing or
        unreadable CSV is unrecoverable and propagates.
        """
        table = BaseTable.from_csv(table_path, schema)
        table_lsn = _csv_stamped_lsn(table_path)
        try:
            tree = load_qctree_from(tree_path)
        except (SerializationError, OSError):
            tree = None
        if tree is not None:
            lsn = _stamped_lsn(tree.snapshot_meta)
            paired = None if table_lsn > lsn else _paired_table(tree, table)
            if paired is not None:
                piece = cls(tree, paired)
                piece._saved_at = (os.path.abspath(tree_path),
                                   os.path.abspath(table_path))
                return piece, lsn, False
        return cls.build(table, aggregate), table_lsn, True

    def __repr__(self):
        return (
            f"Piece({self.name}, rows={self.n_rows}, "
            f"classes={self.tree.n_classes})"
        )
