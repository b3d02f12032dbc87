"""``QCWarehouse`` — the quotient cube-based data warehouse, in one object.

The paper recommends building a general-purpose warehouse on the cover
quotient cube; this façade wires the pieces together: the base table, the
QC-tree summary, the measure index for iceberg queries, incremental
maintenance, semantic exploration, and persistence.  Queries accept raw
dimension labels (``"S1"``, ``"*"``) and return decoded results.

:class:`BaseWarehouse` is the part of that façade the serving layer
programs against — query families, exploration, ``maintain`` with its
WAL logging, serving stamp and view — written once for this warehouse
and :class:`~repro.segments.warehouse.SegmentedWarehouse`.

Example
-------
>>> schema = Schema(dimensions=("Store", "Product", "Season"), measures=("Sale",))
>>> wh = QCWarehouse.from_records(
...     [("S1", "P1", "s", 6.0), ("S1", "P2", "s", 12.0), ("S2", "P1", "f", 9.0)],
...     schema, aggregate=("avg", "Sale"))
>>> wh.point(("S2", "*", "f"))
9.0
"""

from __future__ import annotations

import threading
from typing import Optional

from repro.core.iceberg import MeasureIndex
from repro.core.query_cache import (
    MISS,
    LsnQueryCache,
    constrained_iceberg_cache_key,
    iceberg_cache_key,
    point_cache_key,
    range_cache_key,
)
from repro.core.piece import Piece
from repro.cube.aggregates import make_aggregate
from repro.cube.schema import Schema
from repro.cube.table import BaseTable
from repro.errors import MaintenanceError, QueryError, SchemaError
from repro.reliability.fsck import FsckReport
from repro.reliability.wal import WriteAheadLog
from repro.serving.scatter import PieceView
from repro.serving.snapshot import ServingSnapshot


def wal_batch(record) -> tuple:
    """``(inserts, deletes)`` of one committed WAL record: pure batches
    are logged under the classic ``insert``/``delete`` ops, mixed ones
    as one ``maintain`` record with ``-``/``+``-tagged rows."""
    if record.op == "maintain":
        return (
            [r[1:] for r in record.records if r[:1] == ("+",)],
            [r[1:] for r in record.records if r[:1] == ("-",)],
        )
    if record.op == "insert":
        return record.records, ()
    return (), record.records


class BaseWarehouse:
    """The server-facing warehouse surface, written once.

    Everything :class:`~repro.serving.server.QCServer` and its callers
    use of a warehouse that does not depend on how the store is laid out
    lives here: the stamped query cache, the four query families, the
    semantic exploration API, the mutation entry points with their
    write-ahead logging, and the serving stamp / view / degraded flag.
    A concrete warehouse is one or more :class:`~repro.core.piece.Piece`
    objects — ``(dict tree, table)`` pairs that own their frozen view,
    cover index and on-disk twin — of which exactly one, ``_live``, takes
    writes (:class:`QCWarehouse`: that one piece;
    :class:`~repro.segments.warehouse.SegmentedWarehouse`: sealed pieces
    plus it).  It supplies three hooks:

    ``pieces()``
        every piece of the store, oldest first, the live one last (the
        default is the one-piece store);
    ``_generation``
        bumped on every change of the piece *set* (seal, compaction,
        delete rewrite, recovery; never, for one piece) and stamped on
        snapshots for ``describe()``; each bump comes with an epoch
        bump, so the stamp alone invalidates the query cache;
    ``_apply(inserts, deletes)``
        the WAL-free batch body (also the recovery replay path), which
        ends by calling ``_mutated``.

    Everything that is the one-piece case of a loop over ``pieces()`` —
    :meth:`snapshot_view`, :meth:`verify`, :meth:`rebuild`, the
    degraded-mode scan, the WAL replay of ``recover`` — is written here,
    once.
    """

    _generation = 0

    def __init__(self, aggregate, index_key, wal, cache_size: int):
        self.aggregate = make_aggregate(aggregate)
        self._index_key = index_key
        self.wal: Optional[WriteAheadLog] = wal
        self._cache = LsnQueryCache(cache_size) if cache_size else None
        # One re-entrant lock covers piece-list swaps and live-piece
        # mutation; heavy work (compaction merges, frozen-view compiles)
        # happens outside it, so readers and writers only ever wait on
        # pointer swaps.  A monolithic warehouse has no background
        # thread and only ever takes it uncontended.
        self._lock = threading.RLock()
        #: The one piece writes land in; set by the concrete warehouse.
        self._live: Optional[Piece] = None
        self._epoch = 0
        self._view = None
        self._degraded = False
        self._fsck_report = None
        self.last_recovery: Optional[dict] = None
        #: ``patch_stats`` of the most recent refreeze (None before the
        #: first one) — how the serving view was last brought current.
        self.last_refreeze: Optional[dict] = None
        #: Stats of the most recent :meth:`maintain` call (None before
        #: the first one): tuple counts, ``partition_s`` / ``merge_s`` /
        #: ``index_s`` sub-phase seconds, and the delta summary.
        self.last_maintenance: Optional[dict] = None
        self._maintain_batched = 0
        self._maintain_sequential = 0

    @classmethod
    def from_records(cls, records, schema: Schema, aggregate="count",
                     index_key=None, **options):
        """Build a warehouse from raw records."""
        return cls(BaseTable.from_records(records, schema), aggregate,
                   index_key=index_key, **options)

    # -- serving state -------------------------------------------------------

    def serving_stamp(self) -> tuple:
        """The logical version cached answers are valid at.

        ``(WAL LSN, mutation epoch)``: the LSN covers logged maintenance
        (PR 1's durability path), the epoch covers un-logged changes —
        WAL-less warehouses, :meth:`rebuild`, degraded-mode flips, and a
        segmented store's seals and compactions.
        """
        lsn = self.wal.last_lsn if self.wal is not None else 0
        return (lsn, self._epoch)

    def pieces(self) -> list:
        """Every ``(dict tree, table)`` pair, oldest first, live last."""
        return [self._live]

    @property
    def tree(self):
        """The live piece's mutable dict tree."""
        return self._live.tree

    @property
    def table(self) -> BaseTable:
        """The live piece's base table."""
        return self._live.table

    @property
    def serving_tree(self):
        """The live piece's frozen view, brought current lazily:
        compiled on first use, incrementally patched from the merged
        maintenance deltas afterwards (:meth:`Piece.frozen_view
        <repro.core.piece.Piece.frozen_view>`)."""
        frozen = self._live.frozen_view()
        self.last_refreeze = dict(frozen.patch_stats)
        return frozen

    def snapshot_view(self) -> ServingSnapshot:
        """A fresh immutable snapshot of the current serving state: one
        view per sealed piece (oldest first, each finalizing its frozen
        view here if no one has yet) plus the live piece's
        :attr:`serving_tree`, last.

        This is the publication point the concurrent server
        (:class:`~repro.serving.server.QCServer`) swaps into place after
        each mutation; the snapshot shares no mutable structure with the
        warehouse unless the warehouse is degraded.
        """
        with self._lock:
            views = [PieceView(piece.frozen_view(), piece.table)
                     for piece in self.pieces()[:-1]]
            views.append(PieceView(self.serving_tree, self.table))
            return ServingSnapshot(
                views, self.aggregate, stamp=self.serving_stamp(),
                generation=self._generation, index_key=self._index_key,
            )

    @property
    def view(self):
        """The snapshot queries delegate to right now.

        Rebuilt lazily after each mutation (:meth:`snapshot_view`), so
        every query family — point, range, iceberg, *and* the semantic
        exploration API — runs on the frozen trees while healthy.
        """
        if self._view is None:
            self._view = self.snapshot_view()
        return self._view

    @property
    def degraded(self) -> bool:
        """True when the last :meth:`verify` found corruption."""
        return self._degraded

    def _mutated(self) -> None:
        """Invalidate every warehouse-level read structure after a change
        to any piece: the cached view is dropped and the epoch bump
        invalidates every cached answer.  (The pieces look after their
        own frozen views: a batch's delta is merged into the live
        piece's pending patch, everything else drops the view.)"""
        self._view = None
        self._epoch += 1

    def invalidate_serving_view(self) -> None:
        """Drop every derived serving structure and start clean.

        The next :attr:`serving_tree` access recompiles the frozen view
        from the dict tree instead of patching; the next :attr:`view`
        access rebuilds the snapshot; the epoch bump invalidates every
        cached answer.  This is the serving layer's recovery fallback:
        when an incremental refreeze or a snapshot publication fails
        partway, the accumulated patch state is suspect — discarding it
        and recompiling from the (transactionally maintained) dict tree
        is always safe.
        """
        with self._lock:
            self._live.drop_view()
            self._mutated()

    def verify(self, deep: bool = True, samples: Optional[int] = 64,
               seed: int = 0) -> FsckReport:
        """Fsck every piece and merge the reports; returns the
        :class:`FsckReport <repro.reliability.fsck.FsckReport>`.

        ``deep=True`` also re-derives sampled class aggregates from the
        base tables.  A failing report flips the warehouse into degraded
        mode: :meth:`point` answers by base-table scan until a later
        :meth:`verify` passes (e.g. after :meth:`rebuild`).
        """
        pieces = self.pieces()
        report = FsckReport()
        for piece in pieces:
            sub = piece.fsck(deep=deep, samples=samples, seed=seed)
            # A one-piece store has nothing to tell apart.
            prefix = f"{piece.name}: " if len(pieces) > 1 else ""
            for issue in sub.issues:
                report.add(issue.code, prefix + issue.message, issue.node)
            for what, count in sub.checked.items():
                report.checked[what] = report.checked.get(what, 0) + count
        # A pass/fail flip switches the serving representation, so
        # indexed node ids and cached answers are both suspect — the
        # cache may hold answers computed before the corruption was
        # detected.
        was_degraded = self._degraded
        self._degraded = not report.ok
        self._fsck_report = report
        if was_degraded != self._degraded:
            self.invalidate_serving_view()
        return report

    def rebuild(self) -> None:
        """Rebuild every piece's tree from its table (recovers from
        degraded mode when the tables are trustworthy)."""
        with self._lock:
            for piece in self.pieces():
                piece.rebuild()
            self._mutated()
            self._degraded = False
            self._fsck_report = None

    def _scan_point(self, raw_cell):
        """The degraded-mode point answer, straight from the base rows
        of every piece (states merge because each base row lives in
        exactly one piece)."""
        n_dims = self._live.table.n_dims
        if len(raw_cell) != n_dims:
            raise QueryError(
                f"query cell {raw_cell!r} has {len(raw_cell)} positions, "
                f"table has {n_dims} dimensions"
            )
        state = None
        for piece in self.pieces():
            table = piece.table
            try:
                cell = table.encode_cell(raw_cell)
            except SchemaError:
                continue
            rows = table.select(cell)
            if not rows:
                continue
            part = self.aggregate.state(table, rows)
            state = part if state is None else self.aggregate.merge(
                state, part
            )
        return None if state is None else self.aggregate.value(state)

    # -- queries -------------------------------------------------------------

    def _cached(self, key, compute, copy=None):
        """Serve ``compute()`` through the stamped query cache.

        ``key`` of None (query not normalizable) bypasses the cache, as
        does a disabled cache or degraded mode.  ``copy`` (e.g. ``dict``
        / ``list``) guards mutable cached results: both the hit and the
        fill path return a private copy, so a caller mutating its answer
        can never poison the cache.
        """
        cache = self._cache
        if cache is None or key is None or self._degraded:
            return compute()
        stamp = self.serving_stamp()
        value = cache.lookup(key, stamp)
        if value is MISS:
            value = compute()
            cache.store(key, stamp, value)
        return value if copy is None else copy(value)

    def point(self, raw_cell):
        """Point query with raw labels (``"*"`` / None / ALL for any).

        Served from the query cache when a fresh answer for the cell is
        present, else from the :attr:`view`.  A degraded warehouse (one
        whose tree failed :meth:`verify`) answers by scanning the base
        rows instead of routing through the possibly-corrupt tree —
        slower, but never wrong — and bypasses the cache entirely.
        """
        if self._degraded:
            return self._scan_point(raw_cell)
        return self._cached(
            point_cache_key(raw_cell), lambda: self.view.point(raw_cell)
        )

    def range(self, raw_spec) -> dict:
        """Range query with raw labels; returns ``{decoded cell: value}``.

        Cached under a normalized spec key — equivalent scalar/list/set/
        ``range`` spellings of the same query share one entry — at the
        current serving stamp, so any mutation invalidates it.
        """
        return self._cached(
            range_cache_key(raw_spec),
            lambda: self.view.range(raw_spec),
            copy=dict,
        )

    def iceberg(self, threshold, op: str = ">=") -> list:
        """Pure iceberg query: classes whose aggregate clears the threshold.

        Returns ``[(decoded upper bound, value), ...]``; cached at the
        current serving stamp like :meth:`range`.
        """
        return self._cached(
            iceberg_cache_key(threshold, op),
            lambda: self.view.iceberg(threshold, op=op),
            copy=list,
        )

    def iceberg_in_range(self, raw_spec, threshold, op: str = ">=",
                         strategy: str = "filter") -> dict:
        """Constrained iceberg query; returns ``{decoded cell: value}``."""
        return self._cached(
            constrained_iceberg_cache_key(raw_spec, threshold, op, strategy),
            lambda: self.view.iceberg_in_range(
                raw_spec, threshold, op=op, strategy=strategy
            ),
            copy=dict,
        )

    # -- exploration ---------------------------------------------------------

    # All exploration runs through the serving view (the frozen trees
    # while healthy): the shared traversal protocol makes every
    # representation answer identically, so these are thin delegations.

    def class_of(self, raw_cell):
        """The class containing a cell: ``(decoded upper bound, value)``."""
        return self.view.class_of(raw_cell)

    def rollup(self, raw_cell) -> list:
        """Intelligent roll-up: most general contexts with the same value."""
        return self.view.rollup(raw_cell)

    def rollup_exceptions(self, raw_cell) -> list:
        """Classes inside the roll-up region that break the value."""
        return self.view.rollup_exceptions(raw_cell)

    def drilldowns(self, raw_cell) -> list:
        """One-step drill-down classes from a cell's class."""
        return self.view.drilldowns(raw_cell)

    def rollups(self, raw_cell) -> list:
        """One-step roll-up classes from a cell's class."""
        return self.view.rollups(raw_cell)

    def open_class(self, raw_cell):
        """Drill into a class: upper bound, lower bounds, members (decoded)."""
        return self.view.open_class(raw_cell)

    # -- maintenance ---------------------------------------------------------

    def maintain(self, inserts=(), deletes=()) -> None:
        """Apply one mixed maintenance batch through the batched engine.

        Every mutating entry point (:meth:`insert`, :meth:`delete`,
        :meth:`modify`) funnels here: deletes are applied before inserts
        (§3.3 modification order), the whole batch runs as a single
        :func:`~repro.core.maintenance.maintain_batch` transaction
        recording one merged delta, and consequently produces one
        refreeze patch and one serving-version bump.

        With a write-ahead log attached (:meth:`attach_wal`), the batch
        is durably logged *before* anything mutates (see
        :func:`wal_batch` for the record shapes), so a crash at any
        later point is recoverable via ``recover``.  An empty batch is a
        true no-op: nothing is logged, the serving version does not
        move, and cached answers stay valid.
        """
        inserts = [tuple(r) for r in inserts]
        deletes = [tuple(r) for r in deletes]
        if not inserts and not deletes:
            return
        if self.wal is not None:
            if not deletes:
                self.wal.append("insert", inserts)
            elif not inserts:
                self.wal.append("delete", deletes)
            else:
                tagged = [("-",) + r for r in deletes]
                tagged += [("+",) + r for r in inserts]
                self.wal.append("maintain", tagged)
        self._apply(inserts, deletes)

    def _record_batch(self, inserts, deletes, result, **extra) -> None:
        """Bookkeeping after a successful ``maintain_batch``."""
        if len(inserts) + len(deletes) > 1:
            self._maintain_batched += 1
        else:
            self._maintain_sequential += 1
        stats = dict(result.stats)
        stats["delta"] = result.delta.summary()
        stats.update(extra)
        self.last_maintenance = stats

    def insert(self, records) -> None:
        """Insert raw records incrementally (one batched maintenance call).

        The mutation is transactional: on failure the warehouse is
        unchanged.  See :meth:`maintain` for the logging contract.
        """
        self.maintain(inserts=records)

    def delete(self, records) -> None:
        """Delete raw records incrementally (batch, matched on dimensions,
        earliest surviving row first)."""
        self.maintain(deletes=records)

    def modify(self, old_records, new_records) -> None:
        """Replace records: the paper's "modifications can be simulated by
        deletions and insertions" (§3.3), executed as ONE mixed batch —
        one WAL record, one transaction, one delta, one refreeze patch."""
        self.maintain(inserts=new_records, deletes=old_records)

    def attach_wal(self, wal_path) -> WriteAheadLog:
        """Start write-ahead logging maintenance batches to ``wal_path``.

        Returns the log; subsequent :meth:`maintain` calls append to it
        before mutating.  ``checkpoint`` folds the logged batches into a
        snapshot and truncates the log.
        """
        self.wal = WriteAheadLog(wal_path)
        return self.wal

    def _replay(self, wal_path, checkpoint_lsn: int, **report) -> None:
        """Finish a ``recover``: re-apply, in order, every committed WAL
        batch past ``checkpoint_lsn``, then adopt the log.

        Replay runs the same batch body as the live path (``_apply``,
        minus the WAL append) — including the persistent cover index,
        built once from the checkpoint table and patched per replayed
        batch, and a segmented store's seal thresholds — so the
        recovered store is node-for-node the live one.  A batch the
        snapshot's lsn stamp already includes is skipped, so a crash
        *during* a checkpoint (snapshot written, log not yet truncated)
        never applies a batch twice; a torn WAL tail (crash mid-append)
        is dropped — that batch never committed; a batch that
        deterministically refuses to apply (:class:`MaintenanceError`,
        e.g. it already failed identically before the crash) is skipped
        and reported rather than wedging recovery.  ``last_recovery``
        records what happened, plus the caller's ``report`` entries.
        """
        wal = WriteAheadLog(wal_path)
        replayed, skipped = 0, []
        for record in wal.records():
            if record.lsn <= checkpoint_lsn:
                continue  # already folded into the snapshot
            inserts, deletes = wal_batch(record)
            try:
                self._apply(list(inserts), list(deletes))
                replayed += 1
            except MaintenanceError as exc:
                skipped.append((record.lsn, str(exc)))
        self.invalidate_serving_view()
        self.wal = wal
        self.last_recovery = dict(
            report,
            replayed=replayed,
            skipped=skipped,
            torn_tail=wal.tail_was_torn,
            checkpoint_lsn=checkpoint_lsn,
        )

    # -- what the servers call on any warehouse ---------------------------------

    def close(self) -> None:
        """Stop background work (none here); the warehouse stays
        queryable."""

    def set_phase_observer(self, observer) -> None:
        """Register ``observer(phase_name, seconds)`` for background
        phases the serving layer cannot time itself (none here)."""

    def segment_health(self) -> Optional[dict]:
        """Segment lifecycle readout for ``health``/``stats()``; None
        for a store that has no segments."""
        return None

    def _common_stats(self, out: dict, serving: str, frozen: bool = True,
                      **stamp) -> dict:
        """The stats entries every warehouse reports the same way: the
        serving stamp (WAL LSN + mutation epoch + whether a frozen view
        is serving, plus the caller's ``stamp`` entries) and the query
        cache's hit/miss/eviction counters, so operators can see cache
        health and the serving version without poking private
        attributes."""
        lsn, epoch = self.serving_stamp()
        out.update(
            n_rows=sum(piece.n_rows for piece in self.pieces()),
            n_dims=self.table.n_dims,
            aggregate=self.aggregate.name,
            degraded=self._degraded,
            serving=serving,
            serving_stamp=dict(stamp, lsn=lsn, epoch=epoch, frozen=frozen),
            maintain_batched=self._maintain_batched,
            maintain_sequential=self._maintain_sequential,
        )
        if self._cache is not None:
            out["query_cache"] = self._cache.stats()
        if self.last_refreeze is not None:
            out["refreeze"] = dict(self.last_refreeze)
        if self.last_maintenance is not None:
            out["maintenance"] = dict(self.last_maintenance)
        return out


class QCWarehouse(BaseWarehouse):
    """A queryable, maintainable OLAP warehouse backed by a QC-tree.

    Reads are served from a frozen, array-backed view of the tree
    (:meth:`QCTree.freeze <repro.core.qctree.QCTree.freeze>`) brought
    current lazily after each mutation — incrementally patched from the
    recorded maintenance delta when the dirty set is small
    (:meth:`FrozenQCTree.patch <repro.core.frozen.FrozenQCTree.patch>`),
    recompiled otherwise — with point answers memoized in a bounded
    LRU cache stamped by the serving version (WAL LSN + local mutation
    epoch) — any insert, delete, rebuild, or recovery atomically
    invalidates every cached answer.  Pass ``cache_size=0`` to disable
    the cache.
    """

    def __init__(self, table: BaseTable, aggregate="count",
                 tree=None, index_key=None, wal=None,
                 cache_size: int = 1024):
        super().__init__(aggregate, index_key, wal, cache_size)
        self._live = (
            Piece(tree, table) if tree is not None
            else Piece.build(table, self.aggregate)
        )

    # -- queries -------------------------------------------------------------

    @property
    def serving_tree(self):
        """The representation queries run against right now.

        The frozen view while healthy (built on first use after any
        mutation); the mutable tree while degraded (fsck found
        corruption — no point compiling a corrupt tree into a faster
        one).  The selection is made from ``_degraded``, a state the
        code observes; there is no option that picks the read engine.
        """
        if self._degraded:
            return self.tree
        return super().serving_tree

    @property
    def index(self) -> MeasureIndex:
        """The measure index, (re)built lazily after updates.

        Owned by the serving :attr:`view` — the node ids it stores must
        belong to the representation queries traverse (the mark strategy
        intersects them with live walk positions).
        """
        return self.view.index

    # -- maintenance ------------------------------------------------------------

    @property
    def cover_index(self):
        """The live piece's persistent posting-list index
        (:attr:`Piece.cover_index <repro.core.piece.Piece.cover_index>`;
        its counters are ``cover_index`` in :meth:`stats`)."""
        return self._live.cover_index

    def _apply(self, inserts, deletes) -> None:
        """The WAL-free batch body (also the recovery replay path)."""
        result = self._live.apply(inserts, deletes)
        self._record_batch(inserts, deletes, result)
        self._mutated()

    def what_if(self, insertions=(), deletions=()) -> dict:
        """What-if analysis (§1): the class-level impact of a hypothetical
        update, without touching this warehouse.

        Applies the deletions then the insertions to the live piece,
        reads the class structure and rolls the batch back
        (:meth:`Piece.preview <repro.core.piece.Piece.preview>`), then
        diffs.  Returns a dict with ``added``, ``removed``, and
        ``changed`` mappings from decoded upper bounds to aggregate
        values (``changed`` maps to ``(before, after)`` pairs).  No CLI
        verb or protocol command reaches it; it stays as the paper's
        motivating application, on the same journal every write uses.
        """
        from repro.cube.aggregates import values_close

        before, after = self._live.preview(insertions, deletions)
        return {
            "added": {ub: v for ub, v in after.items() if ub not in before},
            "removed": {
                ub: v for ub, v in before.items() if ub not in after
            },
            "changed": {
                ub: (before[ub], after[ub])
                for ub in before.keys() & after.keys()
                if not values_close(before[ub], after[ub])
            },
        }

    # -- persistence ---------------------------------------------------------------

    def save(self, tree_path, table_path=None) -> None:
        """Persist the QC-tree (and optionally the base table as CSV).

        Both writes are atomic and ordered table first, tree second;
        with a WAL attached, both snapshots are stamped with the last
        log position they include (``wal_lsn``), which lets
        :meth:`recover` skip already-applied batches — see
        :meth:`Piece.save <repro.core.piece.Piece.save>` for why that
        order is the recoverable one.
        """
        lsn = self.wal.last_lsn if self.wal is not None else None
        meta = {"wal_lsn": lsn} if lsn is not None else None
        self._live.save(tree_path, table_path, meta=meta)

    @classmethod
    def _restore(cls, tree_path, table_path, schema, index_key) -> tuple:
        """``(warehouse, lsn, rebuilt)`` from the one pair loader
        (:meth:`Piece.load <repro.core.piece.Piece.load>`)."""
        piece, lsn, rebuilt = Piece.load(tree_path, table_path, schema)
        wh = cls(piece.table, piece.tree.aggregate, tree=piece.tree,
                 index_key=index_key)
        return wh, lsn, rebuilt

    @classmethod
    def load(cls, tree_path, table_path, schema: Schema,
             index_key=None) -> "QCWarehouse":
        """Restore a warehouse persisted by :meth:`save` (the frozen
        serving view is compiled on the first query, or by reading
        :attr:`serving_tree`)."""
        return cls._restore(tree_path, table_path, schema, index_key)[0]

    # -- durability ------------------------------------------------------------

    def checkpoint(self, tree_path, table_path=None) -> None:
        """Snapshot the warehouse, then truncate the WAL.

        Each step is individually atomic and ordered so a crash at any
        point recovers cleanly: table first, then tree, then the log.
        The snapshots carry the lsn they include, and WAL sequence
        numbers are monotonic across truncations, so :meth:`recover`
        replays exactly the batches the surviving snapshot is missing —
        never a batch twice.
        """
        self.save(tree_path, table_path)
        if self.wal is not None:
            self.wal.truncate()

    @classmethod
    def recover(cls, tree_path, wal_path, table_path, schema: Schema,
                index_key=None) -> "QCWarehouse":
        """Rebuild a warehouse after a crash: snapshot + WAL replay.

        Loads the last checkpoint (``tree_path`` + ``table_path``) — a
        torn one, whose table snapshot committed but whose tree snapshot
        (written after it) did not, has its tree rebuilt from the table,
        which already contains every batch up to its stamp — then
        replays the WAL past the snapshot's lsn (:meth:`_replay
        <BaseWarehouse._replay>`).  The returned warehouse keeps logging
        to the same WAL; ``last_recovery`` records what was replayed.
        """
        wh, lsn, rebuilt = cls._restore(tree_path, table_path, schema,
                                        index_key)
        wh._replay(wal_path, lsn, rebuilt=rebuilt)
        return wh

    # -- reporting -------------------------------------------------------------------

    def stats(self) -> dict:
        """Summary counts for the warehouse and its tree, on top of the
        shared entries (:meth:`_common_stats`)."""
        out = self.tree.stats()
        out["cover_index"] = self._live.cover_stats()
        frozen = not self._degraded
        return self._common_stats(out, "frozen" if frozen else "dict", frozen)

    def __repr__(self):
        flags = ", degraded" if self._degraded else ""
        return (
            f"QCWarehouse(rows={self.table.n_rows}, "
            f"classes={self.tree.n_classes}, "
            f"aggregate={self.aggregate.name}{flags})"
        )
