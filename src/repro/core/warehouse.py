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

from typing import Optional

from repro.core.construct import build_qctree
from repro.core.iceberg import MeasureIndex
from repro.core.maintenance.batch import maintain_batch
from repro.core.maintenance.delete import apply_deletions
from repro.core.maintenance.insert import apply_insertions
from repro.core.query_cache import (
    MISS,
    LsnQueryCache,
    constrained_iceberg_cache_key,
    iceberg_cache_key,
    point_cache_key,
    range_cache_key,
)
from repro.core.serialize import load_qctree_from, save_qctree
from repro.cube.aggregates import make_aggregate
from repro.cube.schema import Schema
from repro.cube.table import BaseTable, csv_comment
from repro.errors import MaintenanceError, QueryError, SchemaError
from repro.reliability.fsck import fsck_tree, scan_point_query
from repro.reliability.wal import WriteAheadLog
from repro.serving.snapshot import ServingSnapshot


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
    A concrete warehouse (:class:`QCWarehouse`: one tree;
    :class:`~repro.segments.warehouse.SegmentedWarehouse`: many) supplies
    four hooks:

    ``snapshot_view()``
        a fresh immutable snapshot of the current serving state, with
        the query methods every family delegates to;
    ``_scan_point(raw_cell)``
        the degraded-mode point answer, straight from the base rows;
    ``_cache_prefix``
        a tuple prepended to every query-cache key (the segment
        generation, so seals and compactions re-key);
    ``_apply(inserts, deletes)``
        the WAL-free batch body (also the recovery replay path), which
        ends by calling ``_mutated``.
    """

    _cache_prefix: tuple = ()

    def __init__(self, aggregate, index_key, wal, cache_size: int,
                 full_refreeze_ratio: float):
        self.aggregate = make_aggregate(aggregate)
        self._index_key = index_key
        self.wal: Optional[WriteAheadLog] = wal
        self._cache = LsnQueryCache(cache_size) if cache_size else None
        #: Dirty fraction above which the next refreeze recompiles instead
        #: of patching (forwarded to :meth:`FrozenQCTree.patch
        #: <repro.core.frozen.FrozenQCTree.patch>`).
        self.full_refreeze_ratio = full_refreeze_ratio
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

    def _adopt_fsck(self, report):
        """Record a :meth:`verify` report; a pass/fail flip switches the
        serving representation, so indexed node ids and cached answers
        are both suspect — the cache may hold answers computed before
        the corruption was detected."""
        was_degraded = self._degraded
        self._degraded = not report.ok
        self._fsck_report = report
        if was_degraded != self._degraded:
            self.invalidate_serving_view()
        return report

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
        key = self._cache_prefix + key
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

    def _common_stats(self, out: dict) -> dict:
        """The stats entries every warehouse reports the same way."""
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
    (:meth:`FrozenQCTree.patch <repro.core.frozen.FrozenQCTree.patch>`,
    see ``full_refreeze_ratio``), recompiled otherwise — with point
    answers memoized in a bounded
    LRU cache stamped by the serving version (WAL LSN + local mutation
    epoch) — any insert, delete, rebuild, or recovery atomically
    invalidates every cached answer.  Pass ``serve_frozen=False`` to
    query the mutable dict-backed tree directly, or ``cache_size=0`` to
    disable the cache.
    """

    def __init__(self, table: BaseTable, aggregate="count",
                 tree=None, index_key=None, wal=None,
                 serve_frozen: bool = True, cache_size: int = 1024,
                 full_refreeze_ratio: float = 0.25):
        super().__init__(aggregate, index_key, wal, cache_size,
                         full_refreeze_ratio)
        self.table = table
        self.tree = tree if tree is not None else build_qctree(table, self.aggregate)
        self._serve_frozen = serve_frozen
        self._frozen = None
        self._pending_delta = None
        # The long-lived cover index over the live table: built lazily
        # on the first write (or deep verify), patched per batch from
        # the maintenance delta afterwards, discarded whenever a failed
        # batch leaves it ahead of the rolled-back table.
        self._cover_index = None
        self._cover_index_rebuilt = 0
        self._cover_index_patched = 0
        self._cover_index_evictions = 0

    # -- queries -------------------------------------------------------------

    @property
    def serving_tree(self):
        """The representation queries run against right now.

        The frozen view while healthy (built on first use after any
        mutation); the mutable tree when ``serve_frozen=False`` or while
        degraded (fsck found corruption — no point compiling a corrupt
        tree into a faster one).
        """
        if not self._serve_frozen or self._degraded:
            return self.tree
        if self._frozen is None:
            self._frozen = self.tree.freeze()
            self.last_refreeze = dict(self._frozen.patch_stats)
        elif self._pending_delta is not None:
            # Incremental refreeze: splice the accumulated dirty set into
            # the stale frozen view instead of recompiling it — cost
            # proportional to the maintenance delta, not the tree size.
            self._frozen = self._frozen.patch(
                self._pending_delta,
                full_refreeze_ratio=self.full_refreeze_ratio,
            )
            self.last_refreeze = dict(self._frozen.patch_stats)
        self._pending_delta = None
        return self._frozen

    def snapshot_view(self) -> ServingSnapshot:
        """A fresh immutable snapshot of the current serving state.

        This is the publication point the concurrent server
        (:class:`~repro.serving.server.QCServer`) swaps into place after
        each mutation; the snapshot shares no mutable structure with the
        warehouse as long as the warehouse serves frozen.
        """
        return ServingSnapshot(
            self.serving_tree, self.table, self.aggregate,
            stamp=self.serving_stamp(), index_key=self._index_key,
        )

    def _mutated(self, delta=None) -> None:
        """Invalidate every read-path structure after a tree change.

        With a recorded :class:`~repro.core.maintenance.delta.
        MaintenanceDelta` the stale frozen view is *kept* and the delta
        accumulated, so the next :attr:`serving_tree` access patches it
        incrementally; without one (rebuild, recovery, degraded-mode
        flips) the view is dropped and recompiled from scratch.
        """
        if (delta is not None and self._frozen is not None
                and self._serve_frozen and not self._degraded):
            pending = self._pending_delta
            self._pending_delta = (
                delta if pending is None else pending.merge(delta)
            )
        else:
            self._frozen = None
            self._pending_delta = None
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
        self._mutated()

    def _scan_point(self, raw_cell):
        if len(raw_cell) != self.table.n_dims:
            raise QueryError(
                f"query cell {raw_cell!r} has {len(raw_cell)} positions, "
                f"table has {self.table.n_dims} dimensions"
            )
        try:
            cell = self.table.encode_cell(raw_cell)
        except SchemaError:
            return None
        return scan_point_query(self.table, self.aggregate, cell)

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
        """The persistent posting-list index over the live table.

        One :class:`~repro.cube.cover_index.CoverIndex` per live table:
        built from scratch at most once (counted under
        ``cover_index.rebuilt`` in :meth:`stats`), then patched in
        place by every maintenance batch — posting sets and surviving
        closure memos carry across batches instead of being re-derived
        per write.
        """
        if self._cover_index is None:
            from repro.cube.cover_index import CoverIndex

            self._cover_index = CoverIndex(self.table)
            self._cover_index_rebuilt += 1
        return self._cover_index

    def _apply(self, inserts, deletes) -> None:
        """The WAL-free batch body (also the recovery replay path)."""
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
        self._cover_index_patched += 1
        self._cover_index_evictions += result.stats["index_evictions"]
        self._record_batch(inserts, deletes, result)
        self._mutated(result.delta)

    def what_if(self, insertions=(), deletions=()) -> dict:
        """What-if analysis (§1): the class-level impact of a hypothetical
        update, without touching this warehouse.

        Applies the deletions then the insertions to *copies* of the tree
        and table and diffs the class structure.  Returns a dict with
        ``added``, ``removed``, and ``changed`` mappings from decoded
        upper bounds to aggregate values (``changed`` maps to
        ``(before, after)`` pairs).
        """
        from repro.cube.aggregates import values_close

        before = {
            self.table.decode_cell(ub): value
            for ub, value in self.tree.class_upper_bounds().items()
        }
        tree = self.tree.copy()
        table = self.table
        if deletions:
            table = apply_deletions(tree, table, deletions)
        if insertions:
            table = apply_insertions(tree, table, insertions)
        after = {
            table.decode_cell(ub): value
            for ub, value in tree.class_upper_bounds().items()
        }
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

        Both writes are atomic; with a WAL attached, both snapshots are
        stamped with the last log position they include (``wal_lsn``),
        which lets :meth:`recover` skip already-applied batches.  The
        table is written *before* the tree, so a crash between the two
        leaves a recognisable state: a table stamped ahead of the tree
        (recovery rebuilds the tree from it) rather than the reverse,
        which would be unrecoverable without a table at the tree's lsn.
        """
        lsn = self.wal.last_lsn if self.wal is not None else None
        if table_path is not None:
            comment = f"wal_lsn={lsn}" if lsn is not None else None
            self.table.to_csv(table_path, comment=comment)
        meta = {"wal_lsn": lsn} if lsn is not None else None
        # The label dictionaries ride along: the tree stores encoded
        # codes, and a CSV round-trip would otherwise re-mint them in
        # sorted order — silently mispairing tree and table whenever
        # maintenance appended labels out of sorted order.
        save_qctree(self.tree, tree_path, meta=meta,
                    labels=self.table._decoders)

    @classmethod
    def load(cls, tree_path, table_path, schema: Schema,
             index_key=None, freeze: bool = False) -> "QCWarehouse":
        """Restore a warehouse persisted by :meth:`save`.

        ``freeze=True`` compiles the frozen serving view eagerly at load
        time instead of on the first query — useful when the load is a
        deliberate warm-up (e.g. a serving replica coming online).
        """
        tree = load_qctree_from(tree_path)
        table = BaseTable.from_csv(table_path, schema)
        aggregate = tree.aggregate
        labels = getattr(tree, "snapshot_labels", None)
        if labels is not None:
            try:
                # Align the CSV table's codes with the codes the tree
                # was saved under (see :meth:`save`).
                table = table.with_label_dictionaries(labels)
            except SchemaError:
                # The pair is inconsistent (e.g. a table replaced after
                # the tree was written): the table is authoritative, so
                # rebuild the tree from it.
                tree = None
        wh = cls(table, aggregate=aggregate, tree=tree,
                 index_key=index_key)
        if freeze:
            wh._frozen = wh.tree.freeze()
        return wh

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

        Loads the last checkpoint (``tree_path`` + ``table_path``), then
        re-applies, in order, every committed WAL batch the snapshot's
        lsn stamp does not already include — so a crash *during* a
        checkpoint (snapshot written, log not yet truncated) never
        applies a batch twice.  A torn WAL tail (crash mid-append) is
        dropped — that batch never committed.  A batch that
        deterministically refuses to apply
        (:class:`MaintenanceError`, e.g. it already failed identically
        before the crash) is skipped and reported rather than wedging
        recovery.  The returned warehouse keeps logging to the same WAL;
        ``last_recovery`` records what was replayed.
        """
        wh = cls.load(tree_path, table_path, schema, index_key=index_key)
        tree_lsn = _stamped_lsn(getattr(wh.tree, "snapshot_meta", {}))
        table_lsn = _csv_stamped_lsn(table_path)
        rebuilt = False
        if table_lsn > tree_lsn:
            # Torn checkpoint: the table snapshot committed but the tree
            # snapshot (written after it) did not.  The table already
            # contains every batch up to its stamp, so rebuild the tree
            # from it rather than replaying into the stale one.
            wh.rebuild()
            tree_lsn = table_lsn
            rebuilt = True
        wal = WriteAheadLog(wal_path)
        replayed, skipped = 0, []
        for record in wal.records():
            if record.lsn <= tree_lsn:
                continue  # already folded into the snapshot
            inserts, deletes = wal_batch(record)
            try:
                # Replay runs the same batch body as the live path —
                # including the persistent cover index, built once from
                # the checkpoint table and patched per replayed batch —
                # so the recovered tree is node-for-node the live one.
                wh._apply(list(inserts), list(deletes))
                replayed += 1
            except MaintenanceError as exc:
                skipped.append((record.lsn, str(exc)))
        wh._mutated()
        wh.wal = wal
        wh.last_recovery = {
            "replayed": replayed,
            "skipped": skipped,
            "torn_tail": wal.tail_was_torn,
            "checkpoint_lsn": tree_lsn,
            "rebuilt": rebuilt,
        }
        return wh

    def verify(self, deep: bool = True, samples: Optional[int] = 64,
               seed: int = 0):
        """Run the QC-tree fsck; returns the :class:`FsckReport
        <repro.reliability.fsck.FsckReport>`.

        ``deep=True`` also re-derives sampled class aggregates from the
        base table.  A failing report flips the warehouse into degraded
        mode: :meth:`point` answers by base-table scan until a later
        :meth:`verify` passes (e.g. after the tree is rebuilt).
        """
        report = fsck_tree(
            self.tree,
            table=self.table if deep else None,
            samples=samples,
            seed=seed,
            # Reuse the persistent index (when one is live) instead of
            # re-deriving the posting lists for the aggregate pass.
            cover_index=self._cover_index if deep else None,
        )
        return self._adopt_fsck(report)

    def rebuild(self) -> None:
        """Rebuild the tree from the base table (recovers from degraded
        mode when the table itself is trustworthy)."""
        self.tree = build_qctree(self.table, self.aggregate)
        self._mutated()
        self._degraded = False
        self._fsck_report = None

    # -- reporting -------------------------------------------------------------------

    def stats(self) -> dict:
        """Summary counts for the warehouse and its tree.

        Includes the serving stamp (WAL LSN + mutation epoch + whether
        the frozen view is serving) and the query cache's hit/miss/
        eviction counters, so operators can see cache health and the
        serving version without poking private attributes.
        """
        tree_stats = self.tree.stats()
        frozen = self._serve_frozen and not self._degraded
        lsn, epoch = self.serving_stamp()
        tree_stats.update(
            n_rows=self.table.n_rows,
            n_dims=self.table.n_dims,
            aggregate=self.aggregate.name,
            degraded=self._degraded,
            serving="frozen" if frozen else "dict",
            serving_stamp={"lsn": lsn, "epoch": epoch, "frozen": frozen},
            maintain_batched=self._maintain_batched,
            maintain_sequential=self._maintain_sequential,
        )
        cover = {
            "patched": self._cover_index_patched,
            "rebuilt": self._cover_index_rebuilt,
            "evictions": self._cover_index_evictions,
        }
        if self._cover_index is not None:
            cover.update(self._cover_index.stats())
        tree_stats["cover_index"] = cover
        return self._common_stats(tree_stats)

    def __repr__(self):
        flags = ", degraded" if self._degraded else ""
        return (
            f"QCWarehouse(rows={self.table.n_rows}, "
            f"classes={self.tree.n_classes}, "
            f"aggregate={self.aggregate.name}{flags})"
        )
