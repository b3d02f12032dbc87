"""``QCWarehouse`` — the quotient cube-based data warehouse, in one object.

The paper recommends building a general-purpose warehouse on the cover
quotient cube; this façade wires the pieces together: the base table, the
QC-tree summary, the measure index for iceberg queries, incremental
maintenance, semantic exploration, and persistence.  Queries accept raw
dimension labels (``"S1"``, ``"*"``) and return decoded results.

Theorem 2 makes a QC-tree a derived index of its base table, so a store
is a list of :class:`~repro.core.piece.Piece` objects — base tables
over disjoint rows, each with its frozen tree — and
distributive/algebraic aggregate states merge across them.  Writes land
in the last piece, the *head*.  A batch small against the head is
maintained by the Algorithms 5–7 batched engine on the head's dict tree
(thawed at the first such batch); one whose rows reach
:attr:`QCWarehouse.REBUILD_RATIO` of the head's replaces the head with a
piece built from its post-batch table — the crossover of the paper's
Fig. 14, past which a rebuild is the cheaper write.  Once the head crosses
``seal_rows`` rows or ``SEAL_BATCHES`` batches it **seals**: O(1), the
piece gets a segment id, joins the sealed list (table, frozen view and
unread refreeze delta ride along; the dict tree goes once the view is
current) and a fresh empty head starts.
Queries scatter-gather across the pieces (:mod:`repro.serving.scatter`);
a background **compactor** unions adjacent sealed pieces, the *newer*
one's rows appended to the *older* one's so global arrival order — what
delete matching keys on — survives.  Deletes are matched the way the
engine matches them, earliest surviving row first.  A sealed piece is
never maintained: compaction and deletes rebuild it from the updated
table (:meth:`Piece.derive <repro.core.piece.Piece.derive>`); the piece
list is swapped only after the whole batch succeeded.

:class:`QCWarehouse`'s seal thresholds are infinite: its head never
seals, so it is always one piece and its write cost grows with the cube.
:class:`~repro.segments.SegmentedWarehouse` is the same class with
finite thresholds, bounding write cost by head size.  Both checkpoint
into one layout — the manifest directory of :mod:`repro.core.manifest`,
which holds each piece's table and no tree: recovery builds every tree
again from its table.  The store keeps each dimension's label type, so
the labels a checkpoint writes as text come back as the values they
were, and a write whose labels are of another type is refused before
it is logged.

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

import itertools
import math
import os
import threading
import time
from collections import Counter
from typing import Optional

from repro.core.iceberg import MeasureIndex
from repro.core.maintenance.delete import matching_rows
from repro.core.manifest import (
    find_orphans,
    load_manifest,
    manifest_label_types,
    save_manifest,
)
from repro.core.piece import SUFFIX, Piece
from repro.core.query_cache import (
    MISS,
    LsnQueryCache,
    constrained_iceberg_cache_key,
    iceberg_cache_key,
    normalize_range_spec,
)
from repro.cube.aggregates import _spec_to_json, aggregate_spec, make_aggregate
from repro.cube.schema import Schema
from repro.cube.table import (BaseTable, label_type, python_scalars,
                               refuse_non_finite)
from repro.errors import (
    MaintenanceError,
    QueryError,
    RecoveryError,
    SchemaError,
)
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


class QCWarehouse:
    """A queryable, maintainable OLAP warehouse over QC-tree pieces.

    Reads are served from frozen, array-backed views of the trees
    (:meth:`QCTree.freeze <repro.core.qctree.QCTree.freeze>`) brought
    current lazily after each mutation — incrementally patched from the
    recorded maintenance delta when the dirty set is small
    (:meth:`FrozenQCTree.patch <repro.core.frozen.FrozenQCTree.patch>`),
    recompiled otherwise — with answers memoized in a bounded LRU cache
    stamped by the serving version (WAL LSN + local mutation epoch): any
    insert, delete, seal, compaction, rebuild (also the one a failing
    :meth:`verify` makes) or recovery atomically invalidates every
    cached answer.  Pass ``cache_size=0`` to disable
    the cache.  See the module docstring for the pieces and sealing.
    """

    #: The seal thresholds: the head seals at ``seal_rows`` rows or
    #: ``SEAL_BATCHES`` batches.  Both are infinite here, so this head
    #: never seals; :class:`~repro.segments.SegmentedWarehouse` sets
    #: finite ones.
    seal_rows = math.inf
    SEAL_BATCHES = math.inf
    #: Sealed pieces the compactor leaves alone.
    compact_min_segments = 0
    #: Seconds between background compactor ticks.
    COMPACT_INTERVAL = 0.05
    #: ρ, the head's crossover (the paper's Fig. 14): a head batch whose
    #: inserts plus head deletes reach this share of the head's
    #: post-batch rows rebuilds the head from its table; a smaller one
    #: is maintained.  Measured on the benchmark's table (``sum(M0)``,
    #: 6 dimensions; EXPERIMENTS.md, deviation 2): maintained and
    #: refrozen, a 32-row batch costs 60–86 ms at every head size and a
    #: 1-row batch 2.7–4.5 ms, while a rebuild grows with the head, so
    #: they cross near 4–5k rows (0.7 %) and near 64–100 rows (1–1.5 %).
    REBUILD_RATIO = 0.01

    def __init__(self, table: BaseTable, aggregate="count",
                 cache_size: int = 1024):
        self.aggregate = make_aggregate(aggregate)
        self.wal: Optional[WriteAheadLog] = None
        self._cache = LsnQueryCache(cache_size) if cache_size else None
        # One re-entrant lock covers piece-list swaps and head mutation;
        # heavy work (compaction merges, frozen-view compiles) happens
        # outside it, so readers and writers only wait on pointer swaps.
        self._lock = threading.RLock()
        #: Each dimension's label type (:func:`~repro.cube.table.label_type`;
        #: None until a dimension holds labels of one type).  A dimension
        #: whose labels mix types raises :class:`SchemaError` here.
        self.label_types = table.label_types()
        #: The head: the one piece writes land in.
        self._live = Piece.build(table, self.aggregate)
        #: Sealed pieces, oldest first; swapped (never edited) under the
        #: lock.
        self._segments: list = []
        self._ids = itertools.count(1)
        #: Bumped on every change of the piece *set* (seal, compaction,
        #: delete rewrite, rebuild, recovery) and stamped on snapshots;
        #: each bump comes with an epoch bump, so the serving stamp
        #: alone invalidates the query cache.
        self._generation = 0
        self._epoch = 0
        self._view = None
        self._head_batches = 0
        self._seals = self._compactions = self._segment_rewrites = 0
        self._maintain_batched = self._maintain_sequential = 0
        self._checkpoint_seq = 0
        self.last_recovery: Optional[dict] = None
        #: ``patch_stats`` of the most recent refreeze of the head.
        self.last_refreeze: Optional[dict] = None
        #: Stats of the most recent batch: tuple counts and ``path`` —
        #: ``maintained`` with the ``partition_s`` / ``merge_s`` /
        #: ``index_s`` sub-phase seconds and the delta, or ``rebuilt``
        #: with the ``build_s`` of the new head.
        self.last_maintenance: Optional[dict] = None
        self.last_seal: Optional[dict] = None
        self.last_compaction: Optional[dict] = None
        self.last_compaction_error: Optional[str] = None
        self._phase_observer = None
        self._compactor = self._compactor_stop = None
        # A bootstrap table bigger than the threshold seals at once: the
        # head stays small from the first write on.
        self._maybe_seal()

    @classmethod
    def from_records(cls, records, schema: Schema, aggregate="count",
                     **options):
        """Build a warehouse from raw records."""
        return cls(BaseTable.from_records(records, schema), aggregate,
                   **options)

    # -- serving state -------------------------------------------------------

    def serving_stamp(self) -> tuple:
        """The logical version cached answers are valid at.

        ``(WAL LSN, mutation epoch)``: the LSN covers logged maintenance,
        the epoch covers un-logged changes — WAL-less warehouses,
        :meth:`rebuild`, a repairing :meth:`verify`, seals and
        compactions.
        """
        lsn = self.wal.last_lsn if self.wal is not None else 0
        return (lsn, self._epoch)

    def pieces(self) -> list:
        """Every piece: the sealed ones, oldest first, then the head."""
        with self._lock:
            return self._segments + [self._live]

    @property
    def tree(self):
        """The head's mutable dict tree, thawed on first use
        (:attr:`Piece.tree <repro.core.piece.Piece.tree>`); reads and
        :meth:`stats` use :attr:`serving_tree` instead."""
        return self._live.tree

    @property
    def table(self) -> BaseTable:
        """The head's base table (the whole store's, while one piece)."""
        return self._live.table

    @property
    def n_rows(self) -> int:
        return sum(piece.n_rows for piece in self.pieces())

    @property
    def serving_tree(self):
        """The head's frozen view, the tree queries run against, brought
        current lazily: compiled on first use, patched from the merged
        maintenance deltas afterwards (:meth:`Piece.frozen_view
        <repro.core.piece.Piece.frozen_view>`)."""
        frozen = self._live.frozen_view()
        self.last_refreeze = dict(frozen.patch_stats)
        return frozen

    def snapshot_view(self) -> ServingSnapshot:
        """A fresh immutable snapshot of the current serving state: one
        view per sealed piece (oldest first, each finalizing its frozen
        view here if no one has yet) plus the head's
        :attr:`serving_tree`, last.

        This is the publication point the concurrent server
        (:class:`~repro.serving.server.QCServer`) swaps into place after
        each mutation; the snapshot shares no mutable structure with the
        warehouse.
        """
        with self._lock:
            views = [PieceView(piece.frozen_view(), piece.table)
                     for piece in self._segments]
            views.append(PieceView(self.serving_tree, self.table))
            return ServingSnapshot(
                views, self.aggregate, stamp=self.serving_stamp(),
                generation=self._generation,
            )

    @property
    def view(self):
        """The snapshot queries delegate to right now — rebuilt lazily
        after each mutation, so every query family and the exploration
        API run on the frozen trees.  Built and installed under the
        store lock, which every mutation holds while it drops the view:
        a view built before a write can never be installed after it."""
        view = self._view
        if view is None:
            with self._lock:
                view = self._view
                if view is None:
                    view = self._view = self.snapshot_view()
        return view

    @property
    def serving(self) -> str:
        """How reads are served: ``segmented`` for a store that seals,
        else ``frozen``."""
        return "frozen" if self.segment_health() is None else "segmented"

    def _mutated(self) -> None:
        """Invalidate every warehouse-level read structure after a change
        to any piece: the cached view is dropped and the epoch bump
        invalidates every cached answer.  (The pieces look after their
        own frozen views.)"""
        self._view = None
        self._epoch += 1

    def _pieces_swapped(self) -> None:
        self._generation += 1
        self._mutated()

    def invalidate_serving_view(self) -> None:
        """Drop every derived serving structure and start clean.

        The head is rebuilt (:meth:`Piece.rebuild
        <repro.core.piece.Piece.rebuild>`): the next :attr:`serving_tree`
        access builds its frozen view from the table instead of
        patching; the epoch bump invalidates every cached answer.  This
        is the serving layer's recovery fallback: when a refreeze or a
        snapshot publication fails partway, the accumulated patch state
        is suspect — building from the table is always safe.
        """
        with self._lock:
            self._live.rebuild()
            self._mutated()

    def verify(self, deep: bool = True) -> FsckReport:
        """Fsck every piece, rebuild each one that fails from its table,
        and return the merged :class:`FsckReport
        <repro.reliability.fsck.FsckReport>` of what was found.

        ``deep=True`` also rebuilds each piece's tree from its table and
        compares it with what the piece holds, byte for byte
        (:meth:`Piece.fsck <repro.core.piece.Piece.fsck>`).  Theorem 2
        makes a tree a derived index of its table, so the repair is a
        rebuild, as in :meth:`rebuild`: the
        cached view and every cached answer drop with it, and every
        later read comes from a frozen view of the fresh tree.  The
        report still says what was wrong (``ok`` is False); a second
        :meth:`verify` reports the repaired store.
        """
        with self._lock:
            pieces = self.pieces()
            report = FsckReport()
            for piece in pieces:
                sub = piece.fsck(deep=deep)
                # A one-piece store has nothing to tell apart.
                prefix = f"{piece.name}: " if len(pieces) > 1 else ""
                for issue in sub.issues:
                    report.add(issue.code, prefix + issue.message,
                               issue.node)
                for what, count in sub.checked.items():
                    report.checked[what] = (report.checked.get(what, 0)
                                            + count)
                if not sub.ok:
                    piece.rebuild()
            if not report.ok:
                self._pieces_swapped()
            return report

    def rebuild(self) -> None:
        """Rebuild every piece's tree from its table."""
        with self._lock:
            for piece in self.pieces():
                piece.rebuild()
            self._pieces_swapped()

    # -- queries -------------------------------------------------------------

    def _cached(self, key, compute, copy=None):
        """Serve ``compute(view)`` through the stamped query cache, at the
        stamp of the view that computes it.

        ``key`` of None (query not normalizable) bypasses the cache, as
        does a disabled cache.  ``copy`` (e.g. ``dict``
        / ``list``) guards mutable cached results: both the hit and the
        fill path return a private copy, so a caller mutating its answer
        can never poison the cache.
        """
        view = self._view or self.view
        cache = self._cache
        if cache is None or key is None:
            return compute(view)
        stamp = view.stamp
        value = cache.lookup(key, stamp)
        if value is MISS:
            value = compute(view)
            cache.store(key, stamp, value)
        return value if copy is None else copy(value)

    def point(self, raw_cell):
        """Point query with raw labels (``"*"`` / None / ALL for any).

        Served from the query cache when a fresh answer for the cell is
        present, else from the :attr:`view`.  The miss path is the view,
        one cache probe and one store, at the stamp of the view that
        answers (:meth:`_cached`, inlined: every read takes it); a cell
        that cannot be a cache key is answered by the view alone.
        """
        view = self._view or self.view
        cache = self._cache
        if cache is None:
            return view.point(raw_cell)
        stamp = view.stamp
        try:
            key = ("point", tuple(raw_cell))
            value = cache.lookup(key, stamp)
        except TypeError:  # not a sequence of hashable labels
            return view.point(raw_cell)
        if value is MISS:
            value = view.point(raw_cell)
            cache.store(key, stamp, value)
        return value

    def range(self, raw_spec) -> dict:
        """Range query with raw labels; returns ``{decoded cell: value}``.

        Cached under a normalized spec key — equivalent scalar/list/set/
        ``range`` spellings of the same query share one entry — at the
        current serving stamp, so any mutation invalidates it.  The
        normalized spec is also what the view walks, so a miss sorts
        the spec once.  A spec that cannot be a key, or of the wrong
        arity (refused in the caller's own spelling), goes to the view
        alone.
        """
        spec = None if self._cache is None else normalize_range_spec(raw_spec)
        if spec is None or len(spec) != self.table.n_dims:
            return self.view.range(raw_spec)
        return self._cached(("range", spec), lambda view: view.range(spec),
                            copy=dict)

    def iceberg(self, threshold, op: str = ">=") -> list:
        """Pure iceberg query: classes whose aggregate clears the threshold.

        Returns ``[(decoded upper bound, value), ...]``; cached at the
        current serving stamp like :meth:`range`.
        """
        return self._cached(
            iceberg_cache_key(threshold, op),
            lambda view: view.iceberg(threshold, op=op),
            copy=list,
        )

    def iceberg_in_range(self, raw_spec, threshold, op: str = ">=") -> dict:
        """Constrained iceberg query: the range answer kept where the
        aggregate's rank satisfies the threshold; returns ``{decoded
        cell: value}``, cached at the current serving stamp."""
        return self._cached(
            constrained_iceberg_cache_key(raw_spec, threshold, op),
            lambda view: view.iceberg_in_range(raw_spec, threshold, op=op),
            copy=dict,
        )

    @property
    def index(self) -> MeasureIndex:
        """The measure index, owned by the serving :attr:`view` — the
        node ids it stores must belong to the representation queries
        traverse (the mark plan intersects them with walk
        positions)."""
        return self.view.index

    # -- exploration ---------------------------------------------------------

    # All exploration runs through the serving view (the frozen trees):
    # the shared traversal protocol makes every
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

    @property
    def cover_index(self):
        """The head's persistent posting-list index
        (:attr:`Piece.cover_index <repro.core.piece.Piece.cover_index>`;
        its counters are ``cover_index`` in :meth:`stats`)."""
        return self._live.cover_index

    def maintain(self, inserts=(), deletes=()) -> None:
        """Apply one mixed maintenance batch through the batched engine.

        Every mutating entry point (:meth:`insert`, :meth:`delete`,
        :meth:`modify`) funnels here: deletes are applied before inserts
        (§3.3 modification order), the whole batch runs as a single
        transaction recording one merged delta, and consequently
        produces one refreeze patch and one serving-version bump.

        With a write-ahead log attached (:meth:`attach_wal`), the batch
        is durably logged *before* anything mutates (see
        :func:`wal_batch` for the record shapes), so a crash at any
        later point is recoverable via :meth:`recover`.  An empty batch
        is a true no-op: nothing is logged, the serving version does not
        move, and cached answers stay valid.  A NumPy scalar label or
        measure is taken as its Python scalar before anything is checked
        or logged, so a write reads the same with and without a log.  A
        label of another type and a non-finite measure raise
        :class:`SchemaError` before the log append.
        """
        inserts = [python_scalars(r) for r in inserts]
        deletes = [python_scalars(r) for r in deletes]
        if not inserts and not deletes:
            return
        types = self._checked_label_types(deletes + inserts)
        refuse_non_finite(inserts, self.table.schema)
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
        self.label_types = types

    def _checked_label_types(self, records) -> tuple:
        """The store's label types once ``records`` are written: a
        dimension without a type takes its first label's.  Raises
        :class:`SchemaError` for a label a checkpoint cannot spell back:
        one of no type a checkpoint records (bytes, a tuple, None), or of
        another type than its dimension's — written, it would come back
        from a checkpoint as another value."""
        types = list(self.label_types)
        schema = self.table.schema
        width = schema.n_dims + schema.n_measures
        for record in records:
            if len(record) != width:
                continue  # maintenance refuses it as malformed
            for j, label in enumerate(record[:schema.n_dims]):
                kind = label_type(label)
                if kind is None:
                    raise SchemaError(
                        f"label {label!r} of record {record!r} is not a "
                        f"str, int, float or bool: a checkpoint cannot "
                        f"spell it back"
                    )
                if types[j] is None:
                    types[j] = kind
                elif kind != types[j]:
                    raise SchemaError(
                        f"label {label!r} of record {record!r} is not of "
                        f"type {types[j]}, the label type of dimension "
                        f"{schema.dimension_names[j]!r}"
                    )
        return tuple(types)

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

    def _apply(self, inserts, deletes) -> None:
        """The WAL-free batch body (also the recovery replay path).

        Inserts go to the head.  With no sealed piece, deletes do too —
        :func:`~repro.core.maintenance.batch.batch_tables` validates
        them; otherwise each is routed to the piece owning its match
        (:meth:`_route_deletes`) and each sealed piece hit is rebuilt
        without them.

        The head's share of the batch is rebuilt when it reaches
        :attr:`REBUILD_RATIO` of the head's post-batch rows
        (:meth:`Piece.derive <repro.core.piece.Piece.derive>`), and
        maintained by Algorithms 5–7 otherwise (:meth:`Piece.apply
        <repro.core.piece.Piece.apply>`); both derive the same table.
        ``last_maintenance["path"]`` says which ran.  If the head batch
        fails, the head is untouched (rolled back, or never replaced)
        and the piece list was never swapped: the batch is a no-op.
        """
        with self._lock:
            plan = (self._route_deletes(deletes)
                    if self._segments and deletes else {})
            head_deletes = plan.pop(len(self._segments), deletes)
            if plan:
                segments = list(self._segments)
                for idx, records in sorted(plan.items()):
                    segments[idx] = segments[idx].derive(
                        deletes=records, segment_id=next(self._ids))
            head = self._live
            share = len(inserts) + len(head_deletes)
            if share >= self.REBUILD_RATIO * (
                    head.n_rows + len(inserts) - len(head_deletes)):
                t0 = time.perf_counter()
                self._live = head.derive(inserts, head_deletes)
                stats = {"inserted": len(inserts),
                         "deleted": len(head_deletes),
                         "build_s": time.perf_counter() - t0,
                         "path": "rebuilt"}
            else:
                result = head.apply(inserts, head_deletes)
                stats = dict(result.stats, delta=result.delta.summary(),
                             path="maintained")
            if plan:
                # A fully emptied piece leaves the set entirely.
                self._segments = [s for s in segments if s.n_rows]
                self._segment_rewrites += len(plan)
                self._generation += 1
            if len(inserts) + len(deletes) > 1:
                self._maintain_batched += 1
            else:
                self._maintain_sequential += 1
            self.last_maintenance = dict(stats, segment_rewrites=len(plan))
            self._head_batches += 1
            self._mutated()
            self._maybe_seal()

    def _route_deletes(self, deletes) -> dict:
        """Assign each delete record to the piece owning its match:
        ``{index into pieces(): [records]}``, the head's entry being
        ``[]`` when none of them are its.

        Validates the *whole* batch before anything mutates, exactly
        like :func:`~repro.core.maintenance.delete.resolve_deletions`:
        matching is by dimension labels only, earliest surviving row
        first — oldest piece first, then the head.  Each piece in turn
        takes what it can of the records the earlier ones left, counted
        by one vectorised match over its code matrix
        (:func:`~repro.core.maintenance.delete.matching_rows`).  Raises
        :class:`MaintenanceError` listing every unmatched record.
        """
        pieces = self.pieces()
        n_dims = self.table.n_dims
        plan: dict = {len(pieces) - 1: []}
        left = list(deletes)
        for idx, piece in enumerate(pieces):
            cells = []
            for record in left:
                try:
                    cells.append(piece.table.encode_cell(record[:n_dims]))
                except (SchemaError, QueryError):
                    cells.append(None)
            counts = Counter(row for _, row in matching_rows(
                piece.table, [cell for cell in cells if cell is not None]))
            unmatched = []
            for record, cell in zip(left, cells):
                if counts[cell] > 0:
                    counts[cell] -= 1
                    plan.setdefault(idx, []).append(record)
                else:
                    unmatched.append(record)
            left = unmatched
            if not left:
                return plan
        raise MaintenanceError(
            f"cannot delete: no matching rows left for {left!r}"
        )

    # -- sealing and compaction -------------------------------------------------

    def _maybe_seal(self) -> None:
        if (self._live.n_rows >= self.seal_rows
                or self._head_batches >= self.SEAL_BATCHES):
            self._seal_locked()

    def seal(self):
        """Seal the head into an immutable piece now; returns it, or
        None when the head is empty or this store never seals."""
        if self.segment_health() is None:
            return None
        with self._lock:
            return self._seal_locked()

    def _seal_locked(self):
        sealed = self._live
        if sealed.n_rows == 0:
            return None
        t0 = time.perf_counter()
        # O(1): the head is handed over wholesale — its frozen view is
        # finalized lazily by Piece.frozen_view(), off the write path
        # (typically by the compactor thread or the first read).
        sealed.seal(next(self._ids))
        self._segments.append(sealed)
        self._live = Piece.build(
            BaseTable.from_records([], sealed.table.schema), self.aggregate)
        self._head_batches = 0
        self._seals += 1
        seconds = time.perf_counter() - t0
        self.last_seal = {
            "segment_id": sealed.segment_id,
            "rows": sealed.n_rows,
            "seconds": seconds,
        }
        self._pieces_swapped()
        self._observe("seal", seconds)
        return sealed

    @property
    def compaction_backlog(self) -> int:
        """Sealed pieces beyond the configured floor — how many
        compactions the background thread still owes."""
        return max(0, len(self._segments) - self.compact_min_segments)

    def compact_once(self) -> bool:
        """Union one adjacent sealed pair; True when a pair was merged.

        The merge — one build over both tables' rows — runs outside the
        warehouse lock against immutable tables; the result is only
        installed if both originals still sit adjacent in the list (a
        concurrent delete rewrite abandons it; the next tick retries).
        """
        with self._lock:
            if not self.compaction_backlog:
                return False
            # Cheapest adjacent pair first: keeps piece sizes balanced
            # and the merge cost minimal.
            best = min(
                range(len(self._segments) - 1),
                key=lambda i: (self._segments[i].n_rows
                               + self._segments[i + 1].n_rows),
            )
            base, newer = self._segments[best], self._segments[best + 1]
        t0 = time.perf_counter()
        # The OLDER piece is always the merge base, so the newer piece's
        # rows are appended after it, in their order, and global arrival
        # order survives.
        table, _ = base.table.extended(newer.table.iter_records())
        merged = Piece.build(table, self.aggregate, next(self._ids))
        seconds = time.perf_counter() - t0
        with self._lock:
            try:
                at = self._segments.index(base)
            except ValueError:
                return False
            if (at + 1 >= len(self._segments)
                    or self._segments[at + 1] is not newer):
                return False
            self._segments[at:at + 2] = [merged]
            self._compactions += 1
            self.last_compaction = {
                "merged": (base.segment_id, newer.segment_id),
                "segment_id": merged.segment_id,
                "rows": merged.n_rows,
                "seconds": seconds,
            }
            self._pieces_swapped()
        self._observe("compact", seconds)
        return True

    def compact_now(self) -> int:
        """Drain the compaction backlog synchronously; returns the
        number of merges performed."""
        done = 0
        while self.compact_once():
            done += 1
        return done

    def start_compactor(self) -> None:
        """Start the background compactor thread (idempotent).

        Each tick it finalizes any sealed frozen views still pending
        from a seal, then performs at most one compaction.  The thread
        is non-daemon; call :meth:`close` to join it.
        """
        with self._lock:
            if self._compactor is not None:
                return
            self._compactor_stop = threading.Event()
            self._compactor = threading.Thread(
                target=self._compactor_loop, name="qcseg-compactor"
            )
        self._compactor.start()

    def _compactor_loop(self) -> None:
        stop = self._compactor_stop
        while not stop.wait(self.COMPACT_INTERVAL):
            try:
                with self._lock:
                    segments = list(self._segments)
                for segment in segments:
                    if stop.is_set():
                        return
                    segment.frozen_view()
                self.compact_once()
            except Exception as exc:
                # Compaction is an optimization: a failed merge must
                # never take the warehouse down.
                self.last_compaction_error = repr(exc)

    def close(self) -> None:
        """Stop background work (joins the compactor thread); the
        warehouse stays queryable."""
        with self._lock:
            thread, self._compactor = self._compactor, None
        if thread is not None:
            self._compactor_stop.set()
            thread.join()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    def set_phase_observer(self, observer) -> None:
        """Register ``observer(phase_name, seconds)`` for background
        phases the serving layer cannot time itself (``seal``,
        ``compact``); :class:`~repro.serving.server.QCServer` wires this
        into its ``write_phase:*`` histograms."""
        self._phase_observer = observer

    def _observe(self, name: str, seconds: float) -> None:
        observer = self._phase_observer
        if observer is not None:
            try:
                observer(name, seconds)
            except Exception:
                pass

    # -- persistence -----------------------------------------------------------

    def attach_wal(self, wal_path) -> WriteAheadLog:
        """Start write-ahead logging maintenance batches to ``wal_path``.

        Returns the log; subsequent :meth:`maintain` calls append to it
        before mutating.  :meth:`checkpoint` folds the logged batches
        into a snapshot and truncates the log.
        """
        self.wal = WriteAheadLog(wal_path)
        return self.wal

    def save(self, tree_path, table_path) -> None:
        """Export the head's table as a piece file (:meth:`Piece.save
        <repro.core.piece.Piece.save>`, the file :meth:`checkpoint`
        writes) — the whole store while it is one piece.  ``tree_path``
        is not written: a tree is rebuilt from its table, so
        :meth:`checkpoint` stores none either.

        Nothing reads the file back on its own: :meth:`checkpoint` is
        the durable layout, :meth:`recover` its reader.
        """
        self._live.save(table_path)

    def checkpoint(self, directory) -> None:
        """Snapshot every piece's table into ``directory``, then truncate
        the WAL.

        Each piece is its table's piece file — label dictionaries, code
        matrix and measures — written by :meth:`Piece.save
        <repro.core.piece.Piece.save>`: sealed ones as
        ``segment-XXXXXXXX.piece``, skipped when this warehouse already
        wrote (or recovered) that very file, the head as a fresh
        sequence-numbered ``head-XXXXXXXX.piece`` each time.  A CSV table
        an earlier layout left is not referenced any more, so it goes
        with the orphans.  The manifest
        (:mod:`repro.core.manifest`) records each file's row count and
        CRC32 and the store's label types; it is written last and
        atomically, and only after it is durable are files it does not
        reference garbage-collected.  A crash at any point leaves either
        the old or the new manifest with all of its files intact; WAL
        sequence numbers are monotonic across truncations, so
        :meth:`recover` replays exactly the batches the surviving
        manifest is missing.
        """
        with self._lock:
            os.makedirs(directory, exist_ok=True)
            lsn = self.wal.last_lsn if self.wal is not None else 0
            self._checkpoint_seq += 1
            seq = self._checkpoint_seq

            def write(piece, name, **entry) -> dict:
                crc = piece.save(os.path.join(directory, name))
                return dict(entry, rows=piece.n_rows, table=name, crc32=crc)

            entries = [
                write(piece, f"segment-{piece.segment_id:08d}{SUFFIX}",
                      id=piece.segment_id)
                for piece in self._segments
            ]
            head = write(self._live, f"head-{seq:08d}{SUFFIX}", seq=seq)
            top = max((s.segment_id for s in self._segments), default=0)
            save_manifest(
                directory,
                lsn=lsn,
                generation=self._generation,
                aggregate_spec=_spec_to_json(aggregate_spec(self.aggregate)),
                schema=self.table.schema,
                label_types=self.label_types,
                segments=entries,
                head=head,
                next_segment_id=top + 1,
            )
            payload = {"segments": entries, "head": head}
            for orphan in find_orphans(directory, payload):
                try:
                    os.remove(os.path.join(directory, orphan))
                except OSError:
                    pass
            if self.wal is not None:
                self.wal.truncate()

    @classmethod
    def recover(cls, directory, wal_path, schema: Schema,
                **options) -> "QCWarehouse":
        """Rebuild a warehouse after a crash: manifest + WAL replay.

        Loads the manifest (the single atomic commit point) and restores
        every piece it names through :meth:`Piece.load
        <repro.core.piece.Piece.load>`: the table is checked against the
        manifest's CRC32 and row count, read under the manifest's label
        types, and its tree built with the manifest's aggregate.  A
        table that fails its check raises :class:`RecoveryError` naming
        the file.  A store that never seals refuses a manifest holding
        sealed pieces.  Then every
        committed WAL batch past the manifest's LSN is re-applied in
        order through the live batch body (:meth:`_apply`, minus the WAL
        append), so replay reproduces seals and delete routing exactly,
        and a head left over the seal threshold then seals the way a
        fresh store's bootstrap table does:

        * a batch the manifest already includes is skipped, so a crash
          *during* a checkpoint (manifest durable, log not yet
          truncated) never applies a batch twice;
        * a torn WAL tail (crash mid-append) is dropped — that batch
          never committed;
        * a batch that deterministically refuses to apply
          (:class:`MaintenanceError`, e.g. it already failed identically
          before the crash) is skipped and reported, not wedging
          recovery.

        The returned warehouse keeps logging to the same WAL;
        ``last_recovery`` records what happened: ``replayed``,
        ``skipped``, ``torn_tail``, ``checkpoint_lsn``, and the
        ``orphans`` an interrupted checkpoint left (ignored).
        """
        payload = load_manifest(directory)
        wh = cls(BaseTable.from_records([], schema),
                 make_aggregate(payload["aggregate"]), **options)
        if payload["segments"] and wh.segment_health() is None:
            raise RecoveryError(
                f"{directory} holds {len(payload['segments'])} sealed "
                f"segments; a {cls.__name__} is one piece — recover it "
                f"as a SegmentedWarehouse"
            )

        types = manifest_label_types(payload, schema)

        def load(entry, segment_id=None) -> Piece:
            piece = Piece.load(
                os.path.join(directory, entry["table"]), schema,
                wh.aggregate, label_types=types, crc32=entry.get("crc32"),
                rows=entry.get("rows"),
            )
            if segment_id is not None:
                piece.seal(segment_id)
            return piece

        for entry in payload["segments"]:
            wh._segments.append(load(entry, int(entry["id"])))
        # Freshly minted ids never collide with persisted ones.
        wh._ids = itertools.count(max(
            [int(payload.get("next_segment_id", 1))]
            + [s.segment_id + 1 for s in wh._segments]
        ))
        wh._live = load(payload["head"])
        wh._generation = int(payload.get("generation", 0))
        wh._checkpoint_seq = int(payload["head"].get("seq", 0))
        lsn = int(payload["lsn"])
        wal = WriteAheadLog(wal_path)
        replayed, skipped = 0, []
        for record in wal.records():
            if record.lsn <= lsn:
                continue  # already folded into the checkpoint
            inserts, deletes = wal_batch(record)
            try:
                wh._apply(list(inserts), list(deletes))
                replayed += 1
            except MaintenanceError as exc:
                skipped.append((record.lsn, str(exc)))
        # A dimension the checkpoint held no label of takes the type of
        # what the log replayed into it.
        replayed_types = [p.table.label_types() for p in wh.pieces()]
        wh.label_types = tuple(
            known or next((t[j] for t in replayed_types if t[j]), None)
            for j, known in enumerate(types)
        )
        wh._maybe_seal()
        wh._mutated()
        wh.wal = wal
        wh.last_recovery = dict(
            orphans=find_orphans(directory, payload),
            segments=len(payload["segments"]),
            replayed=replayed,
            skipped=skipped,
            torn_tail=wal.tail_was_torn,
            checkpoint_lsn=lsn,
        )
        return wh

    # -- reporting -------------------------------------------------------------

    def segment_health(self) -> Optional[dict]:
        """The cheap piece-lifecycle readout the serving layer folds into
        its ``health`` op and ``stats()``; None for a store that never
        seals."""
        if self.seal_rows == self.SEAL_BATCHES == math.inf:
            return None
        with self._lock:
            return {
                "segments_live": len(self._segments),
                "head_rows": self.table.n_rows,
                "seals": self._seals,
                "compactions": self._compactions,
                "compaction_backlog": self.compaction_backlog,
                "compactor_running": self._compactor is not None,
                "generation": self._generation,
            }

    def stats(self) -> dict:
        """Operational counters (see the README metrics glossary): the
        head tree's sizes and cover index for a store that never seals,
        the piece lifecycle for one that does, and for both the serving
        stamp, the query cache's hit/miss/eviction counters and the last
        refreeze, batch, seal and compaction."""
        with self._lock:
            lsn, epoch = self.serving_stamp()
            stamp = dict(lsn=lsn, epoch=epoch)
            health = self.segment_health()
            if health is None:
                out = self._live.frozen_view().stats()
                out["cover_index"] = self._live.cover_stats()
            else:
                out = dict(
                    health,
                    segment_rows=[s.n_rows for s in self._segments],
                    head_batches=self._head_batches,
                    head_classes=self._live.frozen_view().n_classes,
                    segment_rewrites=self._segment_rewrites,
                )
                stamp["generation"] = self._generation
            out.update(
                n_rows=self.n_rows,
                n_dims=self.table.n_dims,
                aggregate=self.aggregate.name,
                serving=self.serving,
                serving_stamp=stamp,
                maintain_batched=self._maintain_batched,
                maintain_sequential=self._maintain_sequential,
            )
        if self._cache is not None:
            out["query_cache"] = self._cache.stats()
        for key, value in (("refreeze", self.last_refreeze),
                           ("maintenance", self.last_maintenance),
                           ("last_seal", self.last_seal),
                           ("last_compaction", self.last_compaction)):
            if value is not None:
                out[key] = dict(value)
        if self.last_compaction_error is not None:
            out["last_compaction_error"] = self.last_compaction_error
        return out

    def __repr__(self):
        with self._lock:
            return (
                f"{type(self).__name__}(segments={len(self._segments)}, "
                f"head_rows={self.table.n_rows}, rows={self.n_rows}, "
                f"aggregate={self.aggregate.name})"
            )

