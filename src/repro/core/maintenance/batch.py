"""The one maintenance entry point: Algorithms 5–7 on a batch.

Once refreeze became an incremental patch, dict-tree maintenance itself
was ~95% of write latency (today: the ``maintenance.*`` per-layer lines
of ``benchmarks/e2e``).  The
per-write cost is dominated by work that is *identical across tuples*:
the Δ-partition DFS, closure jumps and cover-index probes over the old
tree.  Driving N tuples through N single-tuple maintenance calls
re-derives all of it N times.

:func:`maintain_batch` is the single entry point — every insertion and
deletion in the program, a batch of one included, is a call of it — and
it amortizes that work once per batch instead:

* the insert delta is **sorted in dimension order** so the cover-
  partition DFS (:func:`~repro.core.classes.class_states`, the
  level-at-a-time partitioner Algorithm 1 construction uses) visits
  each shared prefix once and computes the Δ class partition in a
  single pass over the whole batch;
* classification against the old tree shares one memoized closure /
  locate cache across every tuple of the batch, what the batch asks of
  the tree's shape goes through one walk restricted to its rows
  (:meth:`QCTree.walk_generalizing
  <repro.core.qctree.QCTree.walk_generalizing>`), and every cover
  question goes to ONE cover index — the caller's long-lived one,
  patched in place with the batch delta, or one built here for a caller
  that holds none — never an index re-derived per phase or per tuple;
* deletes and inserts are applied as *one* logical batch (deletes
  first, then inserts — the paper's §3.3 "modification = deletion +
  insertion" ordering), under one transactional guard, recording one
  :class:`~repro.core.maintenance.delta.MaintenanceDelta` — so a batch
  of any mix produces exactly one refreeze patch and one snapshot
  publication downstream.

The correctness contract is Theorem 2's, extended to mixed batches and
checked by the test suite's reference model
(``tests/test_stateful.py``): the tree after
``maintain_batch`` is node-for-node identical to a from-scratch rebuild
of the final base table — and so to the sequential single-tuple
maintenance of the same stream, which is held to the rebuild too.
"""

from __future__ import annotations

import time

from repro.core.maintenance.delete import batch_delete, resolve_deletions
from repro.core.maintenance.insert import batch_insert
from repro.cube.cover_index import CoverIndex
from repro.cube.table import BaseTable
from repro.errors import MaintenanceError, SchemaError
from repro.reliability.transactional import transactional


def _label_key(value):
    """Total order over mixed-type labels (mirrors the table encoder)."""
    return (value.__class__.__name__, value)


def _dimension_order_key(n_dims):
    """Sort key placing records with shared dimension prefixes adjacent.

    Sorting the raw batch before encoding does not change the resulting
    tree (Theorem 1: the tree is unique under row permutation) but gives
    the Δ-partition DFS its best case — equal prefixes collapse into
    single recursion branches instead of being rediscovered per tuple.
    The key is the dimension labels only: Python's sort is stable, so
    duplicate dimension tuples keep their arrival order whatever their
    measures — the order earliest-match delete depends on.
    """
    def key(record):
        return tuple(_label_key(v) for v in record[:n_dims])

    return key


def batch_tables(table: BaseTable, inserts, deletes) -> tuple:
    """The table half of a batch: ``(mid_table, delta_rows, new_table,
    delta_table)``.

    ``deletes`` are matched against ``table`` first
    (:func:`~repro.core.maintenance.delete.resolve_deletions`, which
    validates all of them before anything is derived): ``mid_table`` is
    the reduced table, ``delta_rows`` the removed rows (None without
    deletes).  ``inserts`` are then sorted by
    :func:`_dimension_order_key` and appended to ``mid_table``:
    ``new_table`` is the post-batch table, ``delta_table`` the appended
    rows alone (None without inserts); fresh labels get fresh codes, so
    every earlier code stays valid.  A record :meth:`BaseTable.extended
    <repro.cube.table.BaseTable.extended>` refuses raises
    :class:`MaintenanceError`.

    :func:`maintain_batch` and a piece rebuilt from its post-batch table
    (:meth:`Piece.derive <repro.core.piece.Piece.derive>`) both take
    their tables from here, so the two derive the same table — rows,
    order and label codes — and refuse the same records alike.
    """
    if deletes:
        mid_table, delta_rows = resolve_deletions(table, deletes)
    else:
        mid_table, delta_rows = table, None
    if not inserts:
        return mid_table, delta_rows, mid_table, None
    inserts = sorted(inserts, key=_dimension_order_key(table.n_dims))
    try:
        new_table, delta_table = mid_table.extended(inserts)
    except SchemaError as exc:
        raise MaintenanceError(f"cannot insert batch: {exc}") from exc
    return mid_table, delta_rows, new_table, delta_table


class BatchMaintenanceResult:
    """What one :func:`maintain_batch` call produced.

    ``table``
        the post-batch base table (the input table is never mutated);
    ``delta``
        the :class:`~repro.core.maintenance.delta.MaintenanceDelta`
        covering the whole batch — one patchable dirty set no matter
        how many tuples or which mix of inserts and deletes;
    ``stats``
        counts and the ``partition`` / ``merge`` / ``index`` sub-phase
        seconds (``partition_s`` / ``merge_s`` / ``index_s``), plus
        ``noop`` for empty batches.
    """

    __slots__ = ("table", "delta", "stats")

    def __init__(self, table, delta, stats):
        self.table = table
        self.delta = delta
        self.stats = stats

    def __repr__(self):
        return (
            f"BatchMaintenanceResult(inserted={self.stats['inserted']}, "
            f"deleted={self.stats['deleted']}, "
            f"dirty={len(self.delta) if self.delta is not None else 0})"
        )


def maintain_batch(tree, table: BaseTable, inserts=(), deletes=(),
                   cover_index=None):
    """Apply one mixed maintenance batch to ``tree`` in place.

    ``inserts`` and ``deletes`` are raw records (dimension labels then
    measures, schema order).  Deletes are matched against ``table`` —
    the pre-batch state — and applied first; inserts then extend the
    reduced table, so a record appearing in both lists is removed and
    re-added (§3.3 modification semantics).  Returns a
    :class:`BatchMaintenanceResult`; the caller's ``table`` is never
    mutated and the tree rolls back whole on any failure, so the entire
    mixed batch is one transaction.

    An empty batch is a true no-op: the tree is untouched and the
    returned delta is empty.  Duplicate tuples within a batch are
    multiset-inserted (each copy contributes to the aggregates), and
    deleting k copies requires k matching rows — exactly the semantics
    of running the tuples one at a time.

    ``cover_index`` is the caller's long-lived
    :class:`~repro.cube.cover_index.CoverIndex`, *in sync with*
    ``table``; a caller that holds none gets one built here, over
    ``table``, for this batch alone.  The batch delta is applied to it
    in place (:meth:`~repro.cube.cover_index.CoverIndex.apply_deletes`
    clears the dropped rows' bits, then
    :meth:`~repro.cube.cover_index.CoverIndex.apply_inserts` appends
    ``delta_table.codes`` to its code matrix) and the maintenance
    algorithms read its postings (each patch clears the closure memo).
    On success the index is in sync with ``result.table``.  On *failure*
    the tree rolls back but the index may already hold the batch delta —
    the caller must discard it (the warehouse rebuilds its index lazily
    after a failed batch).

    If the tree already has an active delta recorder
    (:meth:`QCTree.begin_delta <repro.core.qctree.QCTree.begin_delta>`),
    the batch records into it; otherwise a recorder is scoped to this
    call.  Either way ``result.delta`` is the batch's dirty set.
    """
    inserts = [tuple(r) for r in inserts]
    deletes = [tuple(r) for r in deletes]
    stats = {
        "inserted": len(inserts),
        "deleted": len(deletes),
        "partition_s": 0.0,
        "merge_s": 0.0,
        "index_s": 0.0,
        "noop": not inserts and not deletes,
    }
    owns_recorder = tree._delta is None
    recorder = tree.begin_delta() if owns_recorder else tree._delta
    try:
        if stats["noop"]:
            return BatchMaintenanceResult(table, recorder, stats)

        # Derive both table states up front: delete matching validates
        # the whole batch against the pre-batch table before any tree
        # mutation.
        timings = {"partition": 0.0, "merge": 0.0, "index": 0.0}
        mid_table, delta_rows, new_table, delta_table = batch_tables(
            table, inserts, deletes)

        # Each phase's delta is patched into the index just before the
        # phase that reads it: batch_delete reads cover sets of the
        # *reduced* table (deletes applied, inserts not yet),
        # batch_insert of the final one.

        def _indexed(build, payload):
            _t = time.perf_counter()
            built = build(payload)
            timings["index"] += time.perf_counter() - _t
            return built

        if cover_index is None:
            cover_index = _indexed(CoverIndex, table)
        with transactional(tree):
            if delta_rows is not None:
                _indexed(cover_index.apply_deletes, delta_rows.positions)
                batch_delete(tree, mid_table, delta_rows, cover_index,
                             timings=timings)
            if delta_table is not None:
                _indexed(cover_index.apply_inserts, delta_table.codes)
                batch_insert(tree, delta_table, cover_index,
                             timings=timings)

        stats["partition_s"] = timings["partition"]
        stats["merge_s"] = timings["merge"]
        stats["index_s"] = timings["index"]
        return BatchMaintenanceResult(new_table, recorder, stats)
    finally:
        if owns_recorder:
            tree.end_delta()


def apply_insertions(tree, table: BaseTable, records) -> BaseTable:
    """Insert raw records as one batch; returns the extended base table
    (the caller's is never mutated; on :class:`MaintenanceError` the
    tree is observably unchanged)."""
    return maintain_batch(tree, table, inserts=records).table


def apply_deletions(tree, table: BaseTable, records) -> BaseTable:
    """Delete raw records (multiset, matched on dimension labels — the
    paper deletes by key) as one batch; returns the reduced table.
    Raises :class:`MaintenanceError`, tree unchanged, when a record has
    no matching row left."""
    return maintain_batch(tree, table, deletes=records).table


def insert_one_by_one(tree, table: BaseTable, records) -> BaseTable:
    """Insert records tuple by tuple: batches of one over ONE cover
    index, built here and patched by every call — the way a warehouse
    driven a tuple at a time holds it.

    The baseline the paper's Figure 14 compares batch insertion against:
    every tuple repeats the point-query-heavy classification, so this is
    expected to scale worse than one batch.
    """
    index = CoverIndex(table)
    for record in records:
        table = maintain_batch(tree, table, inserts=[record],
                               cover_index=index).table
    return table


def delete_one_by_one(tree, table: BaseTable, records) -> BaseTable:
    """Delete records one batch-of-one at a time over one cover index
    (Ablation A3's baseline; see :func:`insert_one_by_one`)."""
    index = CoverIndex(table)
    for record in records:
        table = maintain_batch(tree, table, deletes=[record],
                               cover_index=index).table
    return table
