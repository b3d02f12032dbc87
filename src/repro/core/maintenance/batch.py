"""Batched maintenance fast path for Algorithms 5–7.

Once refreeze became an incremental patch, dict-tree maintenance itself
was ~95% of write latency (today: the ``maintenance.*`` per-layer lines
of ``benchmarks/e2e``).  The
per-write cost is dominated by work that is *identical across tuples*:
the Δ-partition DFS, closure jumps and cover-index probes over the old
tree, and — whenever a write mints a new class bound — a cover index
over the whole new base table.  Driving N tuples through N single-tuple
maintenance calls re-derives all of it N times.

:func:`maintain_batch` is the single entry point that amortizes it
once per batch instead:

* the insert delta is **sorted in dimension order** so the cover-
  partition DFS (:func:`~repro.core.classes.enumerate_temp_classes`,
  the same BUC-style machinery Algorithm 1 construction uses) visits
  each shared prefix once and computes the Δ class partition in a
  single pass over the whole batch;
* classification against the old tree shares one memoized closure /
  locate cache across every tuple of the batch, what the batch asks of
  the tree's shape goes through one walk restricted to its rows
  (:meth:`QCTree.walk_generalizing
  <repro.core.qctree.QCTree.walk_generalizing>`), and the new-table
  cover index — the big per-write cost — is built at most once per
  batch rather than once per tuple;
* deletes and inserts are applied as *one* logical batch (deletes
  first, then inserts — the paper's §3.3 "modification = deletion +
  insertion" ordering), under one transactional guard, recording one
  :class:`~repro.core.maintenance.delta.MaintenanceDelta` — so a batch
  of any mix produces exactly one refreeze patch and one snapshot
  publication downstream.

The correctness contract is Theorem 2's, extended to mixed batches and
proven by the differential maintenance oracle
(``tests/test_maintenance_oracle.py``): the tree after
``maintain_batch`` is node-for-node identical to both the sequential
single-tuple maintenance of the same mutation stream and a from-scratch
rebuild of the final base table.
"""

from __future__ import annotations

import time

from repro.core.maintenance.delete import batch_delete, resolve_deletions
from repro.core.maintenance.insert import batch_insert
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
    measures — the order earliest-match delete (and segment compaction,
    which re-inserts rows through here) depends on.
    """
    def key(record):
        return tuple(_label_key(v) for v in record[:n_dims])

    return key


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
        seconds (``partition_s`` / ``merge_s`` / ``index_s``), the
        cover-index mode for the batch (``cover_index``:
        ``"patched"`` when a persistent index absorbed the batch delta,
        ``"rebuilt"`` when a full-table index had to be constructed,
        ``None`` when the batch needed no full-table index at all),
        plus ``noop`` for empty batches.
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

    ``cover_index``, when given, is the caller's long-lived
    :class:`~repro.cube.cover_index.CoverIndex`, *in sync with*
    ``table``.  The batch delta is applied to it in place
    (:meth:`~repro.cube.cover_index.CoverIndex.apply_deletes` then
    :meth:`~repro.cube.cover_index.CoverIndex.apply_inserts`) instead
    of re-deriving a full-table index inside the batch, and the
    maintenance algorithms reuse its posting sets (each patch clears
    the closure memo).  On success the index is in sync with
    ``result.table``.  On *failure* the tree rolls back but the index
    may already hold the batch delta — the caller must discard it (the
    warehouse rebuilds its index lazily after a failed batch).

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
        "cover_index": None,
        "noop": not inserts and not deletes,
    }
    owns_recorder = tree._delta is None
    recorder = tree.begin_delta() if owns_recorder else tree._delta
    try:
        if stats["noop"]:
            return BatchMaintenanceResult(table, recorder, stats)

        # Derive both table states up front: delete matching validates
        # the whole batch against the pre-batch table before any tree
        # mutation, and the insert delta is encoded against the reduced
        # table (fresh labels keep their codes stable either way).
        timings = {"partition": 0.0, "merge": 0.0,
                   "index": 0.0, "index_rebuilds": 0}
        if deletes:
            mid_table, delta_rows = resolve_deletions(table, deletes)
        else:
            mid_table, delta_rows = table, None
        if inserts:
            inserts.sort(key=_dimension_order_key(table.n_dims))
            try:
                new_table, delta_table = mid_table.extended(inserts)
            except SchemaError as exc:
                raise MaintenanceError(
                    f"cannot insert batch: {exc}"
                ) from exc
        else:
            new_table, delta_table = mid_table, None

        # With a persistent index, each phase's delta is patched in just
        # before the phase that needs it: batch_delete reads cover sets
        # of the *reduced* table (deletes applied, inserts not yet),
        # batch_insert of the final one.

        def _patch(apply, payload):
            _t = time.perf_counter()
            apply(payload)
            timings["index"] += time.perf_counter() - _t

        with transactional(tree):
            if delta_rows is not None:
                if cover_index is not None:
                    _patch(cover_index.apply_deletes, delta_rows.positions)
                batch_delete(tree, mid_table, delta_rows, timings=timings,
                             cover_index=cover_index)
            if delta_table is not None:
                if cover_index is not None:
                    _patch(cover_index.apply_inserts, delta_table.rows)
                batch_insert(tree, new_table, delta_table, timings=timings,
                             cover_index=cover_index)

        if cover_index is not None:
            stats["cover_index"] = "patched"

        stats["partition_s"] = timings["partition"]
        stats["merge_s"] = timings["merge"]
        stats["index_s"] = timings["index"]
        if cover_index is None and timings["index_rebuilds"]:
            stats["cover_index"] = "rebuilt"
        return BatchMaintenanceResult(new_table, recorder, stats)
    finally:
        if owns_recorder:
            tree.end_delta()
