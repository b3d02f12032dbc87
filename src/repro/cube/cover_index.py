"""Inverted index over a base table for fast cover-set computation.

Maintenance repeatedly asks "which rows does this cell cover?" and "what
is this cell's closure?".  A linear scan per question is O(rows x dims);
this index stores one posting set per (dimension, value), answers a cover
query by intersecting the postings of the cell's non-``*`` dimensions
(smallest first), answers a closure query by testing the cover set
against the posting sets of one covered row's values, and memoizes both.

The index is **long-lived and incrementally maintainable**: instead of
rebuilding the posting lists per write batch — an O(rows x dims) tax
that grows with cube size, not batch size — :meth:`CoverIndex.apply_inserts`
and :meth:`CoverIndex.apply_deletes` patch the posting sets in place.
What lives across batches is the posting sets and the stable row ids;
the ``rows()``/``closure()`` memo lives for one phase of one batch.

Row identity
------------
Postings store **stable row ids**, assigned in append order and never
renumbered.  While no delete has happened, ids coincide with base-table
positions; after a delete, ids of surviving rows keep their values even
though :meth:`BaseTable.without_rows` compacts positions.  The invariant
is that *ascending id order equals table position order* (deletes
preserve relative order, inserts append), so :meth:`positions` can
translate a cover set into current table row positions — that is what
callers aggregating measures (``agg.state(table, rows)``) must use.
:meth:`rows` keeps returning the raw id sets, which is all the closure
machinery needs (:meth:`row` resolves an id to its dimension tuple).

Memo lifetime
-------------
A patch clears both memo dicts.  Measured on the benchmark's table,
lookups answered by an entry cached in an *earlier* batch were 12 of
21,964 (32-row insert/delete laps), 6 of 1,248 (one-row laps) and 2 of
10,062 (inserts, then random deletes) — a cell a batch asks about agrees
with one of its rows, so the patch opening the batch must drop it anyway
— while tracking which entries could survive was ≈ 20 % of an insert.
"""

from __future__ import annotations

from repro.core.cells import ALL, Cell
from repro.errors import SchemaError

_MISSING = object()


class CoverIndex:
    """Posting-list index answering cover and closure queries for a table.

    Build one from a :class:`~repro.cube.table.BaseTable` (``table=``) or
    from bare encoded rows (``rows=``, with ``n_dims`` derived from the
    first row when omitted).  The index starts in sync with what it was
    built from and is kept in sync by :meth:`apply_inserts` /
    :meth:`apply_deletes` as the table evolves.
    """

    def __init__(self, table=None, rows=None, n_dims=None):
        if table is not None:
            rows = table.rows
            n_dims = table.n_dims
        elif rows is None:
            raise SchemaError(
                "CoverIndex needs a table= or an explicit rows= sequence"
            )
        rows = [tuple(r) for r in rows]
        if n_dims is None:
            if not rows:
                raise SchemaError(
                    "cannot derive n_dims from an empty row set; "
                    "pass n_dims= explicitly"
                )
            n_dims = len(rows[0])
        if not isinstance(n_dims, int) or isinstance(n_dims, bool) \
                or n_dims < 0:
            raise SchemaError(
                f"n_dims must be a non-negative int, got {n_dims!r}"
            )
        for row in rows:
            if len(row) != n_dims:
                raise SchemaError(
                    f"inconsistent row width: {row!r} has {len(row)} "
                    f"dims, index expects {n_dims}"
                )
        self.table = table
        self.n_dims = n_dims
        self._rows = dict(enumerate(rows))  # stable id -> dimension tuple
        self._live = set(self._rows)
        self._next_id = len(rows)
        postings = [dict() for _ in range(n_dims)]
        for i, row in enumerate(rows):
            for j, value in enumerate(row):
                bucket = postings[j].get(value)
                if bucket is None:
                    postings[j][value] = {i}
                else:
                    bucket.add(i)
        self._postings = postings
        self._closure_cache: dict = {}
        self._rows_cache: dict = {}
        # id <-> position translation, rebuilt lazily after deletes.
        self._id_by_pos = None
        self._pos_by_id = None
        # Observability: how much patching happened to this instance.
        self.applied_inserts = 0
        self.applied_deletes = 0

    # -- basic accessors ---------------------------------------------------

    @property
    def n_rows(self) -> int:
        """Number of live rows currently indexed."""
        return len(self._live)

    def row(self, row_id: int) -> tuple:
        """The dimension tuple of a live row id (as returned by
        :meth:`rows`)."""
        return self._rows[row_id]

    def postings(self, dim: int) -> dict:
        """``{value: frozenset(table positions)}`` for one dimension.

        Position-translated so a patched index compares posting-for-
        posting with a freshly built one (the differential oracle's
        equivalence check).
        """
        self._position_order()
        pos = self._pos_by_id
        return {
            value: frozenset(pos[i] for i in bucket)
            for value, bucket in self._postings[dim].items()
        }

    def stats(self) -> dict:
        """Size and churn counters for observability."""
        return {
            "live_rows": len(self._live),
            "cached_rows": len(self._rows_cache),
            "cached_closures": len(self._closure_cache),
            "applied_inserts": self.applied_inserts,
            "applied_deletes": self.applied_deletes,
        }

    # -- id <-> position translation ---------------------------------------

    def _position_order(self) -> list:
        """Live ids in table-position order (ascending id order — deletes
        preserve relative order and inserts append, so the two agree)."""
        if self._id_by_pos is None:
            self._id_by_pos = sorted(self._live)
            self._pos_by_id = {
                i: p for p, i in enumerate(self._id_by_pos)
            }
        return self._id_by_pos

    def positions(self, cell: Cell) -> frozenset:
        """Current table row *positions* covered by ``cell``.

        Use this (not :meth:`rows`) to index the base table's measure
        matrix — after deletes, stable ids and compacted positions
        diverge.
        """
        ids = self.rows(cell)
        self._position_order()
        pos = self._pos_by_id
        return frozenset(pos[i] for i in ids)

    # -- queries -----------------------------------------------------------

    def rows(self, cell: Cell) -> frozenset:
        """Row ids covered by ``cell`` (posting intersection, memoized)."""
        cached = self._rows_cache.get(cell)
        if cached is not None:
            return cached
        result = self._rows_cache[cell] = self._rows_uncached(cell)
        return result

    def _rows_uncached(self, cell: Cell) -> frozenset:
        lists = []
        for j, value in enumerate(cell):
            if value is ALL:
                continue
            bucket = self._postings[j].get(value)
            if not bucket:
                return frozenset()
            lists.append(bucket)
        if not lists:
            return frozenset(self._live)
        lists.sort(key=len)
        result = set(lists[0])
        for bucket in lists[1:]:
            result &= bucket
            if not result:
                break
        return frozenset(result)

    def closure_and_rows(self, cell: Cell):
        """``(closure or None, covered row ids)`` in one call.

        This is the *single* cache path for closures: :meth:`closure`
        delegates here, the closure memo is only ever filled alongside
        the row-set memo, and a patch clears both together — so a
        cached closure can never outlive the cached cover set it was
        derived from.
        """
        rows = self.rows(cell)
        if not rows:
            return None, rows
        cached = self._closure_cache.get(cell, _MISSING)
        if cached is _MISSING:
            # ub(c)[j] = x iff every tuple of cov(c) has x at j: x can
            # only be what any one covered row has there, and "every
            # tuple" is a subset test against that value's posting set.
            witness = self._rows[next(iter(rows))]
            cached = self._closure_cache[cell] = tuple(
                x if value is ALL and rows <= self._postings[j][x] else value
                for j, (value, x) in enumerate(zip(cell, witness))
            )
        return cached, rows

    def closure(self, cell: Cell):
        """Closure of ``cell`` over this table, or None (memoized)."""
        return self.closure_and_rows(cell)[0]

    # -- incremental maintenance -------------------------------------------

    def apply_inserts(self, rows) -> list:
        """Index ``rows`` (encoded tuples) appended at the table's end.

        Patches the posting sets in place and clears the memo.  Returns
        the stable ids assigned to the new rows.
        """
        rows = [tuple(r) for r in rows]
        for row in rows:
            if len(row) != self.n_dims:
                raise SchemaError(
                    f"inconsistent row width: {row!r} has {len(row)} "
                    f"dims, index expects {self.n_dims}"
                )
        if not rows:
            return []
        self.table = None  # the construction table no longer matches
        assigned = []
        postings = self._postings
        for row in rows:
            i = self._next_id
            self._next_id += 1
            self._rows[i] = row
            self._live.add(i)
            assigned.append(i)
            if self._id_by_pos is not None:
                self._pos_by_id[i] = len(self._id_by_pos)
                self._id_by_pos.append(i)
            for j, value in enumerate(row):
                bucket = postings[j].get(value)
                if bucket is None:
                    postings[j][value] = {i}
                else:
                    bucket.add(i)
        self.applied_inserts += len(rows)
        self._rows_cache.clear()
        self._closure_cache.clear()
        return assigned

    def apply_deletes(self, row_ids) -> list:
        """Un-index the rows at the given *current table positions*.

        ``row_ids`` follow the caller's vocabulary — the row indices of
        the table being shrunk (the ``drop`` list
        :func:`~repro.core.maintenance.delete.resolve_deletions`
        produces), i.e. positions *before* compaction.  Patches the
        posting sets in place (empty buckets are removed so a patched
        index stays posting-for-posting identical to a freshly built
        one) and clears the memo.  Returns the stable ids that were
        retired.
        """
        positions = list(row_ids)
        order = self._position_order()
        ids = []
        seen = set()
        for p in positions:
            if not isinstance(p, int) or isinstance(p, bool) \
                    or not 0 <= p < len(order):
                raise SchemaError(
                    f"row position {p!r} out of range 0..{len(order) - 1}"
                )
            if p in seen:
                raise SchemaError(f"duplicate row position {p!r}")
            seen.add(p)
            ids.append(order[p])
        if not ids:
            return []
        self.table = None
        postings = self._postings
        for i in ids:
            row = self._rows.pop(i)
            self._live.discard(i)
            for j, value in enumerate(row):
                bucket = postings[j].get(value)
                if bucket is not None:
                    bucket.discard(i)
                    if not bucket:
                        del postings[j][value]
        # Positions compact after a delete; rebuild the maps lazily.
        self._id_by_pos = None
        self._pos_by_id = None
        self.applied_deletes += len(ids)
        self._rows_cache.clear()
        self._closure_cache.clear()
        return ids
