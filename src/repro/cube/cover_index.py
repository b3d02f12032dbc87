"""Inverted index over a base table for fast cover-set computation.

Maintenance repeatedly asks "which rows does this cell cover?" and "what
is this cell's closure?".  A linear scan per question is O(rows x dims);
this index stores one posting per (dimension, value) as a Python-int
bitmask over row ids, answers a cover query by ANDing the postings of
the cell's non-``*`` dimensions into the live mask (one C-speed pass,
no id copied), answers a closure query by testing the cover mask ``m``
against the postings of one covered row's values (``m & p == m``), and
memoizes both.

The index is **long-lived and incrementally maintainable**: instead of
rebuilding the postings per write batch — an O(rows x dims) tax that
grows with cube size, not batch size — :meth:`CoverIndex.apply_inserts`
and :meth:`CoverIndex.apply_deletes` OR / AND-NOT the batch's bits into
the postings in place.  What lives across batches is the postings and
the stable row ids; the ``mask()``/``closure()`` memo lives for one
phase of one batch.

Row identity
------------
The rows are one ``int32`` code matrix in **stable-id** order: row id
``i`` is ``codes[i]``.  An index built from a table starts as the
table's own :attr:`~repro.cube.table.BaseTable.codes` (the same
read-only array, not a copy), so at build ids equal positions; an
insert batch is appended with one concatenate and gets the next ids.  A
delete clears a row's bit in the live mask and leaves its row in the
matrix, so surviving rows keep their ids even though
:meth:`BaseTable.without_rows` compacts positions.  The invariant is
that *ascending id order equals table position order* (deletes preserve
relative order, inserts append), so :meth:`positions` can translate a
cover into current table row positions — that is what callers
aggregating measures (``agg.state(table, rows)``) must use.
:meth:`rows` returns the raw ids (:meth:`row` resolves an id to its
dimension tuple).  A mask is as wide as the largest id, so a delete that
leaves more than ``2 x live + 64`` ids issued renumbers the live rows to
their positions, drops the retired rows from the matrix
(``codes[live ids]``) and rebuilds the postings (``stats()["id_span"]``
is the width); the memo is empty after every patch, so no old id
survives it.  Ids stay stable between renumbers because postings over
positions would make every delete batch rewrite every posting: each
position after the first deleted row shifts.  Every reader converts
with ``.tolist()``, so cells and closures hold Python ints.

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

import numpy as np

from repro.core.cells import ALL, Cell
from repro.errors import SchemaError


def _mask(ids: np.ndarray) -> int:
    """The bitmask of the ascending, non-empty ``ids`` (one pack)."""
    low = int(ids[0])
    bits = np.zeros(int(ids[-1]) - low + 1, dtype=bool)
    bits[ids - low] = True
    packed = np.packbits(bits, bitorder="little").tobytes()
    return int.from_bytes(packed, "little") << low


def _ids(mask: int) -> np.ndarray:
    """The set bits of ``mask``, ascending (one unpack)."""
    packed = np.frombuffer(
        mask.to_bytes((mask.bit_length() + 7) // 8, "little"), dtype=np.uint8
    )
    return np.flatnonzero(np.unpackbits(packed, bitorder="little"))


class CoverIndex:
    """Bitmask-posting index answering cover and closure queries.

    Build one from a :class:`~repro.cube.table.BaseTable` (``table=``) or
    from bare encoded rows (``rows=``, with ``n_dims`` derived from the
    first row when omitted).  The index starts in sync with what it was
    built from and is kept in sync by :meth:`apply_inserts` /
    :meth:`apply_deletes` as the table evolves.
    """

    def __init__(self, table=None, rows=None, n_dims=None):
        if table is not None:
            n_dims, rows = table.n_dims, table.codes
        elif rows is None:
            raise SchemaError(
                "CoverIndex needs a table= or an explicit rows= sequence"
            )
        elif n_dims is None:
            rows = list(rows)
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
        self.n_dims = n_dims
        self._closure_cache: dict = {}
        self._rows_cache: dict = {}  # cell -> cover mask
        self._reset(self._matrix(rows))
        # Observability: how much patching happened to this instance.
        self.applied_inserts = 0
        self.applied_deletes = 0

    def _matrix(self, rows) -> np.ndarray:
        """``rows`` — a code matrix or code tuples — as an ``int32``
        matrix (a matrix is not copied), each row ``n_dims`` codes wide."""
        if not isinstance(rows, np.ndarray):
            rows = [tuple(row) for row in rows]
            for row in rows:
                if len(row) != self.n_dims:
                    raise SchemaError(
                        f"inconsistent row width: {row!r} has {len(row)} "
                        f"dims, index expects {self.n_dims}"
                    )
        return np.asarray(rows, np.int32).reshape(len(rows), self.n_dims)

    def _reset(self, codes: np.ndarray) -> None:
        """Index the rows ``codes`` afresh under ids ``0 .. len - 1``."""
        self._codes = codes  # row of id i at codes[i], retired ids too
        self._live = 0  # bit i set iff id i is live
        self.n_rows = 0  # live rows
        self._postings = [dict() for _ in range(self.n_dims)]
        self._id_by_pos = None  # live ids in position order, lazily
        self._add(codes, 0)

    def _add(self, codes: np.ndarray, start: int) -> None:
        """OR the rows ``codes``, ids ``start ..``, into the postings."""
        n = len(codes)
        ids = np.arange(start, start + n)
        for postings, value, mask in self._groups(codes, ids):
            postings[value] = postings.get(value, 0) | mask
        self._live |= ((1 << n) - 1) << start
        self.n_rows += n

    def _groups(self, codes: np.ndarray, ids: np.ndarray):
        """``(postings, value, mask)`` for every distinct value a
        dimension takes in the rows ``codes``; the mask holds the
        ascending ``ids`` of the rows carrying it.  A batch of few rows
        is grouped by a Python loop (NumPy's per-call cost would
        outweigh it), a table by one stable sort per dimension."""
        if len(ids) < 1024:
            ids = ids.tolist()
            low = ids[0] if ids else 0
            for postings, column in zip(self._postings, codes.T.tolist()):
                groups = {}
                for i, value in zip(ids, column):
                    groups[value] = groups.get(value, 0) | 1 << (i - low)
                for value, mask in groups.items():
                    yield postings, value, mask << low
            return
        for postings, values in zip(self._postings, codes.T):
            order = np.argsort(values, kind="stable")
            values = values[order]
            starts = np.flatnonzero(np.r_[True, values[1:] != values[:-1]])
            groups = np.split(ids[order], starts[1:])
            for value, group in zip(values[starts].tolist(), groups):
                yield postings, value, _mask(group)

    # -- basic accessors ---------------------------------------------------

    def row(self, row_id: int) -> tuple:
        """The dimension tuple of a live row id (as returned by
        :meth:`rows`)."""
        if not self._live >> row_id & 1:
            raise KeyError(row_id)
        return tuple(self._codes[row_id].tolist())

    def postings(self, dim: int) -> dict:
        """``{value: frozenset(table positions)}`` for one dimension.

        Position-translated so a patched index compares posting-for-
        posting with a freshly built one (the differential oracle's
        equivalence check).
        """
        return {
            value: self._positions_of(mask)
            for value, mask in self._postings[dim].items()
        }

    def stats(self) -> dict:
        """Size and churn counters for observability."""
        return {
            "live_rows": self.n_rows,
            "id_span": len(self._codes),
            "cached_rows": len(self._rows_cache),
            "cached_closures": len(self._closure_cache),
            "applied_inserts": self.applied_inserts,
            "applied_deletes": self.applied_deletes,
        }

    # -- id <-> position translation ---------------------------------------

    def _position_order(self) -> np.ndarray:
        """Live ids in table-position order (ascending id order — deletes
        preserve relative order and inserts append, so the two agree)."""
        if self._id_by_pos is None:
            self._id_by_pos = _ids(self._live)
        return self._id_by_pos

    def _positions_of(self, mask: int) -> frozenset:
        return frozenset(
            np.searchsorted(self._position_order(), _ids(mask)).tolist()
        )

    def positions(self, cell: Cell) -> frozenset:
        """Current table row *positions* covered by ``cell``.

        Use this (not :meth:`rows`) to index the base table's measure
        matrix — after deletes, stable ids and compacted positions
        diverge.
        """
        return self._positions_of(self.mask(cell))

    # -- queries -----------------------------------------------------------

    def mask(self, cell: Cell) -> int:
        """Bitmask of the row ids covered by ``cell`` (memoized): the live
        mask ANDed with the postings of the cell's values."""
        covered = self._rows_cache.get(cell)
        if covered is None:
            covered = self._live
            for postings, value in zip(self._postings, cell):
                if value is not ALL:
                    covered &= postings.get(value, 0)
                    if not covered:
                        break
            self._rows_cache[cell] = covered
        return covered

    def rows(self, cell: Cell) -> frozenset:
        """Row ids covered by ``cell``."""
        return frozenset(_ids(self.mask(cell)).tolist())

    def values_at(self, cell: Cell, j: int) -> list:
        """Sorted values that rows covered by ``cell`` take at dimension
        ``j``: those whose posting meets the cover mask, or — when the
        cover has fewer rows than ``j`` has values — the covered rows'."""
        covered = self.mask(cell)
        postings = self._postings[j]
        if covered.bit_count() < len(postings):
            return sorted(set(self._codes[_ids(covered), j].tolist()))
        return sorted(x for x, p in postings.items() if p & covered)

    def closure(self, cell: Cell):
        """Closure of ``cell`` over this table, or None (memoized)."""
        covered = self.mask(cell)
        if not covered:
            return None
        cached = self._closure_cache.get(cell)
        if cached is None:
            # ub(c)[j] = x iff every tuple of cov(c) has x at j: x can
            # only be what any one covered row (the lowest id) has
            # there, and "every tuple" is m & postings[j][x] == m.
            witness = self._codes[(covered & -covered).bit_length() - 1]
            witness = witness.tolist()
            cached = self._closure_cache[cell] = tuple(
                x if value is ALL and covered & postings[x] == covered
                else value
                for postings, value, x in zip(self._postings, cell, witness)
            )
        return cached

    def closure_and_rows(self, cell: Cell):
        """``(closure or None, covered row ids)``, both read off the one
        cover-mask memo; a closure is cached only after its cell's mask
        and a patch clears both, so it never outlives its cover."""
        return self.closure(cell), self.rows(cell)

    # -- incremental maintenance -------------------------------------------

    def apply_inserts(self, rows) -> list:
        """Index ``rows`` (a code matrix or encoded tuples) appended at
        the table's end: append them to the code matrix, OR their ids
        into the postings, clear the memo.  Returns their stable ids."""
        codes = self._matrix(rows)
        start = len(self._codes)
        self._codes = np.concatenate([self._codes, codes])
        self._add(codes, start)
        self._id_by_pos = None
        self.applied_inserts += len(codes)
        self._rows_cache.clear()
        self._closure_cache.clear()
        return list(range(start, len(self._codes)))

    def apply_deletes(self, row_ids) -> list:
        """Un-index the rows at the given *current table positions*.

        ``row_ids`` follow the caller's vocabulary — the row indices of
        the table being shrunk (the ``drop`` list
        :func:`~repro.core.maintenance.delete.resolve_deletions`
        produces), i.e. positions *before* compaction.  Clears their
        bits from the live mask and the postings (an emptied posting is
        removed, so a patched index stays posting-for-posting identical
        to a freshly built one); their rows stay in the code matrix until
        the id span outgrows ``2 x live + 64`` (only a delete can cross
        that line), when the live rows are renumbered to their positions
        and the matrix and postings rebuilt.  Clears the memo.  Returns
        the retired stable ids.
        """
        positions = list(row_ids)
        order = self._position_order()
        for p in positions:
            if not isinstance(p, int) or isinstance(p, bool) \
                    or not 0 <= p < len(order):
                raise SchemaError(
                    f"row position {p!r} out of range 0..{len(order) - 1}"
                )
        if len(set(positions)) < len(positions):
            raise SchemaError(f"duplicate row positions in {positions!r}")
        if not positions:
            return []
        ids = order[positions]
        ascending = np.sort(ids)
        for postings, value, mask in self._groups(self._codes[ascending],
                                                  ascending):
            left = postings[value] & ~mask
            if left:
                postings[value] = left
            else:
                del postings[value]
        self._live &= ~_mask(ascending)
        self.n_rows -= len(ids)
        self._id_by_pos = None
        if len(self._codes) > 2 * self.n_rows + 64:
            self._reset(self._codes[_ids(self._live)])
        self.applied_deletes += len(ids)
        self._rows_cache.clear()
        self._closure_cache.clear()
        return ids.tolist()
