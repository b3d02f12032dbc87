"""Brute-force cube-lattice oracle.

Everything in this module enumerates the lattice the slow, obviously
correct way.  It serves two purposes:

* a *testing oracle* — the QC-tree, Dwarf, and BUC implementations are all
  checked cell-by-cell against these functions on small random tables;
* the "full data cube" baseline whose materialized size anchors the
  compression-ratio experiments (Figures 12 and 15), computed either here
  or by :mod:`repro.cube.buc`.

Costs are exponential in the number of dimensions; keep inputs small.
"""

from __future__ import annotations

from typing import Iterator

from repro.core.cells import (
    ALL,
    Cell,
    generalizations,
    meet_of_tuples,
)
from repro.cube.aggregates import make_aggregate
from repro.cube.table import BaseTable


def cover_rows(table: BaseTable, cell: Cell) -> list:
    """Row indices of the tuples covered by ``cell`` (the cover set)."""
    return table.select(cell)


def closure(table: BaseTable, cell: Cell):
    """The upper bound of ``cell``'s cover-equivalence class, or None.

    The closure agrees with every covered tuple on each dimension where
    they all share one value and is ``*`` elsewhere; it is the most
    specific cell with the same cover set.  Returns None when the cover
    set is empty (the cell is not in the cube).
    """
    covered = table.select(cell)
    if not covered:
        return None
    rows = table.rows
    return meet_of_tuples(rows[i] for i in covered)


def iter_nonempty_cells(table: BaseTable) -> Iterator[Cell]:
    """Yield every cell with a non-empty cover set, without duplicates.

    A cell has a non-empty cover iff it generalizes at least one base
    tuple, so the union of each tuple's generalizations enumerates them
    all.
    """
    seen = set()
    for row in table.rows:
        for cell in generalizations(row):
            if cell not in seen:
                seen.add(cell)
                yield cell


def count_nonempty_cells(table: BaseTable) -> int:
    """Number of non-empty cells — the materialized full-cube size."""
    return sum(1 for _ in iter_nonempty_cells(table))


def closed_cells(table: BaseTable) -> set:
    """The set of class upper bounds (closed cells) of the cover partition."""
    return {closure(table, cell) for cell in iter_nonempty_cells(table)}


def full_cube(table: BaseTable, aggregate) -> dict:
    """Materialize the whole cube: ``{cell: aggregate value}``.

    The oracle for point queries; also demonstrates how much bigger the
    full cube is than its quotient.
    """
    agg = make_aggregate(aggregate)
    cube = {}
    for cell in iter_nonempty_cells(table):
        rows = table.select(cell)
        cube[cell] = agg.value(agg.state(table, rows))
    return cube


def cell_aggregate(table: BaseTable, aggregate, cell: Cell):
    """Aggregate value of one cell, or None if its cover set is empty."""
    agg = make_aggregate(aggregate)
    rows = table.select(cell)
    if not rows:
        return None
    return agg.value(agg.state(table, rows))


class OracleClass:
    """One cover-equivalence class materialized by the brute-force oracle."""

    __slots__ = ("upper_bound", "members", "rows", "value")

    def __init__(self, upper_bound, members, rows, value):
        self.upper_bound = upper_bound
        self.members = members
        self.rows = rows
        self.value = value

    @property
    def lower_bounds(self) -> list:
        """Minimal member cells (the class's lower bounds)."""
        from repro.core.cells import strictly_generalizes

        return [
            c
            for c in self.members
            if not any(
                strictly_generalizes(d, c) for d in self.members if d != c
            )
        ]

    def __repr__(self):
        return (
            f"OracleClass(ub={self.upper_bound}, |members|={len(self.members)}, "
            f"value={self.value})"
        )


def quotient_classes(table: BaseTable, aggregate="count") -> list:
    """Materialize the cover partition the slow way.

    Groups every non-empty cell by its (frozen) cover set; each group is a
    class whose upper bound is the shared closure.  Returned in dictionary
    order of upper bounds for determinism.
    """
    from repro.core.cells import dict_sort_key

    agg = make_aggregate(aggregate)
    table_rows = table.rows
    groups = {}
    for cell in iter_nonempty_cells(table):
        key = frozenset(table.select(cell))
        groups.setdefault(key, []).append(cell)
    classes = []
    for rows_key, members in groups.items():
        rows = sorted(rows_key)
        ub = meet_of_tuples(table_rows[i] for i in rows)
        value = agg.value(agg.state(table, rows))
        classes.append(OracleClass(ub, sorted(members, key=dict_sort_key),
                                   rows, value))
    classes.sort(key=lambda c: dict_sort_key(c.upper_bound))
    return classes


def is_convex_partition(table: BaseTable, classes) -> bool:
    """Check the convexity property of a partition (no class has a hole).

    For every pair ``c <= d`` inside one class, every cell ``e`` with
    ``c <= e <= d`` must belong to the same class.  Exponential; for tests.
    """
    from repro.core.cells import generalizes

    membership = {}
    for idx, cls in enumerate(classes):
        for cell in cls.members:
            membership[cell] = idx
    for cls_idx, cls in enumerate(classes):
        for c in cls.members:
            for d in cls.members:
                if c == d or not generalizes(c, d):
                    continue
                for e in generalizations(d):
                    if generalizes(c, e) and membership.get(e) != cls_idx:
                        return False
    return True


def drilldown_children(table: BaseTable, cell: Cell) -> Iterator[Cell]:
    """Yield the one-step drill-downs of ``cell`` that are non-empty.

    A drill-down instantiates one ``*`` dimension with a concrete value; we
    only yield values that appear among the covered tuples, so results are
    exactly the non-empty specializations.
    """
    covered = table.codes[table.select(cell)]
    for j, v in enumerate(cell):
        if v is not ALL:
            continue
        for value in sorted(set(covered[:, j].tolist())):
            yield cell[:j] + (value,) + cell[j + 1:]
