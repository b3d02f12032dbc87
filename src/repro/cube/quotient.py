"""Quotient cubes and the QC-table baseline.

A :class:`QuotientCube` materializes the cover partition as explicit
classes — each with its unique upper bound, its minimal lower bounds, its
lattice-child class ids, and its aggregate — by deduplicating the
temporary classes of the cover-partition DFS.  It is the conceptual
structure the QC-tree compresses; the exploration APIs and several tests
work on it directly.

A :class:`QCTable` is the paper's flat baseline: "store all upper bounds
plainly in a relational table".  It supports membership/point lookup by
closure search and, mainly, feeds the storage model for the compression
experiments.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.cells import (
    ALL,
    Cell,
    dict_sort_key,
    generalizes,
    strictly_generalizes,
)
from repro.core.classes import class_states, enumerate_temp_classes
from repro.cube.aggregates import make_aggregate
from repro.cube.table import ANY_CODE, BaseTable


@dataclass
class QuotientClass:
    """One class of the cover partition."""

    class_id: int
    upper_bound: Cell
    lower_bounds: tuple
    value: object
    #: ids of lattice-child classes recorded by the DFS (one drill-down
    #: step more general).
    child_ids: tuple = field(default=())

    def contains(self, cell: Cell) -> bool:
        """Membership test: the class holds every cell between some lower
        bound and the upper bound."""
        return generalizes(cell, self.upper_bound) and any(
            generalizes(lb, cell) for lb in self.lower_bounds
        )

    def __repr__(self):
        return (
            f"QuotientClass(C{self.class_id}, ub={self.upper_bound}, "
            f"lbs={list(self.lower_bounds)}, value={self.value})"
        )


class QuotientCube:
    """The cover quotient cube of a base table."""

    def __init__(self, classes, n_dims: int, aggregate_name: str):
        self.classes = classes
        self.n_dims = n_dims
        self.aggregate_name = aggregate_name
        self._by_upper = {c.upper_bound: c for c in classes}

    @classmethod
    def from_table(cls, table: BaseTable, aggregate="count") -> "QuotientCube":
        """Build the quotient cube by deduplicating the DFS's temp classes.

        Redundant temp classes sharing an upper bound are merged and their
        lattice-child references remapped onto the merged class ids.  The
        DFS's recorded lower bounds carry closure-filled values, so each
        class's true minimal cells are recomputed from the base table via
        :func:`class_lower_bounds`.
        """
        agg = make_aggregate(aggregate)
        temp = enumerate_temp_classes(table, agg)
        order = sorted(
            {t.upper_bound for t in temp}, key=dict_sort_key
        )
        ub_to_id = {ub: i for i, ub in enumerate(order)}
        children: dict = {ub: set() for ub in order}
        states: dict = {}
        temp_by_id = {t.class_id: t for t in temp}
        for t in temp:
            states.setdefault(t.upper_bound, t.state)
            if t.child_id >= 0:
                child_ub = temp_by_id[t.child_id].upper_bound
                children[t.upper_bound].add(ub_to_id[child_ub])
        classes = []
        for ub in order:
            lbs = class_lower_bounds(table, ub)
            classes.append(
                QuotientClass(
                    class_id=ub_to_id[ub],
                    upper_bound=ub,
                    lower_bounds=tuple(sorted(lbs, key=dict_sort_key)),
                    value=agg.value(states[ub]),
                    child_ids=tuple(sorted(children[ub])),
                )
            )
        return cls(classes, table.n_dims, agg.name)

    def __len__(self) -> int:
        return len(self.classes)

    def __iter__(self):
        return iter(self.classes)

    def class_of_upper_bound(self, ub: Cell):
        """The class with the given upper bound, or None."""
        return self._by_upper.get(ub)

    def class_of_cell(self, cell: Cell):
        """The class containing ``cell``, or None if its cover is empty.

        Scans classes; O(classes) — the QC-tree answers this in O(path)
        via :func:`repro.core.point_query.locate`.
        """
        for qclass in self.classes:
            if qclass.contains(cell):
                return qclass
        return None

    def lattice_parents(self, class_id: int) -> list:
        """Class ids one drill-down step more specific than ``class_id``."""
        return [
            c.class_id for c in self.classes if class_id in c.child_ids
        ]

    def check_well_formed(self) -> None:
        """Assert structural sanity; exercised by the test suite."""
        seen = set()
        for qclass in self.classes:
            assert qclass.upper_bound not in seen, "duplicate upper bound"
            seen.add(qclass.upper_bound)
            for lb in qclass.lower_bounds:
                assert generalizes(lb, qclass.upper_bound), (
                    f"lower bound {lb} does not generalize "
                    f"{qclass.upper_bound}"
                )
            for other in qclass.lower_bounds:
                assert not any(
                    strictly_generalizes(lb, other)
                    for lb in qclass.lower_bounds
                ), "non-minimal lower bound retained"


def class_lower_bounds(table: BaseTable, upper_bound: Cell) -> list:
    """True lower bounds of the class whose upper bound is ``upper_bound``.

    A cell ``c <= ub`` belongs to the class iff it covers no base tuple
    outside ``cov(ub)``; ``c`` avoids an outside tuple ``t`` exactly when
    it keeps some dimension where ``ub``'s value differs from ``t``'s.
    The class's minimal members therefore keep precisely the *minimal
    hitting sets* of the family ``{ D_t : t outside cov(ub) }`` with
    ``D_t = { j : ub[j] != * and ub[j] != t[j] }``.
    """
    bound = np.array([ANY_CODE if v is ALL else v for v in upper_bound])
    return lower_bounds_from_difference_sets(
        upper_bound, difference_sets(table, bound))


def difference_sets(table: BaseTable, bound) -> set:
    """:func:`class_lower_bounds`' family, read off ``table``'s code
    columns; ``bound`` is a row as :meth:`BaseTable.encode_points` gives
    it (a label the table lacks differs from every row)."""
    dims = np.flatnonzero(bound != ANY_CODE)
    differs = table.codes[:, dims] != bound[dims]
    # A row that differs nowhere is inside the cover: no constraint.
    differs = np.unique(differs[differs.any(axis=1)], axis=0)
    return {frozenset(dims[row].tolist()) for row in differs}


def lower_bounds_from_difference_sets(upper_bound: Cell,
                                      difference_sets) -> list:
    """Lower bounds of ``upper_bound``'s class from its difference sets.

    ``difference_sets`` is the family ``{ D_t : t outside cov(ub) }``
    described in :func:`class_lower_bounds`.  Split out so callers that
    derive the family differently (e.g. a segmented store unioning
    per-segment difference sets, where no single base table exists) share
    the hitting-set machinery.
    """
    difference_sets = set(difference_sets)
    # Keep only the inclusion-minimal difference sets; hitting them hits all.
    family = [
        s
        for s in difference_sets
        if not any(o < s for o in difference_sets)
    ]
    kept_sets = _minimal_hitting_sets(family)
    bounds = []
    for kept in kept_sets:
        cell = tuple(
            v if j in kept else ALL for j, v in enumerate(upper_bound)
        )
        bounds.append(cell)
    return bounds


def _minimal_hitting_sets(family) -> list:
    """All inclusion-minimal hitting sets of a family of non-empty sets.

    Berge's incremental construction: fold one set in at a time, extending
    the partial minimal hitting sets that miss it and pruning non-minimal
    candidates.  Exponential in the worst case; class lower-bound families
    are small in practice (bounded by the upper bound's non-``*`` width).
    """
    hitting = {frozenset()}
    for required in family:
        extended = set()
        for h in hitting:
            if h & required:
                extended.add(h)
            else:
                for element in required:
                    extended.add(h | {element})
        hitting = {
            h for h in extended if not any(o < h for o in extended)
        }
    return sorted(hitting, key=lambda s: (len(s), sorted(s)))


class QCTable:
    """The flat "QC-table" baseline: all class upper bounds in a relation."""

    def __init__(self, rows, n_dims: int):
        #: ``[(upper_bound, value), ...]`` sorted by upper bound.
        self.rows = rows
        self.n_dims = n_dims
        self._by_upper = dict(rows)

    @classmethod
    def from_table(cls, table: BaseTable, aggregate="count") -> "QCTable":
        agg = make_aggregate(aggregate)
        rows = sorted(
            ((ub, agg.value(state))
             for ub, state in class_states(table, agg).items()),
            key=lambda pair: dict_sort_key(pair[0]),
        )
        return cls(rows, table.n_dims)

    def __len__(self) -> int:
        return len(self.rows)

    def lookup_upper_bound(self, ub: Cell):
        """Value stored for an exact upper bound, or None."""
        return self._by_upper.get(ub)

    def point_query(self, cell: Cell, table: BaseTable):
        """Answer a point query by closing ``cell`` against the base table.

        Needs base-table access (unlike the QC-tree) — this is the
        operational gap the QC-tree's link structure closes.
        """
        from repro.cube.lattice import closure

        ub = closure(table, cell)
        return None if ub is None else self._by_upper.get(ub)
