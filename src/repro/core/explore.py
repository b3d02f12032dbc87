"""Semantic exploration on a quotient cube: the OLAP services it enables.

The paper motivates quotient cubes with navigation that plain cubes make
painful: intelligent roll-up ("what are the most general circumstances
under which this observation still holds?"), drilling *into* a class to
inspect its internal structure, and moving between classes instead of
between cells.

Every operation is written once, over a small **cube interface** — the
``cube_*`` functions below take any object with

``encode(raw_cell)`` / ``decode(cell)``
    user-facing labels to the cube's own cell space and back
    (``encode`` raises :class:`~repro.errors.SchemaError` for a wrong
    arity or a label the cube has never seen);
``probe(cell)``
    the closure operator: ``(upper bound, value)`` of the class
    containing ``cell``, or None when the cell is empty;
``cover_values(ub, dim)``
    the values at ``dim`` among the base rows ``ub`` covers;
``lower_bounds(ub)``
    the true lower bounds of the class at ``ub``;
``sort_key(cell)``
    the dictionary order of that cell space

and work entirely in that cube's cell space.  :class:`TreeCube` is one
``(tree, table)`` pair in dictionary-code space (it runs off the
QC-tree, plus the base table only where member enumeration genuinely
needs cover information); :class:`~repro.serving.scatter.UnionCube` is
the union of several pieces in raw-label space.  The served API over
them is :class:`~repro.serving.snapshot.ServingSnapshot` and the
warehouse methods that delegate to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterator

from repro.core.cells import (
    ALL,
    Cell,
    closures_below,
    dict_sort_key,
    generalizes,
    nonstar_positions,
    specialize,
)
from repro.core.point_query import locate
from repro.errors import QueryError


class TreeCube:
    """One ``(tree, table)`` pair as a cube, in dictionary-code space.

    Any traversal-protocol tree works (dict or array-backed).
    """

    __slots__ = ("tree", "table")

    sort_key = staticmethod(dict_sort_key)

    def __init__(self, tree, table):
        self.tree = tree
        self.table = table

    def encode(self, raw_cell) -> Cell:
        return self.table.encode_cell(raw_cell)

    def decode(self, cell: Cell) -> tuple:
        return self.table.decode_cell(cell)

    def probe(self, cell: Cell):
        node = locate(self.tree, cell)
        if node is None:
            return None
        return self.tree.upper_bound_of(node), self.tree.value_at(node)

    def cover_values(self, ub: Cell, dim: int) -> set:
        table = self.table
        return set(table.codes[table.select(ub), dim].tolist())

    def lower_bounds(self, ub: Cell) -> list:
        # Lazy: cube.quotient imports core.cells, whose package imports
        # this module.
        from repro.cube.quotient import class_lower_bounds

        return class_lower_bounds(self.table, ub)


# -- the one implementation, over any cube ------------------------------------


def _start_class(cube, cell: Cell) -> tuple:
    """``(upper bound, value)`` of ``cell``'s class; an empty cell is a
    :class:`QueryError` spelled in the user's labels."""
    hit = cube.probe(cell)
    if hit is None:
        raise QueryError(f"cell {cube.decode(cell)!r} is not in the cube")
    return hit


def _rollup_region(cube, cell: Cell, holds: bool) -> list:
    """The classes that are closures of generalizations of ``cell``'s
    class and whose value equals ``cell``'s (``holds``) or differs from
    it, as ``(upper bound, value)``.  The search runs over *classes*, not
    cells (the paper: "we only need to search at most 2 classes")."""
    start_ub, value = _start_class(cube, cell)
    return [
        pair for pair in closures_below(cube.probe, start_ub).items()
        if (pair[1] == value) == holds
    ]


def cube_rollup(cube, cell: Cell) -> list:
    """Most general contexts where ``cell``'s aggregate value still holds.

    This is the paper's intelligent roll-up example (§1): starting from
    ``(S2, P1, f)`` with AVG 9, the answer describes how far one can
    generalize while the value stays 9.  Returns the matching classes as
    ``(upper bound, value)`` ordered most-general-first; the leading
    entries are the roll-up frontier, and any non-matching class between
    them and ``cell`` (e.g. ``(*, P1, *)`` in the running example) is the
    "except" part of the paper's phrasing, obtainable via
    :func:`cube_rollup_exceptions`.
    """
    return sorted(
        _rollup_region(cube, cell, holds=True),
        key=lambda pair: (len(nonstar_positions(pair[0])),
                          cube.sort_key(pair[0])),
    )


def cube_rollup_exceptions(cube, cell: Cell) -> list:
    """Classes between ``cell`` and its roll-up frontier with other
    values, in the walk's discovery order (the same on every cube)."""
    return _rollup_region(cube, cell, holds=False)


def _neighbours(cube, ub: Cell, cells) -> list:
    """The distinct classes other than ``ub``'s that ``cells`` fall in,
    as ``(upper bound, value)`` in dictionary order."""
    seen: dict = {}
    for cell in cells:
        hit = cube.probe(cell)
        if hit is not None and hit[0] != ub:
            seen.setdefault(*hit)
    return sorted(seen.items(), key=lambda pair: cube.sort_key(pair[0]))


def cube_drilldowns(cube, cell: Cell) -> list:
    """Classes reached by one-step drill-downs from ``cell``'s class.

    Instantiates each ``*`` dimension of the class upper bound with every
    value present in its cover (needs base rows to enumerate values)
    and returns the distinct destination classes.
    """
    ub, _ = _start_class(cube, cell)
    return _neighbours(cube, ub, (
        specialize(ub, j, value)
        for j, v in enumerate(ub) if v is ALL
        for value in cube.cover_values(ub, j)
    ))


def cube_rollups(cube, cell: Cell) -> list:
    """Classes reached by one-step roll-ups from ``cell``'s class.

    A lattice child is reachable by generalizing one dimension of *some
    member cell*, not necessarily of the upper bound (e.g. in the paper's
    Figure 3, C6 is a child of C5 via member ``(*, P1, s)``), so the
    members are enumerated exactly from the class's true lower bounds.
    """
    ub, _ = _start_class(cube, cell)
    return _neighbours(cube, ub, (
        specialize(member, j, ALL)
        for member in _interval_union_members(cube.lower_bounds(ub), ub)
        for j in nonstar_positions(member)
    ))


def cube_open_class(cube, cell: Cell) -> "ClassStructure":
    """Open a class up and inspect its internal structure (Figure 3).

    Returns the class's upper bound, its true lower bounds, and all its
    member cells with the intra-class drill-down edges — the picture the
    paper draws when drilling into class ``C3``.
    """
    ub, value = _start_class(cube, cell)
    lowers = cube.lower_bounds(ub)
    members = sorted(_interval_union_members(lowers, ub), key=cube.sort_key)
    inside = set(members)
    edges = []
    for c in members:
        for j, v in enumerate(c):
            if v is not ALL:
                continue
            d = specialize(c, j, ub[j])
            if d != c and d in inside:
                edges.append((c, d))
    return ClassStructure(ub, tuple(lowers), tuple(members), tuple(edges),
                          value)


def _interval_union_members(lower_bounds, upper_bound) -> Iterator[Cell]:
    """All cells between some lower bound and the upper bound."""
    seen = set()
    free_dims = nonstar_positions(upper_bound)
    # Members keep a superset of some minimal kept-set; enumerate kept-sets
    # grown from each lower bound.
    for kept in (set(nonstar_positions(lb)) for lb in lower_bounds):
        optional = [j for j in free_dims if j not in kept]
        for r in range(len(optional) + 1):
            for extra in combinations(optional, r):
                key = frozenset(kept) | set(extra)
                if key in seen:
                    continue
                seen.add(key)
                yield tuple(
                    v if (j in key) else ALL
                    for j, v in enumerate(upper_bound)
                )


@dataclass
class ClassStructure:
    """The opened-up view of one class (see :func:`cube_open_class`)."""

    upper_bound: Cell
    lower_bounds: tuple
    members: tuple
    drilldown_edges: tuple
    value: object

    def __len__(self) -> int:
        return len(self.members)

    def contains(self, cell: Cell) -> bool:
        """Membership test against the interval-union structure."""
        return generalizes(cell, self.upper_bound) and any(
            generalizes(lb, cell) for lb in self.lower_bounds
        )
