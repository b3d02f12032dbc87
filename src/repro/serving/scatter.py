"""Scatter-gather query answering over several QC-tree pieces — the
many-piece plans of :class:`~repro.serving.snapshot.ServingSnapshot`
(a segmented store's sealed segments plus its head).

Each segment owns an independent tree + base table (with its *own* label
dictionaries), so cross-segment merging happens in **raw label space**:
cells are carried as tuples of raw labels with :data:`~repro.core.cells.
ALL` marking aggregated dimensions (the "sem" form below), encoded into
each segment's dictionaries on the way in and decoded on the way out.

Soundness rests on two facts:

* aggregate states are built over disjoint row sets (each base row lives
  in exactly one segment), so :meth:`AggregateFunction.merge
  <repro.cube.aggregates.AggregateFunction.merge>` over per-segment class
  states equals the state over the union cover — point and range answers
  merge per cell;
* the union's closure operator is the meet of the per-segment closures:
  ``cl_U(c) = meet_s cl_s(c)`` (a row covered by ``c`` lives in exactly
  one segment and tightens exactly that segment's closure).  Class upper
  bounds of the union are therefore *not* the union of per-segment
  bounds — segment A holding ``(1, 1)`` and segment B holding ``(1, 2)``
  yields the union class ``(1, *)``, which neither segment has — which
  is what :func:`union_class_probe`'s per-cell verification exploits,
  and why :func:`scatter_iceberg` must enumerate union classes from the
  concatenated rows rather than from per-segment class lists.

Every function here reproduces the corresponding one-piece answer
*answer-for-answer* (the reference model in
``tests/test_stateful.py`` holds this to account).  Point, range
and iceberg are gathered here; the exploration family is not written a
second time — :class:`UnionCube` hands the union's closure operator,
cover and lower bounds to the one implementation in
:mod:`repro.core.explore`.
"""

from __future__ import annotations

from typing import Optional

from repro.core.cells import ALL, Cell, meet
from repro.core.classes import class_states
from repro.core.iceberg import _satisfies
from repro.core.point_query import locate
from repro.core.range_query import encode_range, range_classes
from repro.cube.quotient import lower_bounds_from_difference_sets
from repro.cube.table import BaseTable, _label_sort_key
from repro.errors import QueryError, SchemaError


class PieceView:
    """One scatter target: an immutable reading of one
    :class:`~repro.core.piece.Piece` — its frozen tree (any
    traversal-protocol representation works) plus the copy-on-write base
    table that owns its label dictionaries."""

    __slots__ = ("tree", "table")

    def __init__(self, tree, table):
        self.tree = tree
        self.table = table


# -- raw <-> sem cell plumbing ----------------------------------------------


def sem_cell(raw_cell, n_dims: int) -> Cell:
    """Normalize a user-facing cell into sem form (labels + ALL)."""
    if len(raw_cell) != n_dims:
        raise QueryError(
            f"query cell {raw_cell!r} has {len(raw_cell)} positions, "
            f"store has {n_dims} dimensions"
        )
    return tuple(
        ALL if (v is ALL or v is None or v == "*") else v for v in raw_cell
    )


def decode_sem(sem: Cell) -> tuple:
    """Sem form to the user-facing convention (ALL becomes ``"*"``)."""
    return tuple("*" if v is ALL else v for v in sem)


def raw_sort_key(sem: Cell) -> tuple:
    """Dictionary order on sem cells: ``*`` before every concrete label.

    The raw-label analogue of :func:`~repro.core.cells.dict_sort_key`
    (which orders encoded cells); label comparison tolerates mixed types
    the way the per-table dictionaries do.
    """
    return tuple(
        (0,) if v is ALL else (1,) + _label_sort_key(v) for v in sem
    )


def _encode(piece: PieceView, sem: Cell) -> Optional[Cell]:
    """Encode a sem cell into one piece's dictionaries, or None when a
    label is absent there (that piece holds no covered rows)."""
    try:
        return piece.table.encode_cell(sem)
    except SchemaError:
        return None


def _knows(piece: PieceView, dim: int, label) -> bool:
    try:
        piece.table.encode_value(dim, label)
    except SchemaError:
        return False
    return True


def _decode_to_sem(piece: PieceView, cell: Cell) -> Cell:
    return tuple(
        ALL if v is ALL else piece.table.decode_value(j, v)
        for j, v in enumerate(cell)
    )


# -- the two gather primitives ----------------------------------------------


def _piece_probe(piece: PieceView, sem: Cell):
    """Locate a cell's class within one piece: ``(sem ub, state)`` or None."""
    cell = _encode(piece, sem)
    if cell is None:
        return None
    node = locate(piece.tree, cell)
    if node is None:
        return None
    return (
        _decode_to_sem(piece, piece.tree.upper_bound_of(node)),
        piece.tree.state[node],
    )


def union_class_probe(pieces, aggregate, sem: Cell):
    """The union cube's class of a cell: ``(sem ub, merged state)`` or None.

    The union upper bound is the meet of the contributing segments'
    bounds (``cl_U = meet of cl_s``); the state merges over them —
    disjoint row sets, so the merge is exact for every aggregate.
    """
    ub = None
    state = None
    for piece in pieces:
        hit = _piece_probe(piece, sem)
        if hit is None:
            continue
        piece_ub, piece_state = hit
        ub = piece_ub if ub is None else meet(ub, piece_ub)
        state = (
            piece_state if state is None
            else aggregate.merge(state, piece_state)
        )
    if state is None:
        return None
    return ub, state


def _range_states(tree, spec) -> dict:
    """Algorithm 4 over one tree, keeping each point cell's mergeable
    class *state* (what cross-segment gathering needs) where
    :func:`~repro.core.range_query.range_query` extracts the value —
    both read the one :func:`~repro.core.range_query.range_classes`
    walk."""
    state = tree.state
    return {
        cell: state[node]
        for cell, node in range_classes(tree, spec).items()
    }


# -- query families ----------------------------------------------------------


def scatter_point(pieces, aggregate, raw_cell):
    """Point query across segments; None when no segment covers the cell."""
    sem = sem_cell(raw_cell, pieces[0].table.n_dims)
    hit = union_class_probe(pieces, aggregate, sem)
    if hit is None:
        return None
    return aggregate.value(hit[1])


def scatter_range(pieces, aggregate, raw_spec) -> dict:
    """Range query across segments: ``{decoded point cell: value}``.

    Each segment encodes the spec into its own dictionaries: candidate
    labels missing from a segment contribute nothing there, and a
    dimension whose candidates are missing from *every* segment leaves
    every segment out, so the range is empty (monolithic semantics).
    """
    gathered: dict = {}
    for piece in pieces:
        encoded = encode_range(piece.table, raw_spec)
        if encoded is None:
            continue
        for cell, state in _range_states(piece.tree, encoded).items():
            sem = _decode_to_sem(piece, cell)
            prior = gathered.get(sem)
            gathered[sem] = (
                state if prior is None else aggregate.merge(prior, state)
            )
    return {
        decode_sem(sem): aggregate.value(state)
        for sem, state in gathered.items()
    }


def _class_states(piece: PieceView) -> dict:
    """All class bounds of one piece, in sem form, with their states."""
    tree = piece.tree
    return {
        _decode_to_sem(piece, tree.upper_bound_of(node)): tree.state[node]
        for node, st in enumerate(tree.state)
        if st is not None
    }


def _union_table(pieces):
    """An ephemeral base table over every piece's rows, re-encoded into
    one shared label dictionary (raw records carry their measures)."""
    records = []
    for piece in pieces:
        records.extend(piece.table.iter_records())
    return BaseTable.from_records(records, pieces[0].table.schema)


def scatter_iceberg(pieces, aggregate, threshold, op: str = ">=") -> list:
    """Pure iceberg across segments: ``[(decoded ub, value), ...]``.

    An iceberg must enumerate *every* union class bound, and the union's
    bounds are not the union of per-segment bounds (see module
    docstring) — saturating per-segment bounds under pairwise meets
    would generate them all, but the fixpoint explodes combinatorially
    at real class counts.  Instead the union's classes are enumerated
    the way construction does (the cover-partition DFS of Algorithm 1)
    over the concatenated rows, which bounds a cold iceberg at one
    cube-enumeration pass; with a single populated piece its own class
    list is used directly.  Warehouse-level callers cache the answer
    under the serving stamp, so repeats are free until the next write.
    """
    live = [piece for piece in pieces if piece.table.n_rows]
    out = []
    if len(live) == 1:
        candidates = _class_states(live[0]).items()
    elif live:
        union = _union_table(live)
        states = class_states(union, aggregate)
        candidates = (
            (
                tuple(
                    ALL if v is ALL else union.decode_value(j, v)
                    for j, v in enumerate(ub)
                ),
                state,
            )
            for ub, state in states.items()
        )
    else:
        candidates = ()
    for sem, state in candidates:
        value = aggregate.value(state)
        if _satisfies(aggregate.rank(value), threshold, op):
            out.append((sem, value))
    out.sort(key=lambda pair: raw_sort_key(pair[0]))
    return [(decode_sem(ub), value) for ub, value in out]


# -- exploration: the union as a cube -----------------------------------------


class UnionCube:
    """The union of several pieces as a cube, in raw-label ("sem") space
    — the many-piece counterpart of :class:`~repro.core.explore.TreeCube`
    behind the one exploration implementation
    (:mod:`repro.core.explore`), with :func:`union_class_probe` standing
    in for ``locate``."""

    __slots__ = ("pieces", "aggregate")

    sort_key = staticmethod(raw_sort_key)
    decode = staticmethod(decode_sem)

    def __init__(self, pieces, aggregate):
        self.pieces = pieces
        self.aggregate = aggregate

    def encode(self, raw_cell) -> Cell:
        """Sem form of a user-facing cell, with the monolithic
        ``encode_cell`` error contract: :class:`SchemaError` for a wrong
        arity, or for a label unknown to *every* piece — the union
        dictionary does not contain it."""
        n_dims = self.pieces[0].table.n_dims
        if len(raw_cell) != n_dims:
            raise SchemaError(
                f"cell {raw_cell!r} has {len(raw_cell)} positions, "
                f"store has {n_dims} dimensions"
            )
        sem = sem_cell(raw_cell, n_dims)
        for j, v in enumerate(sem):
            if v is not ALL and not any(
                _knows(piece, j, v) for piece in self.pieces
            ):
                raise SchemaError(
                    f"unknown label {v!r} in dimension {j} (no segment "
                    f"dictionary contains it)"
                )
        return sem

    def probe(self, sem: Cell):
        hit = union_class_probe(self.pieces, self.aggregate, sem)
        if hit is None:
            return None
        return hit[0], self.aggregate.value(hit[1])

    def cover_values(self, ub: Cell, dim: int) -> set:
        """Raw labels appearing at ``dim`` among the union's rows covered
        by ``ub`` (drill-down candidate enumeration)."""
        values: set = set()
        for piece in self.pieces:
            cell = _encode(piece, ub)
            if cell is None:
                continue
            table = piece.table
            values.update(
                table.decode_value(dim, table.rows[i][dim])
                for i in table.select(cell)
            )
        return values

    def lower_bounds(self, ub: Cell) -> list:
        """True lower bounds of the union class at ``ub``.

        The difference-set family of :func:`~repro.cube.quotient.
        class_lower_bounds` is label-local — ``D_t = {j : ub[j] != * and
        ub[j] != t[j]}`` — so per-segment families computed in each
        segment's own encoding union into exactly the monolithic family.
        """
        difference_sets: set = set()
        for piece in self.pieces:
            table = piece.table
            targets = []
            for j, v in enumerate(ub):
                if v is ALL:
                    targets.append(ALL)
                else:
                    try:
                        targets.append(table.encode_value(j, v))
                    except SchemaError:
                        targets.append(_MISSING)
            for row in table.rows:
                diff = frozenset(
                    j
                    for j, t in enumerate(targets)
                    if t is not ALL and (t is _MISSING or t != row[j])
                )
                if diff:
                    difference_sets.add(diff)
                # An empty diff means the row is inside cov(ub): not an
                # outside tuple, contributes no constraint.
        return lower_bounds_from_difference_sets(ub, difference_sets)


_MISSING = object()
