"""Scatter-gather query answering over a set of QC-tree segments.

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

Every function here reproduces the corresponding monolithic answer
*answer-for-answer* (the differential oracle in
``tests/test_segments_oracle.py`` holds this to account).
"""

from __future__ import annotations

from typing import Optional

from repro.core.cells import ALL, Cell, meet
from repro.core.classes import enumerate_temp_classes
from repro.core.iceberg import _satisfies
from repro.core.point_query import locate
from repro.core.range_query import encode_range, range_classes
from repro.cube.aggregates import values_close
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


def _decode_to_sem(piece: PieceView, cell: Cell) -> Cell:
    return tuple(
        ALL if v is ALL else piece.table.decode_value(j, v)
        for j, v in enumerate(cell)
    )


def _label_known(pieces, dim: int, label) -> bool:
    for piece in pieces:
        try:
            piece.table.encode_value(dim, label)
            return True
        except SchemaError:
            continue
    return False


def check_labels(pieces, sem: Cell) -> None:
    """Raise :class:`SchemaError` when a label is unknown to *every*
    segment — the union dictionary does not contain it, matching the
    monolithic ``encode_cell`` failure the exploration API surfaces."""
    for j, v in enumerate(sem):
        if v is ALL:
            continue
        if not _label_known(pieces, j, v):
            raise SchemaError(
                f"unknown label {v!r} in dimension {j} (no segment "
                f"dictionary contains it)"
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
    n_dims = pieces[0].table.n_dims
    if len(raw_spec) != n_dims:
        raise QueryError(
            f"range query {raw_spec!r} has {len(raw_spec)} positions, "
            f"store has {n_dims} dimensions"
        )
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


def scatter_iceberg(pieces, aggregate, threshold, op: str = ">=",
                    keyfn=None) -> list:
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
    under the (generation, lsn) key, so repeats are free until the next
    write.
    """
    if keyfn is None:
        keyfn = lambda value: value  # noqa: E731
    live = [piece for piece in pieces if piece.table.n_rows]
    out = []
    if len(live) == 1:
        candidates = _class_states(live[0]).items()
    elif live:
        union = _union_table(live)
        states: dict = {}
        for temp in enumerate_temp_classes(union, aggregate):
            # Redundant rediscoveries repeat an upper bound with the
            # same cover, hence the same state — first record wins.
            states.setdefault(temp.upper_bound, temp.state)
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
        if _satisfies(keyfn(value), threshold, op):
            out.append((sem, value))
    out.sort(key=lambda pair: raw_sort_key(pair[0]))
    return [(decode_sem(ub), value) for ub, value in out]


def scatter_iceberg_in_range(pieces, aggregate, raw_spec, threshold,
                             op: str = ">=", keyfn=None) -> dict:
    """Constrained iceberg across segments: ``{decoded cell: value}``.

    The paper's two plans (filter / mark) return identical answers, so
    the gathered form is always range-then-threshold over merged values.
    """
    if keyfn is None:
        keyfn = lambda value: value  # noqa: E731
    results = scatter_range(pieces, aggregate, raw_spec)
    return {
        cell: value
        for cell, value in results.items()
        if _satisfies(keyfn(value), threshold, op)
    }


# -- exploration -------------------------------------------------------------


def _require_class(pieces, aggregate, raw_cell):
    """Shared exploration entry: sem cell -> (sem ub, state), with the
    monolithic error contract (SchemaError for labels unknown to the
    union, QueryError for cells outside the cube)."""
    n_dims = pieces[0].table.n_dims
    if len(raw_cell) != n_dims:
        raise SchemaError(
            f"cell {raw_cell!r} has {len(raw_cell)} positions, "
            f"store has {n_dims} dimensions"
        )
    sem = sem_cell(raw_cell, n_dims)
    check_labels(pieces, sem)
    hit = union_class_probe(pieces, aggregate, sem)
    if hit is None:
        raise QueryError(f"cell {raw_cell!r} is not in the cube")
    return sem, hit


def scatter_class_of(pieces, aggregate, raw_cell):
    """``(decoded upper bound, value)`` of a cell's union class, or None."""
    n_dims = pieces[0].table.n_dims
    if len(raw_cell) != n_dims:
        raise SchemaError(
            f"cell {raw_cell!r} has {len(raw_cell)} positions, "
            f"store has {n_dims} dimensions"
        )
    sem = sem_cell(raw_cell, n_dims)
    check_labels(pieces, sem)
    hit = union_class_probe(pieces, aggregate, sem)
    if hit is None:
        return None
    ub, state = hit
    return decode_sem(ub), aggregate.value(state)


def _closures_below(pieces, aggregate, bound: Cell) -> dict:
    """Union classes that are closures of generalizations of ``bound``:
    ``{sem ub: merged state}`` — the scatter analogue of
    :func:`repro.core.maintenance.insert.closures_below`, with
    :func:`union_class_probe` standing in for ``locate``."""
    found: dict = {}
    n_dims = len(bound)

    def rec(cell: Cell) -> None:
        hit = union_class_probe(pieces, aggregate, cell)
        if hit is None:
            return
        ub, state = hit
        if ub in found:
            return
        found[ub] = state
        for j in range(n_dims):
            if ub[j] is ALL and bound[j] is not ALL:
                rec(ub[:j] + (bound[j],) + ub[j + 1:])

    rec((ALL,) * n_dims)
    return found


def scatter_rollup(pieces, aggregate, raw_cell, rel_tol: float = 1e-9) -> list:
    """Intelligent roll-up across segments, most-general-first."""
    _, (start_ub, start_state) = _require_class(pieces, aggregate, raw_cell)
    value = aggregate.value(start_state)
    matches = [
        (ub, aggregate.value(state))
        for ub, state in _closures_below(pieces, aggregate, start_ub).items()
        if values_close(aggregate.value(state), value, rel_tol=rel_tol)
    ]
    matches.sort(key=lambda pair: (
        len([v for v in pair[0] if v is not ALL]), raw_sort_key(pair[0])
    ))
    return [(decode_sem(ub), v) for ub, v in matches]


def scatter_rollup_exceptions(pieces, aggregate, raw_cell,
                              rel_tol: float = 1e-9) -> list:
    """Classes in the roll-up region whose value breaks from the cell's."""
    _, (start_ub, start_state) = _require_class(pieces, aggregate, raw_cell)
    value = aggregate.value(start_state)
    out = [
        (ub, aggregate.value(state))
        for ub, state in _closures_below(pieces, aggregate, start_ub).items()
        if not values_close(aggregate.value(state), value, rel_tol=rel_tol)
    ]
    out.sort(key=lambda pair: raw_sort_key(pair[0]))
    return [(decode_sem(ub), v) for ub, v in out]


def _cover_values(pieces, ub: Cell, dim: int) -> set:
    """Raw labels appearing at ``dim`` among the union's rows covered by
    ``ub`` (drill-down candidate enumeration)."""
    values: set = set()
    for piece in pieces:
        cell = _encode(piece, ub)
        if cell is None:
            continue
        rows = piece.table.select(cell)
        values.update(
            piece.table.decode_value(dim, piece.table.rows[i][dim])
            for i in rows
        )
    return values


def scatter_drilldowns(pieces, aggregate, raw_cell) -> list:
    """One-step drill-down classes from a cell's union class."""
    _, (ub, _state) = _require_class(pieces, aggregate, raw_cell)
    seen: dict = {}
    for j, v in enumerate(ub):
        if v is not ALL:
            continue
        for value in _cover_values(pieces, ub, j):
            hit = union_class_probe(
                pieces, aggregate, ub[:j] + (value,) + ub[j + 1:]
            )
            if hit is None:
                continue
            tub, tstate = hit
            if tub != ub:
                seen.setdefault(tub, aggregate.value(tstate))
    out = sorted(seen.items(), key=lambda pair: raw_sort_key(pair[0]))
    return [(decode_sem(tub), v) for tub, v in out]


def _union_lower_bounds(pieces, ub: Cell) -> list:
    """True lower bounds of the union class at ``ub``.

    The difference-set family of :func:`~repro.cube.quotient.
    class_lower_bounds` is label-local — ``D_t = {j : ub[j] != * and
    ub[j] != t[j]}`` — so per-segment families computed in each segment's
    own encoding union into exactly the monolithic family.
    """
    difference_sets: set = set()
    for piece in pieces:
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


def scatter_rollups(pieces, aggregate, raw_cell) -> list:
    """One-step roll-up classes from a cell's union class.

    Like the monolithic :func:`~repro.core.explore.lattice_rollups` with
    a table: members are enumerated exactly from the class's true lower
    bounds, so children entered through non-upper-bound members are
    found.
    """
    _, (ub, _state) = _require_class(pieces, aggregate, raw_cell)
    from repro.core.explore import _interval_union_members

    lowers = _union_lower_bounds(pieces, ub)
    members = list(_interval_union_members(lowers, ub))
    seen: dict = {}
    for member in members:
        for j, v in enumerate(member):
            if v is ALL:
                continue
            hit = union_class_probe(
                pieces, aggregate, member[:j] + (ALL,) + member[j + 1:]
            )
            if hit is None:
                continue
            tub, tstate = hit
            if tub != ub:
                seen.setdefault(tub, aggregate.value(tstate))
    out = sorted(seen.items(), key=lambda pair: raw_sort_key(pair[0]))
    return [(decode_sem(tub), v) for tub, v in out]


def scatter_open_class(pieces, aggregate, raw_cell) -> dict:
    """Drill into a union class: upper bound, lower bounds, members."""
    _, (ub, state) = _require_class(pieces, aggregate, raw_cell)
    from repro.core.explore import _interval_union_members

    lowers = _union_lower_bounds(pieces, ub)
    members = sorted(_interval_union_members(lowers, ub), key=raw_sort_key)
    return {
        "upper_bound": decode_sem(ub),
        "lower_bounds": [decode_sem(lb) for lb in lowers],
        "members": [decode_sem(m) for m in members],
        "value": aggregate.value(state),
    }
