"""Cell algebra for data-cube lattices.

A *cell* is a tuple over the cube's dimensions where any position may hold
the special marker :data:`ALL` (printed ``*``), meaning "aggregated over this
dimension".  Base-table tuples are cells with no :data:`ALL` positions.

The partial order used throughout the package matches the paper's lattice
(base tuples drawn on top): ``c <= d`` iff ``c`` *generalizes* ``d``, i.e.
``c`` can be obtained from ``d`` by replacing some values with ``*``.  More
general cells cover more base tuples.

Everything in this module is pure and allocation-light: cells are plain
tuples, so they hash, compare and store cheaply.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Iterator, Sequence


class _AllType:
    """Singleton marker for the aggregated value ``*`` in a cell.

    A dedicated type (rather than ``None``) keeps cells self-describing and
    avoids collisions with missing-measure semantics.  The singleton sorts
    and formats consistently and is safe to pickle.
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "*"

    def __reduce__(self):
        return (_AllType, ())


#: The unique ``*`` marker used inside cells.
ALL = _AllType()

#: Type alias for a cell: a tuple over ``int | ALL``.
Cell = tuple


def is_all(value) -> bool:
    """Return True iff ``value`` is the :data:`ALL` marker."""
    return value is ALL


def all_cell(n_dims: int) -> Cell:
    """Return the most general cell ``(*, *, ..., *)`` over ``n_dims`` dimensions."""
    return (ALL,) * n_dims


def is_base(cell: Cell) -> bool:
    """Return True iff ``cell`` has no ``*`` position (it is a base tuple)."""
    return all(v is not ALL for v in cell)


def star_count(cell: Cell) -> int:
    """Return the number of ``*`` positions in ``cell``."""
    return sum(1 for v in cell if v is ALL)


def nonstar_positions(cell: Cell) -> tuple:
    """Return the indices of the non-``*`` dimensions of ``cell``, ascending."""
    return tuple(j for j, v in enumerate(cell) if v is not ALL)


def covers(cell: Cell, base_tuple: Sequence) -> bool:
    """Return True iff ``cell`` covers ``base_tuple``.

    ``cell`` covers a fully-specified base tuple whenever it agrees with the
    tuple on every non-``*`` dimension (there is a roll-up path from the
    tuple to the cell).
    """
    return all(v is ALL or v == t for v, t in zip(cell, base_tuple))


def generalizes(c: Cell, d: Cell) -> bool:
    """Return True iff ``c <= d``: ``c`` generalizes ``d`` (or equals it).

    Every non-``*`` value of ``c`` must appear unchanged in ``d``.
    """
    return all(cv is ALL or cv == dv for cv, dv in zip(c, d))


def strictly_generalizes(c: Cell, d: Cell) -> bool:
    """Return True iff ``c < d`` in the generalization order."""
    return c != d and generalizes(c, d)


def comparable(c: Cell, d: Cell) -> bool:
    """Return True iff ``c`` and ``d`` are comparable in the lattice order."""
    return generalizes(c, d) or generalizes(d, c)


def meet(c: Cell, d: Cell) -> Cell:
    """Return the meet ``c ∧ d``: the most specific common generalization.

    Componentwise, the meet keeps a value exactly where ``c`` and ``d``
    agree on a non-``*`` value, and is ``*`` elsewhere.  This matches the
    paper's ``t ∧ ub`` operator used by incremental insertion.
    """
    return tuple(
        cv if (cv is not ALL and cv == dv) else ALL for cv, dv in zip(c, d)
    )


def meet_of_tuples(rows: Iterable[Sequence]) -> Cell:
    """Return the meet of an iterable of base tuples.

    This is the closure core: the most specific cell covering all ``rows``.
    Raises :class:`ValueError` on an empty iterable because the meet of
    nothing is undefined (it would be the ``false`` top cell).
    """
    it = iter(rows)
    try:
        first = next(it)
    except StopIteration:
        raise ValueError("meet_of_tuples() requires at least one row")
    out = list(first)
    live = list(range(len(out)))
    for row in it:
        keep = []
        for j in live:
            if out[j] == row[j]:
                keep.append(j)
            else:
                out[j] = ALL
        live = keep
        if not live:
            break  # fully generalized; later rows cannot change anything
    return tuple(out)


def specialize(cell: Cell, dim: int, value) -> Cell:
    """Return ``cell`` with dimension ``dim`` set to ``value``."""
    return cell[:dim] + (value,) + cell[dim + 1:]


def truncate(cell: Cell, before_dim: int) -> Cell:
    """Keep ``cell``'s values strictly before ``before_dim``; ``*`` after."""
    return tuple(v if d < before_dim else ALL for d, v in enumerate(cell))


def generalizations(cell: Cell) -> Iterator[Cell]:
    """Yield every generalization of ``cell`` (including ``cell`` itself).

    There are ``2**k`` of them for ``k`` non-``*`` dimensions; intended for
    small oracle computations only.
    """
    positions = nonstar_positions(cell)
    for r in range(len(positions) + 1):
        for subset in combinations(positions, r):
            out = list(cell)
            for j in subset:
                out[j] = ALL
            yield tuple(out)


def closures_below(probe, bound: Cell) -> dict:
    """Classes that are closures of generalizations of ``bound``.

    ``probe(cell)`` is a cube's closure operator: ``(upper bound,
    payload)`` of the class containing ``cell``, or None when the cell is
    empty.  Returns ``{upper_bound: payload}``.  The walk starts at the
    fully general cell and repeatedly jumps to closures, specializing one
    dimension of ``bound`` at a time — each distinct class is visited
    once, mirroring the construction DFS's pruning — so it never touches
    base rows and works in any cell space (dictionary codes over one
    tree, raw labels over a union of pieces).
    """
    found: dict = {}
    n_dims = len(bound)

    def rec(cell: Cell) -> None:
        hit = probe(cell)
        if hit is None:
            return
        ub, payload = hit
        if ub in found:
            return
        found[ub] = payload
        for j in range(n_dims):
            if ub[j] is ALL and bound[j] is not ALL:
                rec(ub[:j] + (bound[j],) + ub[j + 1:])

    rec((ALL,) * n_dims)
    return found


def dict_sort_key(cell: Cell) -> tuple:
    """Return a sort key realizing the paper's dictionary order on cells.

    Dimension values are compared left to right with ``*`` preceding every
    concrete value.  Dimension values are dictionary-encoded non-negative
    ints, so mapping ``*`` to ``-1`` yields exactly that order.
    """
    return tuple(-1 if v is ALL else v for v in cell)


def format_cell(cell: Cell, decoder=None) -> str:
    """Render ``cell`` like the paper, e.g. ``(S1, *, s)``.

    ``decoder`` is an optional callable ``(dim_index, code) -> str`` used to
    translate dictionary codes back to labels (see
    :meth:`repro.cube.table.BaseTable.decode_value`).
    """
    parts = []
    for j, v in enumerate(cell):
        if v is ALL:
            parts.append("*")
        elif decoder is None:
            parts.append(str(v))
        else:
            parts.append(str(decoder(j, v)))
    return "(" + ", ".join(parts) + ")"
