"""Cover-partition depth-first search (Function ``DFS`` of Algorithm 1).

The DFS walks the cube lattice once per cover-equivalence class (plus a
bounded number of *redundant* rediscoveries, kept deliberately because each
one records a drill-down relationship that becomes a QC-tree link).  For
every visited cell it records a :class:`TempClass` holding:

* ``lower_bound`` — the cell the search arrived at,
* ``upper_bound`` — the class upper bound, obtained by "jumping" to the
  closure: any ``*`` dimension in which every tuple of the cell's partition
  shares one value gets that value,
* ``child_id`` — the temp class of the caller (the *lattice child*, i.e.
  the one-step-more-general class the search drilled down from),
* ``state`` — the aggregate state of the partition.

Pruning rule (step 4 of the paper's Function DFS): if the closure filled a
dimension *before* the dimension just instantiated, this class has already
been expanded from an earlier branch, so the class is recorded (for its
link) but not expanded further.  Such a rediscovery covers its class's
rows, so its state is the first discovery's: states are computed for the
expanded records only.

The search runs one DFS level at a time over the table's ``int32`` code
matrix (``*`` is -1).  A level holds one row segment per temp class, its
rows ascending.  A closure is a ``minimum`` and a ``maximum.reduceat``
(a dimension joins the upper bound where they agree), pruning is a mask,
and every (segment, open dimension) pair is split by one sort of
``(pair, value, row)`` keys, so a level lists its classes by (parent,
dimension, value).  Class ids are the recursive search's preorder,
computed after the last level from subtree sizes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.cells import ALL, Cell
from repro.cube.aggregates import make_aggregate
from repro.cube.table import BaseTable

#: Most rows a closure, states or split step holds at once: the working
#: arrays stay small whatever the table's size.
_CHUNK = 1 << 15


@dataclass
class TempClass:
    """One temporary class recorded by the DFS (row of the paper's Fig. 6)."""

    class_id: int
    upper_bound: Cell
    lower_bound: Cell
    child_id: int
    state: object

    def __repr__(self):
        return (
            f"TempClass(i{self.class_id}, ub={self.upper_bound}, "
            f"lb={self.lower_bound}, child=i{self.child_id})"
        )


def _runs(ends):
    """``(first, stop, base)`` runs of the items whose sizes add up to
    ``ends``, each of at most ``_CHUNK`` entries (or one larger item);
    ``base`` is the sum of the sizes before the run."""
    first = 0
    while first < len(ends):
        base = int(ends[first - 1]) if first else 0
        stop = max(int(np.searchsorted(ends, base + _CHUNK, "right")),
                   first + 1)
        yield first, stop, base
        first = stop


def _split(codes, card, rows, starts, seg, dim):
    """Cut segment ``seg[p]`` by its values in dimension ``dim[p]``, for
    every pair ``p``: returns the pieces as ``(rows, starts, pair,
    value)``, ordered by (pair, value), each piece's rows ascending.
    Codes are below ``card``."""
    lengths = np.diff(np.append(starts, len(rows)))[seg]
    ends = np.cumsum(lengths)
    pieces = []
    for p0, p1, base in _runs(ends):
        sizes = lengths[p0:p1]
        total = int(ends[p1 - 1]) - base
        pair = np.repeat(np.arange(p1 - p0), sizes)
        at = np.arange(total)
        r = rows[at + np.repeat(
            starts[seg[p0:p1]] - (ends[p0:p1] - sizes - base), sizes)]
        # A pair's entries are its segment's rows in order, so the
        # entry index breaks value ties in row order.
        key = (pair * card + codes[r, dim[p0:p1][pair]]) * total + at
        key.sort()
        group = key // total
        cut = np.flatnonzero(np.diff(group)) + 1
        first = group[np.append(0, cut)]
        pieces.append((r[key - group * total], np.append(0, cut) + base,
                       first // card + p0, first % card))
    return tuple(np.concatenate(column) for column in zip(*pieces))


def _states(states_of, rows, lengths, keep) -> list:
    """The states of the segments ``keep`` marks, None for the others,
    a ``_CHUNK`` of rows at a time."""
    states = [None] * len(keep)
    kept = np.flatnonzero(keep)
    rows, ends = rows[np.repeat(keep, lengths)], np.cumsum(lengths[kept])
    for s0, s1, base in _runs(ends):
        at = ends[s0:s1] - lengths[kept[s0:s1]] - base
        for i, state in zip(kept[s0:s1].tolist(),
                            states_of(rows[base:ends[s1 - 1]], at)):
            states[i] = state
    return states


def temp_class_arrays(table: BaseTable, agg) -> tuple:
    """The DFS's temp classes as arrays, in class-id order.

    Returns ``(upper, lower, child, states)``: ``upper`` and ``lower``
    are ``(classes, dims)`` ``int32`` code matrices with -1 for ``*``,
    ``child`` holds each lattice child's class id (-1 for the root
    class) and ``states`` is a list, None at a pruned rediscovery (the
    first record of its upper bound carries the state).  An empty table
    has no classes.
    """
    n, n_dims = table.n_rows, table.n_dims
    if not n:
        return (*np.zeros((2, 0, n_dims), np.int32), np.zeros(0, np.int64), [])
    codes = np.asarray(table.codes, dtype=np.int32)
    card = int(codes.max()) + 1
    dims = np.arange(n_dims)
    rows = np.arange(n, dtype=np.int32)
    starts = np.zeros(1, dtype=np.intp)
    lower = np.full((1, n_dims), -1, dtype=np.int32)
    k = np.zeros(1, dtype=np.intp)  # the first dimension a class may open
    parent = np.full(1, -1, dtype=np.intp)
    states_of = agg.states(table)
    levels = []
    while True:
        upper = np.empty_like(lower)
        ends = np.append(starts[1:], len(rows))
        for s0, s1, base in _runs(ends):
            part, at = rows[base:ends[s1 - 1]], starts[s0:s1] - base
            sub = codes[part]
            low = np.minimum.reduceat(sub, at)
            upper[s0:s1] = np.where(
                low == np.maximum.reduceat(sub, at), low, -1)
        before = dims < k[:, None]
        pruned = ((lower < 0) & (upper >= 0) & before).any(axis=1)
        levels.append((upper, lower, parent,
                       _states(states_of, rows, ends - starts, ~pruned)))
        seg, dim = np.nonzero((upper < 0) & ~before & ~pruned[:, None])
        if not len(seg):
            break
        rows, starts, pair, value = _split(codes, card, rows, starts, seg, dim)
        parent, dim = seg[pair], dim[pair]
        lower = upper[parent]
        lower[np.arange(len(dim)), dim] = value
        k = dim + 1

    # Preorder: a class's id is its parent's plus one plus the subtree
    # sizes of its elder siblings (a level lists siblings together).
    sizes = [np.ones(len(levels[-1][2]), dtype=np.int64)]
    for depth in range(len(levels) - 1, 0, -1):
        sizes.insert(0, 1 + np.bincount(
            levels[depth][2], sizes[0], len(levels[depth - 1][2])
        ).astype(np.int64))
    m = int(sizes[0][0])  # the root's subtree holds every class
    upper, lower = np.empty((2, m, n_dims), dtype=np.int32)
    child, states, ids = np.full(m, -1), [None] * m, np.zeros(1, np.int64)
    for (up, low, parent, level_states), size in zip(levels, sizes):
        if parent[0] >= 0:  # below the root
            elder = np.cumsum(size) - size
            child_ids = ids[parent]
            ids = child_ids + 1 + elder - elder[np.searchsorted(parent, parent)]
            child[ids] = child_ids
        upper[ids], lower[ids] = up, low
        for i, state in zip(ids.tolist(), level_states):
            states[i] = state
    return upper, lower, child, states


def _cells(codes) -> list:
    """The rows of an ``int32`` code matrix as cells (-1 becomes ``*``)."""
    out = codes.astype(object)
    out[codes < 0] = ALL
    return list(map(tuple, out.tolist()))


def enumerate_temp_classes(table: BaseTable, aggregate="count") -> list:
    """Run the cover-partition DFS over ``table`` and return its temp classes.

    ``aggregate`` is any spec accepted by
    :func:`repro.cube.aggregates.make_aggregate`.

    An empty table produces no classes (the quotient cube of an empty cube
    is empty apart from the ``false`` class, which is never stored).
    """
    upper, lower, child, states = temp_class_arrays(
        table, make_aggregate(aggregate))
    bounds = _cells(upper)
    # Each bound's first record (the one with a state) is written last.
    first = dict(zip(reversed(bounds), reversed(states)))
    return [
        TempClass(i, ub, lb, c, first[ub])
        for i, (ub, lb, c) in enumerate(zip(
            bounds, _cells(lower), child.tolist()))
    ]


def class_states(table: BaseTable, aggregate="count") -> dict:
    """``{upper bound: state}`` of every class of ``table``, in the order
    the DFS first reaches each (a rediscovery covers the same rows, so
    it carries the same state)."""
    upper, _, _, states = temp_class_arrays(table, make_aggregate(aggregate))
    if not states:
        return {}
    first = np.sort(np.unique(upper, axis=0, return_index=True)[1])
    return dict(zip(_cells(upper[first]),
                    [states[i] for i in first.tolist()]))

