"""Range-query answering on a QC-tree (Algorithm 4 of the paper).

A range query fixes some dimensions, leaves some at ``*``, and gives a
*set* of candidate values for the rest (which handles both numeric
intervals and hierarchical value lists).  The answer maps every point cell
inside the range that exists in the cube to its aggregate value.

The naive plan — expand the range into point queries — re-walks shared
prefixes once per point.  Algorithm 4 instead expands one range dimension
at a time during a single traversal: as soon as a partial assignment
cannot be routed any further, the whole sub-space of completions is pruned
(the paper's Example 6).

That traversal exists once, :func:`expand_range`, parameterized by the
routing step.  :func:`range_classes` runs it with the tree's own
``search_route`` and finishes each cell with its ``descend_to_class``
(every tree has both: the dict tree borrows the protocol reference of
:mod:`repro.core.point_query`, the array tree walks its sections), and
returns ``{point cell: class node}``, of which :func:`range_query`
(values) and the segment scatter-gather (mergeable states) are thin
consumers.  The constrained-iceberg *mark* plan runs
:func:`expand_range` too, with ``tree.search_route`` pruned to the nodes
that can reach a satisfying class.  Likewise the raw-label → code loop
of every raw range entry point is the one :func:`encode_range`.
"""

from __future__ import annotations

from repro.core.cells import ALL, generalizes
from repro.core.point_query import point_query
from repro.core.qctree import QCTree
from repro.errors import QueryError


class RangeQuery:
    """A parsed range query over ``n_dims`` dimensions.

    ``spec`` positions may be :data:`ALL` (unconstrained), a single value,
    or an iterable of candidate values (a *range dimension*).
    """

    def __init__(self, spec, n_dims: int):
        if len(spec) != n_dims:
            raise QueryError(
                f"range query {spec!r} has {len(spec)} positions, "
                f"expected {n_dims}"
            )
        positions = []
        for dim, entry in enumerate(spec):
            if entry is ALL:
                positions.append(ALL)
            elif isinstance(entry, (list, tuple, set, frozenset, range)):
                values = sorted(set(entry))
                if not values:
                    raise QueryError(f"empty range in dimension {dim}")
                positions.append(tuple(values))
            else:
                positions.append((entry,))
        self.positions = tuple(positions)
        self.n_dims = n_dims

    @classmethod
    def of_positions(cls, positions: tuple, n_dims: int) -> "RangeQuery":
        """A query over positions that are already normalized — each
        :data:`ALL` or a non-empty tuple of distinct values — taken as
        they are: nothing is checked or sorted again.  Candidates are
        walked in the order given; an answer is a dict, so the order
        changes nothing in it."""
        query = cls.__new__(cls)
        query.positions = positions
        query.n_dims = n_dims
        return query

    def n_points(self) -> int:
        """Number of point cells the range expands to."""
        total = 1
        for entry in self.positions:
            if entry is not ALL:
                total *= len(entry)
        return total

    def iter_points(self):
        """Yield every point cell of the range (for the naive plan/oracle)."""
        def rec(dim, prefix):
            if dim == self.n_dims:
                yield tuple(prefix)
                return
            entry = self.positions[dim]
            if entry is ALL:
                yield from rec(dim + 1, prefix + [ALL])
            else:
                for value in entry:
                    yield from rec(dim + 1, prefix + [value])

        yield from rec(0, [])


def expand_range(query: RangeQuery, root, step) -> list:
    """The Algorithm-4 traversal, written once.

    Expands one range dimension at a time from ``root``;
    ``step(node, dim, value)`` routes one value (a ``search_route``) and
    returns None to prune the whole sub-space of completions.  Returns
    ``[(point cell, node the walk stands on after its last value)]`` —
    the caller finishes each with the forced descent and verification.
    """
    positions = query.positions
    n_dims = query.n_dims
    reached: list = []

    def rec(dim: int, node, assigned: list) -> None:
        if node is None:
            return
        if dim == n_dims:
            reached.append((tuple(assigned), node))
            return
        entry = positions[dim]
        if entry is ALL:
            rec(dim + 1, node, assigned + [ALL])
            return
        for value in entry:
            rec(dim + 1, step(node, dim, value), assigned + [value])

    rec(0, root, [])
    return reached


def range_classes(tree, spec) -> dict:
    """Algorithm 4: ``{point cell: class node}`` for every point cell of
    the range that exists in the cube.

    The one walk both consumers share — :func:`range_query` reads each
    node's value, the segment scatter-gather its mergeable state.
    ``spec`` is anything :class:`RangeQuery` accepts.
    """
    query = spec if isinstance(spec, RangeQuery) else RangeQuery(spec, tree.n_dims)
    descend = tree.descend_to_class
    found: dict = {}
    for cell, node in expand_range(query, tree.root, tree.search_route):
        node = descend(node)
        if node is not None and generalizes(cell, tree.upper_bound_of(node)):
            found[cell] = node
    return found


def range_query(tree: QCTree, spec) -> dict:
    """Answer a range query: ``{point cell: aggregate value}``.

    ``spec`` is anything :class:`RangeQuery` accepts.  Cells whose cover
    set is empty are absent from the result.
    """
    value_at = tree.value_at
    return {
        cell: value_at(node)
        for cell, node in range_classes(tree, spec).items()
    }


def range_query_naive(tree: QCTree, spec) -> dict:
    """Expand the range into point queries (the paper's "obvious method").

    Kept as a correctness oracle and as the baseline the benchmarks
    compare Algorithm 4 against.
    """
    query = spec if isinstance(spec, RangeQuery) else RangeQuery(spec, tree.n_dims)
    results = {}
    for cell in query.iter_points():
        value = point_query(tree, cell)
        if value is not None:
            results[cell] = value
    return results


def encode_range(table, raw_spec):
    """Encode a raw-label range spec into a :class:`RangeQuery` over
    ``table``'s codes — the one label→code loop every raw range entry
    point shares, and the only normalization a spec gets on its way to
    the walk.

    Candidate values missing from a dimension's dictionary are dropped (a
    value never loaded cannot match anything) and repeated ones kept
    once, in the order given — a spec normalized for the query cache
    (:func:`~repro.core.query_cache.normalize_range_spec`) is walked in
    its sorted order, nothing is sorted again.  Returns None when a
    dimension's candidates all vanish (the range cannot match anything).
    A spec of the wrong arity is refused here, in the caller's labels,
    before any of them is encoded.
    """
    if len(raw_spec) != table.n_dims:
        raise QueryError(
            f"range query {raw_spec!r} has {len(raw_spec)} positions, "
            f"store has {table.n_dims} dimensions"
        )
    positions = []
    for entry, codes in zip(raw_spec, table._encoders):
        if entry is ALL or entry is None or entry == "*":
            positions.append(ALL)
            continue
        # Exactly the iterable types RangeQuery.__init__ accepts; any
        # other entry is one label.
        if isinstance(entry, (list, tuple, set, frozenset, range)):
            found = tuple(dict.fromkeys(
                code for code in map(codes.get, entry) if code is not None
            ))
        else:
            code = codes.get(entry)
            found = () if code is None else (code,)
        if not found:
            return None
        positions.append(found)
    return RangeQuery.of_positions(tuple(positions), len(positions))


def range_query_raw(tree: QCTree, table, raw_spec) -> dict:
    """Range query with user-facing labels; results are decoded cells
    (see :func:`encode_range` for how unknown labels are treated)."""
    query = encode_range(table, raw_spec)
    if query is None:
        return {}
    results = range_query(tree, query)
    return {table.decode_cell(cell): value for cell, value in results.items()}
