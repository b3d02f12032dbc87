"""Point-query answering on a QC-tree (Algorithm 3 of the paper).

A point query names one cell; the answer is its aggregate value, or None
when the cell's cover set is empty (it is not in the cube).  The walk
processes the query's non-``*`` values in dimension order.  At each step
``search_route`` follows a tree edge or drill-down link carrying the value;
when neither exists, Lemma 2 applies: if the cell is in the cube, the class
upper bound *forces* a value in the last dimension for which the current
node has a child — and that dimension has exactly one child — so the walk
descends there and retries.  After the last value, the walk keeps
descending through forced dimensions until it reaches a class node.

The walk touches at most one root-to-class path, so a point query costs
O(path length), independent of the base-table size — the property the
paper's Figure 13 experiments demonstrate.

A final O(depth) verification compares the reached class's upper bound
against the query: a class can answer the query only if its bound
specializes the query cell.  For non-empty cells this always holds (the
upper bound is the cell's closure); for empty cells it never can (any
specializing class would give the cell a non-empty cover), so the check
converts every wayward walk on an empty cell into the correct None.

Node-access counting convention
-------------------------------
``counter`` (a one-element list) counts every node the walk *occupies*,
exactly once each: :func:`locate` counts the node the walk starts from
(the root), and each routing step — edge, link, or Lemma-2 forced
descent — counts the node it moves to.  A query that never leaves the
root therefore reports 1 access, and the total for any query equals the
number of distinct positions on its root-to-class walk.  The helpers
:func:`search_route` and :func:`descend_to_class` count only the nodes
they move to; counting the starting node is the caller's job.

Every tree answers Algorithm 3 itself, through the same three methods:
``locate(cell, counter)``, ``search_route(node, dim, value, counter)``
and ``descend_to_class(node, counter)``.  :func:`search_route`,
:func:`descend_to_class` and :func:`locate_generic` here are Algorithm 3
over the shared traversal protocol (``child`` / ``link_target`` /
``last_child_dim`` / ``children_in_dim`` / ``state`` /
``upper_bound_of``) and nothing else.  The mutable
:class:`~repro.core.qctree.QCTree` borrows them as its methods; the
array-backed :class:`~repro.core.frozen.FrozenQCTree` has its own walks
over its ``QCTREE/3`` sections, held to this *reference* answer for
answer and node access for node access by the parity tests (which call
``locate_generic(frozen, …)`` to run the reference on the arrays).
:func:`locate` and :func:`point_query` check the cell's arity and call
``tree.locate``.
"""

from __future__ import annotations

from typing import Optional

from repro.core.cells import ALL, Cell, generalizes
from repro.errors import QueryError


def search_route(tree, node: int, dim: int, value,
                 counter=None) -> Optional[int]:
    """One ``searchroute`` step: reach a node labeled ``(dim, value)``.

    Tries a tree edge first, then a drill-down link; otherwise falls back
    to the unique child in the node's last child-bearing dimension when
    that dimension precedes ``dim`` (Lemma 2), and retries from there.
    Returns None when the route provably cannot exist.

    ``counter`` is an optional one-element list incremented once per node
    the route *moves to* (the starting node is counted by the caller; see
    the module docstring) — the benchmarks use it to reproduce the
    paper's node-access comparison with Dwarf.
    """
    while True:
        nxt = tree.child(node, dim, value)
        if nxt is None:
            nxt = tree.link_target(node, dim, value)
        if nxt is not None:
            if counter is not None:
                counter[0] += 1
            return nxt
        last = tree.last_child_dim(node)
        if last is None or last >= dim:
            return None
        kids = tree.children_in_dim(node, last)
        if len(kids) != 1:
            return None
        node = next(iter(kids.values()))
        if counter is not None:
            counter[0] += 1


def descend_to_class(tree, node: int, counter=None) -> Optional[int]:
    """Follow forced dimensions until a class (aggregate-bearing) node.

    Used after all query values are matched: the remaining dimensions of
    the class upper bound are forced by cover equivalence, each appearing
    as the unique child in the node's last child-bearing dimension.
    ``counter`` counts each node moved to, per the module convention.
    """
    while tree.state[node] is None:
        last = tree.last_child_dim(node)
        if last is None:
            return None
        kids = tree.children_in_dim(node, last)
        if len(kids) != 1:
            return None
        node = next(iter(kids.values()))
        if counter is not None:
            counter[0] += 1
    return node


def _wrong_arity(tree, cell) -> QueryError:
    return QueryError(
        f"query cell {cell!r} has {len(cell)} positions, tree has "
        f"{tree.n_dims} dimensions"
    )


def locate(tree, cell: Cell, counter=None) -> Optional[int]:
    """Return the class node answering point query ``cell``, or None.

    The returned node's upper bound is the closure of ``cell``; None means
    the cell has an empty cover set.  ``counter`` (optional one-element
    list) accumulates node accesses per the module convention (the start
    node counts, so an all-``*`` query on a class root reports 1).  A
    cell of the wrong arity raises :class:`QueryError`; the walk is the
    tree's own ``locate``.
    """
    if len(cell) != tree.n_dims:
        raise _wrong_arity(tree, cell)
    return tree.locate(cell, counter)


def locate_generic(tree, cell: Cell, counter=None) -> Optional[int]:
    """Algorithm 3 over the shared traversal protocol only.

    :meth:`QCTree.locate <repro.core.qctree.QCTree.locate>` is this
    function; called on any other representation it runs the reference
    walk there, which is how the parity tests hold the array tree's own
    ``locate`` to it.
    """
    node = tree.root
    if counter is not None:
        counter[0] += 1
    for dim, value in enumerate(cell):
        if value is ALL:
            continue
        node = search_route(tree, node, dim, value, counter=counter)
        if node is None:
            return None
    node = descend_to_class(tree, node, counter=counter)
    if node is None:
        return None
    if not generalizes(cell, tree.upper_bound_of(node)):
        return None
    return node


def point_query(tree, cell: Cell):
    """Answer a point query: the aggregate value of ``cell`` or None —
    :func:`locate` (inlined: every read takes it) plus a value read."""
    if len(cell) != tree.n_dims:
        raise _wrong_arity(tree, cell)
    node = tree.locate(cell)
    return None if node is None else tree.value_at(node)


def point_query_raw(tree, table, raw_cell):
    """Point query with user-facing labels, e.g. ``("S1", "*", "s")``.

    Labels are encoded through ``table``'s dictionaries in one pass
    (``"*"``, None and :data:`ALL` mean any); a label absent from its
    dimension means the cell cannot be in the cube, so the answer is
    None rather than an error.  A cell of the wrong arity is a caller
    bug and raises :class:`QueryError`; an unhashable label raises
    ``TypeError``, as a dictionary lookup does.
    """
    if len(raw_cell) != tree.n_dims:
        raise _wrong_arity(tree, raw_cell)
    cell = []
    for label, codes in zip(raw_cell, table._encoders):
        if label is ALL or label is None or label == "*":
            cell.append(ALL)
        else:
            code = codes.get(label)
            if code is None:
                return None
            cell.append(code)
    node = tree.locate(cell)
    return None if node is None else tree.value_at(node)
