"""QC-tree construction from a base table (Algorithm 1 of the paper).

Construction is two-phase:

1. the cover-partition DFS (:mod:`repro.core.classes`) enumerates temporary
   classes — one per class, plus redundant rediscoveries that each encode a
   drill-down relationship;
2. temp classes are sorted by upper bound in dictionary order (``*`` before
   every concrete value, ties by class id) and inserted.  The first
   occurrence of an upper bound creates its path and stores the
   aggregate; every redundant occurrence instead contributes a drill-down
   link: from the node of its lattice child's upper bound, labeled with
   the first dimension where the child bound is ``*`` but the
   rediscovered lower bound is not, targeting the prefix of the current
   bound's path through that dimension (Definition 1, condition 4).

Both phases run on arrays.  Phase 2 is one ``lexsort``; node ids follow
from where adjacent sorted bounds first differ, and link endpoints are
looked up, never walked.  The tree is the one ``insert_path`` and
``add_link`` build record by record, node ids and dict order included.
"""

from __future__ import annotations

import numpy as np

from repro.core.cells import ALL
from repro.core.classes import temp_class_arrays
from repro.core.qctree import QCTree
from repro.cube.aggregates import make_aggregate
from repro.cube.table import BaseTable


def build_qctree(table: BaseTable, aggregate="count") -> QCTree:
    """Build the QC-tree of ``table``'s cover quotient cube.

    ``aggregate`` is any spec accepted by
    :func:`repro.cube.aggregates.make_aggregate` (e.g. ``"count"``,
    ``("avg", "Sale")``, or a list of specs for a multi-measure tree).

    The result is unique for a given table and dimension order (Theorem 1):
    permuting the input rows yields an identical tree.
    """
    agg = make_aggregate(aggregate)
    tree = QCTree(table.n_dims, agg, dim_names=table.schema.dimension_names)
    upper, lower, child, states = temp_class_arrays(table, agg)
    if not states:
        return tree
    nodes, classes, links = _insertion_plan(upper, lower, child)
    del upper, lower, child  # the tree grows into the memory they held
    ids = [tree.root]
    for p, j, v in nodes:
        ids.append(tree._new_node(ids[p], j, v))
    for n, i in classes:
        tree.set_state(ids[n], states[i])
    for s, j, v, t in links:
        tree.add_link(ids[s], j, v, ids[t])
    return tree


def _insertion_plan(upper, lower, child) -> tuple:
    """Phase 2 as the calls it makes on an empty tree: ``nodes`` yields
    ``(parent, dim, value)`` in the order ``insert_path`` mints them,
    ``classes`` ``(node, class id)`` and ``links`` ``(source, dim,
    value, target)`` in the order they are added."""
    order = np.lexsort(upper.T[::-1])  # stable: ties keep class-id order
    ub = upper[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (ub[1:] != ub[:-1]).any(axis=1)
    bounds = ub[first]
    bound_of = np.empty(len(order), dtype=np.int64)
    bound_of[order] = np.cumsum(first) - 1
    nodes, mint = _prefix_nodes(bounds)
    at, through = np.nonzero(mint)
    # A redundant record's link: the first dimension its lattice child's
    # bound leaves ``*`` and its lower bound fills.
    redundant = order[~first]
    child_bound = bound_of[child[redundant]]
    opened = (bounds[child_bound] < 0) & (lower[redundant] >= 0)
    keep = opened.any(axis=1)
    redundant, child_bound = redundant[keep], child_bound[keep]
    dim = opened[keep].argmax(axis=1)
    return (
        zip(nodes[at, through].tolist(), through.tolist(),
            bounds[at, through].tolist()),
        zip(nodes[:, -1].tolist(), order[first].tolist()),
        zip(nodes[child_bound, dim].tolist(), dim.tolist(),
            upper[redundant, dim].tolist(),
            nodes[bound_of[redundant], dim + 1].tolist()),
    )


def _prefix_nodes(bounds):
    """``(nodes, mint)`` for distinct bounds in dictionary order:
    ``nodes[i, t + 1]`` is ``path_prefix_node(bounds[i], t)`` once
    ``insert_path`` has inserted them in turn (``nodes[i, 0]`` the root)
    and ``mint`` marks where each node is created.  Sorted bounds sharing
    a prefix are adjacent, so a prefix is new where it differs from the
    previous bound's."""
    fresh = np.ones(bounds.shape, dtype=bool)
    fresh[1:] = np.logical_or.accumulate(bounds[1:] != bounds[:-1], axis=1)
    mint = fresh & (bounds >= 0)
    nodes = np.zeros((len(bounds), bounds.shape[1] + 1), dtype=np.int32)
    nodes[:, 1:][mint] = np.arange(1, np.count_nonzero(mint) + 1)
    rows = np.arange(len(bounds))
    for t in range(bounds.shape[1]):
        hole = fresh[:, t] & (bounds[:, t] < 0)  # ``*`` stays on its node
        nodes[hole, t + 1] = nodes[hole, t]
        last = np.maximum.accumulate(np.where(fresh[:, t], rows, 0))
        nodes[:, t + 1] = nodes[last, t + 1]
    return nodes, mint


def build_qctree_reference(table: BaseTable, aggregate="count") -> QCTree:
    """Closure-relation reference construction (differential oracle).

    Builds the same QC-tree as :func:`build_qctree` without the DFS,
    directly from the closure relation:

    * one path + aggregate per closed cell;
    * a drill-down link out of node ``p`` labeled ``(j, v)`` targeting
      class ``T`` exactly when some class ``C`` whose path runs through
      ``p`` with no values at or before ``j`` beyond ``p``'s satisfies
      ``closure(C.ub + v@j) == closure(cell(p) + v@j) == T`` — the
      *justified-context* characterization that also drives incremental
      maintenance (with :meth:`QCTree.add_link` dropping links that
      coincide with tree edges).

    Exponential-ish in the closed-cell fan-out (each class tries every
    value of every open dimension); use on analysis-scale inputs.  The
    property tests assert exact signature equality with Algorithm 1 —
    the two constructions validate each other.
    """
    from repro.cube.cover_index import CoverIndex

    agg = make_aggregate(aggregate)
    tree = QCTree(table.n_dims, agg, dim_names=table.schema.dimension_names)
    if not table.rows:
        return tree
    index = CoverIndex(table)
    n_dims = table.n_dims

    # Closed cells via closure jumps from every base tuple's generalizations.
    closed: dict = {}
    frontier = [index.closure((ALL,) * n_dims)]
    while frontier:
        bound = frontier.pop()
        if bound in closed:
            continue
        closed[bound] = index.rows(bound)
        for j in range(n_dims):
            if bound[j] is not ALL:
                continue
            for value in {table.rows[i][j] for i in closed[bound]}:
                child = index.closure(bound[:j] + (value,) + bound[j + 1:])
                if child not in closed:
                    frontier.append(child)

    for bound, rows in closed.items():
        node = tree.insert_path(bound)
        tree.set_state(node, agg.state(table, sorted(rows)))

    for bound, rows in closed.items():
        for j in range(n_dims):
            if bound[j] is not ALL:
                continue
            trunc = tuple(
                v if d < j else ALL for d, v in enumerate(bound)
            )
            for value in sorted({table.rows[i][j] for i in rows}):
                drill_closure = index.closure(
                    bound[:j] + (value,) + bound[j + 1:]
                )
                context_closure = index.closure(
                    trunc[:j] + (value,) + trunc[j + 1:]
                )
                if drill_closure != context_closure:
                    continue  # the context routes to another class
                source = tree.find_path(trunc)
                target = tree.path_prefix_node(drill_closure, j)
                if source is not None and target is not None:
                    tree.add_link(source, j, value, target)
    return tree
