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

Both phases run on arrays, and construction outputs columns only.
Phase 2 is one ``lexsort``: node ids follow from where adjacent sorted
bounds first differ, link endpoints are looked up, never walked, and
the insertion plan's ``(parent, dim, value)`` nodes, ``(node, class)``
pairs and ``(source, dim, value, target)`` links go straight into the
one compiler of the ``QCTREE/3`` sections
(:func:`~repro.core.frozen.compile_columns`): :func:`build_frozen` is
the tree every piece is born with.  A dict tree exists only where
Algorithms 5–7 run; :func:`build_qctree` thaws one from the columns
(:meth:`QCTree.from_frozen`).
"""

from __future__ import annotations

import numpy as np

from repro.core.cells import ALL
from repro.core.classes import temp_class_arrays
from repro.core.frozen import FrozenQCTree, compile_columns
from repro.core.qctree import QCTree
from repro.cube.aggregates import make_aggregate
from repro.cube.table import BaseTable


def build_qctree(table: BaseTable, aggregate="count") -> QCTree:
    """Build the QC-tree of ``table``'s cover quotient cube.

    ``aggregate`` is any spec accepted by
    :func:`repro.cube.aggregates.make_aggregate` (e.g. ``"count"``,
    ``("avg", "Sale")``, or a list of specs for a multi-measure tree).

    The result is unique for a given table and dimension order (Theorem 1):
    permuting the input rows yields an identical tree.  It is the thaw
    (:meth:`QCTree.from_frozen`) of :func:`build_frozen`'s columns.
    """
    return QCTree.from_frozen(build_frozen(table, aggregate))


def build_frozen(table: BaseTable, aggregate="count") -> FrozenQCTree:
    """Algorithm 1 compiled straight to the ``QCTREE/3`` sections: the
    :class:`FrozenQCTree` of ``table``'s QC-tree, with no dict tree on
    the way (:func:`~repro.core.frozen.compile_columns` over the
    insertion plan's arrays).  Its patch map is the identity, the ids
    :meth:`QCTree.from_frozen` gives a thawed tree."""
    agg = make_aggregate(aggregate)
    upper, lower, child, states = temp_class_arrays(table, agg)
    nodes, (class_nodes, class_ids), links = _insertion_plan(upper, lower,
                                                             child)
    payloads = [states[i] for i in class_ids.tolist()]
    del upper, lower, child, states  # the columns grow into their memory
    parent, dim, value = (np.concatenate(([-1], column)) for column in nodes)
    meta, views, states, _ = compile_columns(
        dict(n_dims=table.n_dims, dim_names=table.schema.dimension_names,
             aggregate=agg),
        parent, dim, value, np.arange(1, parent.size), links, class_nodes,
        payloads,
    )
    return FrozenQCTree.from_columns(meta, views, states,
                                     range(meta["counts"]["nodes"]))


def _insertion_plan(upper, lower, child) -> tuple:
    """Phase 2 as ``int64`` arrays over node ids in the order
    ``insert_path`` would mint them (the root is 0): ``nodes`` is
    ``(parent, dim, value)`` of nodes ``1, 2, …``, ``classes`` ``(node,
    class id)`` and ``links`` ``(source, dim, value, target)`` — one per
    label, those a tree edge already realizes dropped, and the last of
    several on one label kept, as ``add_link`` keeps them."""
    order = np.lexsort(upper.T[::-1])  # stable: ties keep class-id order
    ub = upper[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (ub[1:] != ub[:-1]).any(axis=1)
    bounds = ub[first]
    bound_of = np.empty(len(order), dtype=np.int64)
    bound_of[order] = np.cumsum(first) - 1
    nodes, mint = _prefix_nodes(bounds)
    at, through = np.nonzero(mint)
    parent = nodes[at, through].astype(np.int64)
    value = bounds[at, through].astype(np.int64)
    # A redundant record's link: the first dimension its lattice child's
    # bound leaves ``*`` and its lower bound fills.
    redundant = order[~first]
    child_bound = bound_of[child[redundant]]
    opened = (bounds[child_bound] < 0) & (lower[redundant] >= 0)
    keep = opened.any(axis=1)
    redundant, child_bound = redundant[keep], child_bound[keep]
    dim = opened[keep].argmax(axis=1)
    source = nodes[child_bound, dim].astype(np.int64)
    label = upper[redundant, dim].astype(np.int64)
    target = nodes[bound_of[redundant], dim + 1].astype(np.int64)
    # ``add_link`` skips a link its source's tree edge realizes ...
    at = target - 1
    kept = ~((parent[at] == source) & (through[at] == dim)
             & (value[at] == label))
    links = np.stack((source, dim, label, target))[:, kept]
    # ... and a later link on the same label replaces an earlier one.
    key = ((links[0] * upper.shape[1] + links[1]) * (bounds.max(initial=0) + 1)
           + links[2])
    _, last = np.unique(key[::-1], return_index=True)
    links = links[:, np.sort(key.size - 1 - last)]
    return (
        (parent, through.astype(np.int64), value),
        (nodes[:, -1].astype(np.int64), order[first]),
        tuple(links),
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
    if not table.n_rows:
        return tree
    index = CoverIndex(table)
    table_rows = table.rows
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
            for value in {table_rows[i][j] for i in closed[bound]}:
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
            for value in sorted({table_rows[i][j] for i in rows}):
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
