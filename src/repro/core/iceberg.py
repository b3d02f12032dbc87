"""Iceberg-query answering on a QC-tree (§4.3 of the paper).

An iceberg query asks for all cells whose aggregate clears a threshold.
Because cover-equivalent cells share their aggregate, the natural unit of
answer is the *class*: a pure iceberg query returns the satisfying classes
(upper bound + value), each standing for all its member cells.

Pure iceberg queries run off a :class:`MeasureIndex` — the class nodes
sorted by aggregate value — with a single range scan.  *Constrained*
iceberg queries combine a range query with the threshold; the paper offers
two strategies, both implemented here:

``filter``
    Answer the range query, then verify the iceberg condition per result.
``mark``
    Use the measure index to mark the satisfying class nodes, retain the
    part of the QC-tree that can still reach a marked node, and process
    the range query on that restriction.  (The paper retains marked nodes
    and their ancestors; because drill-down links can enter a class's path
    from outside its ancestor chain, we retain the exact backward-reachable
    set over tree edges and links instead — a superset that preserves
    completeness at the same asymptotic cost.)  The restriction is one
    membership test after each of the tree's own ``search_route`` steps
    inside Algorithm 4's :func:`~repro.core.range_query.expand_range`:
    the retained set is closed backwards over edges and links, so a
    route that passes a node outside it cannot end inside it.

An unknown operator is refused up front (:func:`check_op`), whether or
not the range holds anything.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Optional

from repro.core.cells import dict_sort_key, generalizes
from repro.core.qctree import QCTree
from repro.core.range_query import RangeQuery, expand_range, range_query
from repro.errors import QueryError

_OPS = {
    ">=": (bisect_left, True), ">": (bisect_right, True),
    "<=": (bisect_right, False), "<": (bisect_left, False),
}


def check_op(op: str) -> None:
    """Raise :class:`QueryError` unless ``op`` is an iceberg operator."""
    if op not in _OPS:
        raise QueryError(
            f"unknown iceberg operator {op!r}; use one of {sorted(_OPS)}"
        )


class MeasureIndex:
    """Sorted index of a QC-tree's class nodes keyed by aggregate rank.

    A class's key is its aggregate's :meth:`rank
    <repro.cube.aggregates.AggregateFunction.rank>` of its value: the
    value itself, or a multi-aggregate's first part.

    The index belongs to one immutable tree (a serving snapshot) and is
    rebuilt, never updated, so it is two parallel lists sorted by key
    (ties in ``iter_class_nodes`` order) answered by one ``bisect`` and
    a slice.  A key that is not equal to itself (NaN) is left out: no
    comparison with it is true, which is what ``_satisfies`` — the
    filter plan and the segment scatter — decides, i.e. ``HAVING``.
    """

    def __init__(self, tree: QCTree):
        self.tree = tree
        rank = tree.aggregate.rank
        pairs = []
        for node in tree.iter_class_nodes():
            k = rank(tree.value_at(node))
            if not isinstance(k, (int, float)):
                raise QueryError(
                    f"aggregate {tree.aggregate.name} ranks a class by "
                    f"{k!r}, not a number; its rank() must return one"
                )
            if k == k:
                pairs.append((k, node))
        pairs.sort(key=lambda pair: pair[0])
        self._keys = [k for k, _ in pairs]
        self._nodes = [node for _, node in pairs]

    def __len__(self) -> int:
        return len(self._keys)

    def nodes_satisfying(self, threshold, op: str = ">=") -> list:
        """Class node ids whose indexed key satisfies ``key op threshold``,
        in ascending key order."""
        check_op(op)
        if threshold != threshold:
            # No key compares true with NaN; bisect would still cut.
            return []
        bisect, upward = _OPS[op]
        cut = bisect(self._keys, threshold)
        return self._nodes[cut:] if upward else self._nodes[:cut]


def pure_iceberg(
    tree: QCTree,
    threshold,
    op: str = ">=",
    index: Optional[MeasureIndex] = None,
) -> list:
    """All classes whose aggregate satisfies the threshold.

    Returns ``[(upper_bound, value), ...]`` sorted by upper bound; every
    member cell of each returned class satisfies the condition.  Building
    a :class:`MeasureIndex` once and passing it in amortizes the scan cost
    across queries, as the paper intends.
    """
    if index is None:
        index = MeasureIndex(tree)
    out = [
        (tree.upper_bound_of(node), tree.value_at(node))
        for node in index.nodes_satisfying(threshold, op)
    ]
    out.sort(key=lambda pair: dict_sort_key(pair[0]))
    return out


def constrained_iceberg(
    tree: QCTree,
    spec,
    threshold,
    op: str = ">=",
    strategy: str = "filter",
    index: Optional[MeasureIndex] = None,
) -> dict:
    """Range query + iceberg condition: ``{point cell: value}``.

    ``strategy`` selects the paper's plan (1) ``"filter"`` or plan (2)
    ``"mark"``; both return identical results.  Ablation A2
    (``benchmarks/bench_ablation_iceberg_strategies.py``) measures both
    and found no crossover — filter wins at every selectivity — so the
    served API (:meth:`ServingSnapshot.iceberg_in_range
    <repro.serving.snapshot.ServingSnapshot.iceberg_in_range>`) runs
    plan (1) alone, and plan (2) is kept here for the ablation.
    """
    check_op(op)
    if strategy == "filter":
        rank = tree.aggregate.rank
        results = range_query(tree, spec)
        return {
            cell: value
            for cell, value in results.items()
            if _satisfies(rank(value), threshold, op)
        }
    if strategy == "mark":
        return _marked_range_query(tree, spec, threshold, op, index)
    raise QueryError(f"unknown iceberg strategy {strategy!r}")


def _satisfies(value, threshold, op: str) -> bool:
    if op == ">=":
        return value >= threshold
    if op == ">":
        return value > threshold
    if op == "<=":
        return value <= threshold
    if op == "<":
        return value < threshold
    raise QueryError(f"unknown iceberg operator {op!r}")


def _useful_nodes(tree: QCTree, satisfying) -> set:
    """Nodes that can reach a satisfying class node via edges or links.

    Walks the traversal protocol's ``iter_children_of``/``iter_links_of``
    so it works on dict-backed and frozen trees alike.
    """
    incoming: dict = {}
    for node in tree.iter_nodes():
        for _, _, child in tree.iter_children_of(node):
            incoming.setdefault(child, []).append(node)
        for _, _, target in tree.iter_links_of(node):
            incoming.setdefault(target, []).append(node)
    useful = set(satisfying)
    frontier = list(satisfying)
    while frontier:
        node = frontier.pop()
        for pred in incoming.get(node, ()):
            if pred not in useful:
                useful.add(pred)
                frontier.append(pred)
    return useful


def _marked_range_query(tree, spec, threshold, op, index) -> dict:
    """The subtree-marking strategy for constrained iceberg queries."""
    if index is None:
        index = MeasureIndex(tree)
    rank = tree.aggregate.rank
    satisfying = set(index.nodes_satisfying(threshold, op))
    if not satisfying:
        return {}
    useful = _useful_nodes(tree, satisfying)
    query = spec if isinstance(spec, RangeQuery) else RangeQuery(spec, tree.n_dims)
    results: dict = {}
    search_route = tree.search_route

    def step(node, dim, value):
        """``search_route``, pruned where it ends off the useful nodes
        (the route itself is never bent: past a useless node the cell's
        own class cannot satisfy, and any other class is a wrong
        answer)."""
        nxt = search_route(node, dim, value)
        return nxt if nxt in useful else None

    if tree.root not in useful:
        return results
    for cell, node in expand_range(query, tree.root, step):
        final = tree.descend_to_class(node)
        if (final is not None and final in satisfying
                and generalizes(cell, tree.upper_bound_of(final))):
            value = tree.value_at(final)
            if _satisfies(rank(value), threshold, op):
                results[cell] = value
    return results
