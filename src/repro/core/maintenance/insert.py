"""Incremental batch insertion into a QC-tree (Algorithm 2, §3.3.1).

Inserting a batch ΔDB never merges classes (a tuple covered by a class
upper bound agrees with all its values, so old upper bounds stay closed):
a class either keeps its bound with an updated measure (*update*), spawns
a more specific bound for the members that now cover new tuples (*split*),
or a brand-new class appears for cells that covered nothing before (*new*).

The implementation classifies in three steps, all computed against the
pre-update tree:

1. A cover-partition DFS over ΔDB yields the Δ-closed cells ``c̃`` with
   their aggregate states.
2. For each ``c̃``, a *closure-jumping walk* over the old tree enumerates
   every old class ``U`` that is the closure of some generalization of
   ``c̃``; the pair produces candidate bound ``W = U ∧ c̃`` which is real
   exactly when ``W`` covers the same Δ-tuples as ``c̃``.  ``W == U`` is an
   update, otherwise a split.  A ``c̃`` with no old cover is a new class.
3. Drill-down links are reconciled from the closure relation: stale links
   whose drill-down cell covers Δ-tuples are retargeted, and every new
   bound gets the links into it (from its ancestor classes) and out of it
   (to its drill-downs' closures) — the stale links and the ancestors
   both read off :meth:`QCTree.walk_generalizing
   <repro.core.qctree.QCTree.walk_generalizing>`, the tree restricted to
   the Δ-tuples (resp. the bound), never a scan of the tree — each
   filtered by the *context rule*:
   a link labeled ``(j, v)`` out of node ``p`` is stored only if the cell
   spelled by ``p`` plus ``v`` at ``j`` closes to the link's target, which
   is precisely the invariant Algorithm 3 relies on when routing queries.

The result is *identical* to rebuilding the QC-tree from scratch on
``DB ∪ ΔDB`` (Theorem 2) — the property tests assert equality of paths,
links, and class aggregates, plus exhaustive query equivalence.
"""

from __future__ import annotations

import time

from repro.core import cells
from repro.core.cells import ALL, Cell, meet, truncate
from repro.core.classes import class_states
from repro.core.point_query import locate
from repro.core.qctree import QCTree
from repro.cube.cover_index import CoverIndex
from repro.cube.table import BaseTable
from repro.errors import MaintenanceError


_MISSING = object()


def closures_below(tree: QCTree, bound: Cell) -> dict:
    """Old classes that are closures of generalizations of ``bound``.

    Returns ``{upper_bound: node}``: the shared closure-jumping walk
    (:func:`repro.core.cells.closures_below`) probing with
    :func:`locate` on the tree, never touching the base table.
    """
    def probe(cell: Cell):
        node = locate(tree, cell)
        return None if node is None else (tree.upper_bound_of(node), node)

    return cells.closures_below(probe, bound)


def batch_insert(tree: QCTree, delta_table: BaseTable,
                 cover_index: CoverIndex, timings=None) -> None:
    """Apply the insertion of ``delta_table``'s rows to ``tree`` in place.

    ``delta_table`` is the consistently encoded delta
    :meth:`repro.cube.table.BaseTable.extended` produces next to the new
    base table, and ``cover_index`` the caller's
    :class:`~repro.cube.cover_index.CoverIndex` *already synced to* that
    new table (old rows plus the delta, applied via
    :meth:`~repro.cube.cover_index.CoverIndex.apply_inserts`).  After
    the call the tree equals the one
    :func:`repro.core.construct.build_qctree` builds on the new table.

    ``timings``, when given, is a dict whose ``"partition"`` and
    ``"merge"`` entries are incremented with the elapsed seconds of the
    two halves of the algorithm: *partition* covers the Δ-partition DFS
    and the classification of Δ-closed cells against the old tree (steps
    1–2); *merge* covers link derivation and the structural apply (step
    3 onward).  The batched maintenance engine surfaces these as the
    ``write_phases`` sub-phases.
    """
    if delta_table.n_dims != tree.n_dims:
        raise MaintenanceError(
            f"delta has {delta_table.n_dims} dims, tree has {tree.n_dims}"
        )
    if not delta_table.n_rows:
        return
    agg = tree.aggregate
    n_dims = tree.n_dims
    delta_index = CoverIndex(delta_table)
    delta_closure = delta_index.closure
    _old_closure_cache: dict = {}
    _ub_cache: dict = {}

    def ub_of(node: int) -> Cell:
        cached = _ub_cache.get(node)
        if cached is None:
            cached = _ub_cache[node] = tree.upper_bound_of(node)
        return cached

    def locate_cached(cell: Cell):
        """``locate`` memoized for the whole batch (pre-mutation tree).

        Classification and link derivation revisit the same cells many
        times; the walk is the dominant cost without this cache.
        """
        cached = _old_closure_cache.get(cell, _MISSING)
        if cached is _MISSING:
            cached = _old_closure_cache[cell] = locate(tree, cell)
        return cached

    def old_closure(cell: Cell):
        node = locate_cached(cell)
        return ub_of(node) if node is not None else None

    def closures_below_cached(bound: Cell) -> dict:
        """:func:`repro.core.cells.closures_below` inlined over the batch
        memos on purpose: this is classification's inner loop, and a
        probe callback would cost one more Python frame per cell."""
        found: dict = {}

        def rec(cell: Cell) -> None:
            node = locate_cached(cell)
            if node is None:
                return
            ub = ub_of(node)
            if ub in found:
                return
            found[ub] = node
            for j in range(n_dims):
                if ub[j] is ALL and bound[j] is not ALL:
                    rec(ub[:j] + (bound[j],) + ub[j + 1:])

        rec((ALL,) * n_dims)
        return found

    def new_closure(cell: Cell):
        """Closure of ``cell`` in DB ∪ Δ (evaluated pre-mutation)."""
        old = old_closure(cell)
        fresh = delta_closure(cell)
        if old is None:
            return fresh
        if fresh is None:
            return old
        return meet(old, fresh)

    # Step 1: Δ-closed cells with their aggregate states.
    _t_start = time.perf_counter()
    delta_states = class_states(delta_table, agg)

    # Step 2: classification, all against the pre-update tree.
    records = []  # (final bound W, old node or None, new state)
    for ctil, dstate in delta_states.items():
        cover_c = delta_index.mask(ctil)
        for ub, node in closures_below_cached(ctil).items():
            w = meet(ub, ctil)
            if delta_index.mask(w) != cover_c:
                continue  # W covers other Δ-tuples; it pairs with their closure
            records.append((w, node, agg.merge(tree.state[node], dstate)))
        if locate_cached(ctil) is None:
            records.append((ctil, None, dstate))

    new_bounds = [
        w for w, node, _ in records
        if node is None or ub_of(node) != w
    ]
    _t_partition = time.perf_counter()

    # Step 3a: stale-link retargets (drill-down cell covers Δ-tuples).
    retargets = []
    for src, j, v in tree.links_covering(delta_table.codes.tolist()):
        drill = ub_of(src)
        drill = drill[:j] + (v,) + drill[j + 1:]
        retargets.append((src, j, v, new_closure(drill)))

    # Step 3b: link candidates around new bounds (closures pre-mutation).
    new_links = []  # (source truncated context, j, v, target bound)
    for w in new_bounds:
        # Ancestors among the OLD classes; new-bound-to-new-bound links
        # are produced by the out-link pass below (every new bound's
        # drill-downs are expanded), so no quadratic cross-product here.
        for cub, _ in tree.classes_generalizing([w]):
            if cub == w:
                continue
            for j in range(n_dims):
                if cub[j] is not ALL or w[j] is ALL:
                    continue
                if new_closure(cub[:j] + (w[j],) + cub[j + 1:]) != w:
                    continue
                trunc = truncate(cub, j)
                if new_closure(trunc[:j] + (w[j],) + trunc[j + 1:]) != w:
                    continue  # context rule: the node cannot claim this route
                new_links.append((trunc, j, w[j], w))
        for j in range(n_dims):
            if w[j] is not ALL:
                continue
            trunc = truncate(w, j)
            for v in cover_index.values_at(w, j):
                target = new_closure(trunc[:j] + (v,) + trunc[j + 1:])
                if target is None:
                    continue
                if new_closure(w[:j] + (v,) + w[j + 1:]) != target:
                    continue  # not this class's discovery
                new_links.append((trunc, j, v, target))

    # Apply: class changes first, then links (prefix nodes now exist).
    for w, node, state in records:
        if node is not None and ub_of(node) == w:
            tree.set_state(node, state)
        else:
            tree.set_state(tree.insert_path(w), state)
    for src, j, v, w_d in retargets:
        tree.remove_link(src, j, v)
        target = tree.path_prefix_node(w_d, j)
        if target is not None:
            tree.add_link(src, j, v, target)
    for trunc, j, v, w in new_links:
        src = tree.find_path(trunc)
        target = tree.path_prefix_node(w, j)
        if src is not None and target is not None:
            tree.add_link(src, j, v, target)
    if timings is not None:
        timings["partition"] = timings.get("partition", 0.0) \
            + (_t_partition - _t_start)
        timings["merge"] = timings.get("merge", 0.0) \
            + (time.perf_counter() - _t_partition)
