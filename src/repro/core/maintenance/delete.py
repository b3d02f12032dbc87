"""Incremental batch deletion from a QC-tree (§3.3.2).

Deletion never creates classes: a class either keeps its bound with a
reduced measure (*update*), disappears when its cover empties (*delete*),
or *merges* into the class of the more specific closure its remaining
cover now implies (the paper's Example 4).

Affected classes are exactly those whose upper bound generalizes some
deleted tuple — enumerable by walking the tree restricted to the tuples'
values (:meth:`QCTree.walk_generalizing
<repro.core.qctree.QCTree.walk_generalizing>`, which the stale links of
(a) and the classes below a vanished bound are read off as well).  For
each affected bound ``U`` the remaining cover decides its fate;
aggregate states are subtracted in place when the aggregate supports it
(COUNT/SUM/AVG) and recomputed from the new base table otherwise
(MIN/MAX).

Links are maintained by *justification*: a link labeled ``(j, v)`` out of
node ``p`` belongs in the tree iff some live class ``C`` whose path runs
through ``p`` with no values in dimensions ``(dim(p), j]`` drills down to
the same closure the node's own context reaches.  Candidate contexts come
from the removed/stale links, the vanished bounds' ancestors, the merge
targets' drill-downs, and the links hanging off vanished paths.  As with
insertion, the result is identical to a from-scratch rebuild on the
reduced table (Theorem 2).
"""

from __future__ import annotations

import time
from collections import Counter

import numpy as np

from repro.core.cells import ALL, generalizes, truncate
from repro.cube.cover_index import CoverIndex
from repro.core.point_query import locate
from repro.core.qctree import QCTree
from repro.cube.table import BaseTable
from repro.errors import MaintenanceError


def batch_delete(tree: QCTree, new_table: BaseTable, delta_rows,
                 cover_index: CoverIndex, timings=None) -> None:
    """Apply the deletion of ``delta_rows`` in place.

    ``new_table`` must be the base table with those rows already removed
    and ``delta_rows`` the removed rows as
    :func:`resolve_deletions` returns them (encoded dimension tuples
    carrying ``.codes`` and ``.measures``); ``cover_index`` is the caller's
    :class:`~repro.cube.cover_index.CoverIndex` *already synced to*
    ``new_table`` (the deletions applied via
    :meth:`~repro.cube.cover_index.CoverIndex.apply_deletes`).  After
    the call the tree equals the one built from scratch on
    ``new_table``.

    ``timings``, when given, accumulates elapsed seconds like
    :func:`~repro.core.maintenance.insert.batch_insert` does:
    *partition* covers the affected-class walk and fate classification
    (phase 1, computed against the pre-mutation tree); *merge* covers
    link invalidation, the structural apply, and the justification-based
    link refresh (phases 2–4).
    """
    if not delta_rows:
        return
    _t_start = time.perf_counter()
    agg = tree.aggregate
    n_dims = tree.n_dims
    new_closure = cover_index.closure

    # Subtractable aggregates (COUNT/SUM/AVG/VAR) take the deleted rows'
    # contribution out of the class states in place; the others are
    # recomputed from the new base table.
    if agg.subtractable:
        delta_table = BaseTable(
            new_table.schema, delta_rows.codes, delta_rows.measures,
            new_table._decoders, new_table._encoders,
        )
        delta_index = CoverIndex(delta_table)

    # -- phase 1: fates of affected classes (pre-mutation) -----------------
    # Both Δ-questions — the affected classes here, the stale links of (a)
    # — walk the tree restricted to the distinct deleted rows.
    distinct_rows = set(delta_rows)
    fates = []  # (old bound, node, new bound or None, new state or None)
    removed: dict = {}  # the state of each covered set of delta rows
    for ub, node in tree.classes_generalizing(distinct_rows):
        w = new_closure(ub)
        if w is None:
            state = None
        elif agg.subtractable:
            # States are computed before any mutation: a node may be both
            # updated and the target of a merge, and subtraction must see
            # the pre-deletion state.
            # delta rows covered by the surviving bound
            covered = tuple(sorted(delta_index.rows(w)))
            state = tree.state[locate(tree, w)]
            if covered:
                if covered not in removed:
                    removed[covered] = agg.state(delta_table, covered)
                state = agg.subtract(state, removed[covered])
        else:
            # positions(), not rows(): the measure matrix is addressed by
            # compacted table position, which diverges from the stable
            # ids a long-lived index keeps across deletes.
            state = agg.state(new_table, sorted(cover_index.positions(w)))
        fates.append((ub, node, w, state))
    _t_partition = time.perf_counter()

    candidates: set = set()  # (source path cell, j, v)

    # (a) links whose drill-down cell covered deleted tuples are stale.
    for src, j, v in tree.links_covering(distinct_rows):
        tree.remove_link(src, j, v)
        candidates.add((tree.upper_bound_of(src), j, v))

    # (b) links out of nodes on vanished paths may lose their justification.
    for ub, node, w, _state in fates:
        if w == ub:
            continue
        cur = node
        while True:
            pcell = tree.upper_bound_of(cur)
            for j, by_value in tree.links[cur].items():
                for v in by_value:
                    candidates.add((pcell, j, v))
            if cur == tree.root:
                break
            cur = tree.parent[cur]

    # -- phase 2: apply class fates ------------------------------------------
    merge_targets = []
    for ub, node, w, state in fates:
        if w == ub:
            tree.set_state(node, state)
        else:
            tree.set_state(node, None)
            if w is not None:
                merge_targets.append(w)
                tree.set_state(tree.insert_path(w), state)
    for ub, node, w, _state in fates:
        if w != ub:
            tree.clear_state_and_prune(node)

    # -- phase 3: remaining link candidates (post-mutation tree) -------------
    for ub, node, w, _state in fates:
        if w == ub:
            continue
        for cub, _ in tree.classes_generalizing([ub]):
            for j in range(n_dims):
                if cub[j] is ALL and ub[j] is not ALL:
                    candidates.add((truncate(cub, j), j, ub[j]))
    for w in merge_targets:
        for j in range(n_dims):
            if w[j] is not ALL:
                continue
            trunc = truncate(w, j)
            for v in cover_index.values_at(w, j):
                candidates.add((trunc, j, v))

    # -- phase 4: justification-based refresh ---------------------------------
    # The class set is static during phase 4 (only links change), so the
    # class bounds of each node's subtree are memoized across candidates.
    # Path dimensions increase, so below a child of ``src`` with dimension
    # > ``j`` every class has no value at or before ``j`` beyond the
    # source's path, and its whole subtree qualifies.
    subtrees: dict = {}  # node -> class bounds in its subtree

    def subtree(node: int, cell) -> list:
        found = subtrees.get(node)
        if found is None:
            found = [cell] if tree.state[node] is not None else []
            for dim, by_value in tree.children[node].items():
                for value, child in by_value.items():
                    found += subtree(
                        child, cell[:dim] + (value,) + cell[dim + 1:]
                    )
            subtrees[node] = found
        return found

    def classes_through(src: int, trunc, j: int):
        """Bounds of classes whose path passes ``src`` using dims > ``j``."""
        if tree.state[src] is not None:
            yield trunc
        for dim, by_value in tree.children[src].items():
            if dim > j:
                for value, child in by_value.items():
                    yield from subtree(
                        child, trunc[:dim] + (value,) + trunc[dim + 1:]
                    )

    for src_cell, j, v in candidates:
        trunc = truncate(src_cell, j)
        src = tree.find_path(trunc)
        if src is None:
            continue
        context = trunc[:j] + (v,) + trunc[j + 1:]
        t_ctx = new_closure(context)
        justified = None
        if t_ctx is not None:
            for cub in classes_through(src, trunc, j):
                drill = cub[:j] + (v,) + cub[j + 1:]
                # Cheap necessary condition before the closure test: the
                # drill-down must generalize the context's closure.
                if not generalizes(drill, t_ctx):
                    continue
                if new_closure(drill) == t_ctx:
                    justified = t_ctx
                    break
        tree.remove_link(src, j, v)
        if justified is not None:
            target = tree.path_prefix_node(justified, j)
            if target is not None:
                tree.add_link(src, j, v, target)
    if timings is not None:
        timings["partition"] = timings.get("partition", 0.0) \
            + (_t_partition - _t_start)
        timings["merge"] = timings.get("merge", 0.0) \
            + (time.perf_counter() - _t_partition)


class _DeltaRows(list):
    """Deleted encoded rows, carrying their ``.codes`` and ``.measures``
    matrices (so subtractable aggregates — COUNT/SUM/AVG — can be updated in
    place) and the matched pre-deletion row positions as ``.positions``
    (so a persistent cover index can patch itself via
    :meth:`~repro.cube.cover_index.CoverIndex.apply_deletes`)."""


def matching_rows(table: BaseTable, cells) -> list:
    """``(position, row)`` for every row of ``table`` equal to one of
    the encoded ``cells``, ascending by position, the row a tuple of
    Python ints: one vectorised match over the code matrix, tuples only
    for the rows it finds.  A cell with an ALL matches no row."""
    wanted = {cell for cell in cells if ALL not in cell}
    # One int64 key per row, its mixed-radix number (wrapping past
    # 2**63): equal rows share a key, and the tuple test below skips a
    # row that shares one by a wrap.
    codes = table.codes
    strides = np.cumprod([1] + [len(d) for d in table._decoders][:-1])
    keys = np.array(list(wanted), np.int64).reshape(-1, table.n_dims)
    at = np.flatnonzero(np.isin(codes @ strides, keys @ strides))
    return [(i, row)
            for i, row in zip(at.tolist(), map(tuple, codes[at].tolist()))
            if row in wanted]


def resolve_deletions(table: BaseTable, records):
    """Match raw delete records against ``table``'s rows, pre-mutation.

    Returns ``(new_table, delta_rows)``: the table with the matched rows
    removed and the removed rows themselves (a :class:`_DeltaRows`, the
    shape :func:`batch_delete` consumes).  Matching
    is by dimension labels only (the paper deletes by key); measure
    values in the records are ignored.  Raises
    :class:`MaintenanceError` — before anything is derived — when a
    record has no matching row left, so callers can validate a whole
    (possibly mixed) batch before touching the tree.
    """
    n_dims = table.n_dims
    wanted = Counter()
    for record in records:
        dims = tuple(record[:n_dims])
        try:
            wanted[table.encode_cell(dims)] += 1
        except Exception as exc:  # unknown label => row cannot exist
            raise MaintenanceError(
                f"cannot delete {record!r}: {exc}"
            ) from exc
    drop = []
    for i, row in matching_rows(table, wanted):
        if wanted[row] > 0:
            wanted[row] -= 1
            drop.append(i)
    leftovers = +wanted
    if leftovers:
        raise MaintenanceError(
            f"rows not present in base table: {dict(leftovers)}"
        )
    new_table = table.without_rows(drop)
    removed = table.codes[drop]
    delta = _DeltaRows(map(tuple, removed.tolist()))
    delta.codes = removed
    delta.measures = table.measures[drop]
    delta.positions = drop
    return new_table, delta
