"""``FrozenQCTree`` — the one immutable, array-backed QC-tree reads run on.

The mutable :class:`~repro.core.qctree.QCTree` stores edges and links as
nested dicts, which is ideal for incremental maintenance but pays pointer
chasing, per-step allocation, and an O(depth) ``upper_bound_of`` walk on
every query.  The read tree is a dense, pointer-free layout in the spirit
of compact multidimensional-array cube representations:

* nodes are numbered in preorder (root is 0);
* tree edges and drill-down links live in CSR-style parallel arrays —
  per-node *sorted* key slices resolved with :mod:`bisect`, keys being
  ``dim * stride + value`` ints (``(dim, value)`` tuples for exotic,
  non-int labels) — plus a merged per-node *routing* dict (edges shadow
  links on equal labels) so one probe per step serves Algorithm 3's
  edge-then-link rule;
* ``last_dim`` and the Lemma-2 *forced* descent (the unique child in
  the last child-bearing dimension) are precomputed per node, and a
  class-kind vector marks the aggregate-bearing nodes;
* every node's upper bound is a ready tuple, turning the final
  verification of Algorithm 3 into an O(1) fetch, and class aggregate
  values are pre-extracted from their states.

One class, two storages
-----------------------
Everything above is written once, against *indexable sequences*.  What
differs is only where the sequences live:

* **heap** — :meth:`QCTree.freeze <repro.core.qctree.QCTree.freeze>` /
  :meth:`FrozenQCTree.from_tree` compile the dict tree into tuples, with
  every routing dict, upper bound and value built eagerly;
* **attached** — :meth:`FrozenQCTree.from_buffers` wraps the typed
  ``memoryview`` sections of a ``QCTREE/3`` blob (shared memory or an
  mmap'd file, see :mod:`repro.shard.pack`) without copying them.  A
  node's routing dict, upper-bound tuple and value/state are decoded on
  first visit and cached, so attach stays O(1) and the hot prefix of the
  tree reaches heap speed after warmup.

The traversal protocol shared with :class:`~repro.core.qctree.QCTree`
(``child`` / ``link_target`` / ``last_child_dim`` / ``children_in_dim``
/ ``state`` / ``upper_bound_of`` / ``value_at`` / the ``iter_*`` family)
and the Algorithm-3 fast paths (``_search_route`` / ``_descend_to_class``
/ ``_locate`` / ``_point_query``) are the same functions on both; the
only storage-specific code is the two constructors, the lazy decode
guards (``route is None`` / ``ub is None`` / ``value is _UNSET``), which
never fire on a heap tree, and the attached-only batch kernel
(``_point_query_batch``, a shard worker's answer to a bulk read).  Answers — and node-access counts — equal the
dict tree's by construction, and ``frozen.signature() ==
tree.signature()``.

Incremental refreeze
--------------------
Recompiling the whole tree after every maintenance batch throws away the
locality the paper's Algorithms 5–7 work hard for, so :meth:`patch`
splices a recorded :class:`~repro.core.maintenance.delta.
MaintenanceDelta` into a *new* heap tree at cost proportional to the
dirty set: touched nodes get fresh routing/edge/link rows, pruned nodes
become unreachable tombstone slots, and brand-new nodes are appended
into spare capacity past the preorder prefix.  Per-node edge and link
slices of touched nodes live in a small overlay consulted before the
shared CSR arrays; the untouched majority of every array is reused
(tuples are shared or block-copied, never re-derived).  A patch falls
back to a full :meth:`from_tree` compile when the dirty set is too large
(:data:`FULL_REFREEZE_RATIO`), when accumulated tombstones/overlay debt
says it is time to compact (:data:`COMPACT_RATIO`), or when the delta needs
representation changes a splice cannot express (label-code overflow of
the routing-key stride; an attached tree, which has no map back to the
dict tree's ids).  Either way the result answers every query identically
to a from-scratch freeze — the property tests assert node-for-node
equivalence.

Freezing requires each dimension's label codes to be mutually comparable
(dictionary-encoded ints always are); a mixed-type dimension cannot be
sorted and raises :class:`~repro.errors.QueryError`.

Instances are immutable: attribute assignment after construction raises
:class:`TypeError`, so a tree can be shared across threads (the lazy
caches of an attached tree only ever fill a slot with the one value it
can hold) and cached query results can never be invalidated by in-place
edits — the warehouse swaps in a whole new tree instead.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterator, Optional

import numpy as np

from repro.core.cells import ALL, Cell
from repro.core.qctree import QCTree
from repro.cube.aggregates import make_aggregate
from repro.errors import QueryError


#: Routing-key sentinel guaranteed to miss every per-node routing dict:
#: used for query values that cannot possibly label an edge or link.
_ABSENT = object()

#: Marks a value/state slot of an attached tree not decoded yet (``None``
#: is taken: it is the decoded value of a non-class node).
_UNSET = object()

#: Ends :meth:`FrozenQCTree._batch_routes`, past every routing key.
_KEY_SENTINEL = np.iinfo(np.int64).max

#: :meth:`FrozenQCTree.patch` recompiles instead of splicing when the
#: dirty set exceeds this fraction of the live nodes.  A constant, not an
#: option: the code picks the mode from the dirty set it observes, and
#: the benchmark has a workload on each side (a 32-row batch on the
#: 45k-node ``olap_inproc`` tree dirties 2.5 % and patches; a batch on an
#: ``ingest_seg`` head of < 2,000 nodes dirties half of it and recompiles).
FULL_REFREEZE_RATIO = 0.25

#: ... and repacks when tombstones plus overlay rows would exceed this
#: fraction of the live nodes.
COMPACT_RATIO = 0.5

#: The ``QCTREE/3`` sections an attached tree reads in place; section
#: ``name`` is held in slot ``_name``.
BUFFER_SECTIONS = (
    "edge_start", "edge_key", "edge_child",
    "link_start", "link_key", "link_target",
    "last_dim", "forced", "ub", "class_kind", "state_data", "value_data",
)


def _route_key(stride, dim, value):
    """The routing/CSR key for label ``(dim, value)``.

    In int-key mode (``stride > 0``) out-of-range and un-comparable
    values map to :data:`_ABSENT` so they miss the table — exactly as
    they would miss the generic representation's nested dicts.  Numeric
    edge cases keep dict-lookup parity: ``3.0`` finds the code ``3``
    (equal numbers hash alike), ``3.5`` misses.
    """
    if stride:
        try:
            if 0 <= value < stride:
                return dim * stride + value
        except TypeError:
            pass
        return _ABSENT
    return (dim, value)


def _sorted_row(tree, node, remap):
    """One dict-tree node's ``(edges, links)`` as sorted
    ``((dim, value), mapped_id)`` lists.  Raises ``TypeError`` when a
    dimension mixes label types that do not sort and ``KeyError`` when a
    neighbor is missing from ``remap``."""
    edges = sorted(
        ((dim, val), remap[child])
        for dim, val, child in tree.iter_children_of(node)
    )
    links = sorted(
        ((dim, val), remap[target])
        for dim, val, target in tree.iter_links_of(node)
    )
    return edges, links


def _compile_row(edges, links, stride):
    """One node's array row from its :func:`_sorted_row`.

    Returns ``(edge_keys, edge_children, link_keys, link_targets,
    routing, last_dim, forced)`` with keys encoded for ``stride`` and
    ``routing`` the merged label map (edges shadow links, mirroring
    ``search_route``'s edge-first probe order).
    """
    edge_keys, edge_children = zip(*edges) if edges else ((), ())
    link_keys, link_targets = zip(*links) if links else ((), ())
    if stride:
        edge_keys = [dim * stride + val for dim, val in edge_keys]
        link_keys = [dim * stride + val for dim, val in link_keys]
    routing = dict(zip(link_keys, link_targets))
    routing.update(zip(edge_keys, edge_children))
    last_dim = -1
    forced = -1
    if edges:
        # Sorted by (dim, value): the last dimension's children are the
        # tail, so there is exactly one iff the second-to-last differs.
        last_dim = edges[-1][0][0]
        if len(edges) == 1 or edges[-2][0][0] != last_dim:
            forced = edge_children[-1]
    return (edge_keys, edge_children, link_keys, link_targets,
            routing, last_dim, forced)


def template_width(template) -> int:
    """Number of ``float64`` leaves in a packed state/value template."""
    if template is None:
        return 0
    if isinstance(template, list):
        return sum(template_width(t) for t in template)
    return 1


def _rebuild(template, flat, pos: int):
    """Rebuild one aggregate state/value from its packed ``float64``
    leaves (the inverse of :func:`repro.shard.pack._leaf_columns`);
    returns ``(value, next_pos)``."""
    if isinstance(template, list):
        parts = []
        for sub in template:
            value, pos = _rebuild(sub, flat, pos)
            parts.append(value)
        return tuple(parts), pos
    leaf = flat[pos]
    return (int(leaf) if template == "i" else leaf), pos + 1


class _LazyStates:
    """``tree.state`` of an attached tree: a sequence decoding each
    class state from the packed state matrix on first access."""

    __slots__ = ("_tree", "_cache")

    def __init__(self, tree, n: int):
        self._tree = tree
        self._cache = [_UNSET] * n

    def __len__(self) -> int:
        return len(self._cache)

    def __getitem__(self, node: int):
        state = self._cache[node]
        if state is _UNSET:
            tree = self._tree
            state = self._cache[node] = tree._decode(
                tree._state_data, tree._state_codec, node
            )
        return state

    def __iter__(self):
        return (self[node] for node in range(len(self._cache)))


class FrozenQCTree:
    """Read-optimized immutable QC-tree over heap or attached storage.

    Build via :meth:`QCTree.freeze` (or :meth:`from_tree`), or attach a
    ``QCTREE/3`` blob with :func:`repro.shard.pack.attach_packed`; node
    ids are compact preorder ids, *not* the source tree's ids.  A
    :meth:`patch` keeps existing ids stable, appends new nodes past the
    preorder prefix, and leaves tombstone slots where nodes were pruned.
    """

    __slots__ = (
        "n_dims", "dim_names", "aggregate", "root", "state",
        "snapshot_meta", "patch_stats", "_stride",
        "_edge_start", "_edge_key", "_edge_child",
        "_link_start", "_link_key", "_link_target",
        "_last_dim", "_forced", "_class_kind",
        "_routes", "_ubs", "_value",
        # heap only: patch bookkeeping
        "_source_map", "_dead", "_edge_over", "_link_over",
        # attached only: the packed rows the lazy decode reads (and the
        # batch kernel's routing keys)
        "_ub", "_state_data", "_value_data", "_state_codec", "_value_codec",
        "_batch",
    )

    def __init__(self):
        raise TypeError(
            "FrozenQCTree cannot be constructed directly; use "
            "QCTree.freeze() or FrozenQCTree.from_tree()"
        )

    @classmethod
    def _new(cls, **fields) -> "FrozenQCTree":
        self = object.__new__(cls)
        for slot in ("_source_map", "_edge_over", "_link_over", "_ub",
                     "_state_data", "_value_data", "_state_codec",
                     "_value_codec", "_batch"):
            object.__setattr__(self, slot, None)
        object.__setattr__(self, "_dead", frozenset())
        object.__setattr__(self, "root", 0)
        for slot, value in fields.items():
            object.__setattr__(self, slot, value)
        return self

    @classmethod
    def from_tree(cls, tree: QCTree) -> "FrozenQCTree":
        """Compile ``tree`` into heap storage (see module docstring)."""
        order = list(tree.iter_nodes())
        remap = {node: i for i, node in enumerate(order)}
        n = len(order)
        state = [tree.state[old] for old in order]
        value_of = tree.aggregate.value
        edge_start = [0] * (n + 1)
        edge_key: list = []
        edge_child: list = []
        link_start = [0] * (n + 1)
        link_key: list = []
        link_target: list = []
        routes: list = [None] * n
        last_dim = [-1] * n
        forced = [-1] * n
        try:
            for i, old in enumerate(order):
                (e_keys, e_children, l_keys, l_targets,
                 routes[i], last_dim[i], forced[i]) = _compile_row(
                    *_sorted_row(tree, old, remap), 0
                )
                edge_key.extend(e_keys)
                edge_child.extend(e_children)
                edge_start[i + 1] = len(edge_key)
                link_key.extend(l_keys)
                link_target.extend(l_targets)
                link_start[i + 1] = len(link_key)
        except TypeError as exc:
            raise QueryError(
                "cannot freeze QC-tree: a dimension mixes label types "
                f"that do not sort together ({exc})"
            ) from exc

        # When every label is a non-negative int (dictionary codes always
        # are), the (dim, value) keys compress to ``dim * stride + value``
        # — one int hash per probe instead of a tuple allocation.  The
        # stride carries 2× headroom past the largest code seen, so a
        # later patch() can splice in freshly minted dictionary codes
        # without re-keying every row.  ``stride`` stays 0 for exotic
        # label types, keeping (dim, value) keys.
        labels = [v for _, v in edge_key]
        labels += [v for _, v in link_key]
        stride = 0
        if labels and all(type(v) is int and v >= 0 for v in labels):
            stride = 2 * (max(labels) + 1)
            edge_key = [dim * stride + v for dim, v in edge_key]
            link_key = [dim * stride + v for dim, v in link_key]
            routes = [
                {dim * stride + v: target
                 for (dim, v), target in routing.items()}
                for routing in routes
            ]

        return cls._new(
            n_dims=tree.n_dims,
            dim_names=tuple(tree.dim_names),
            aggregate=tree.aggregate,
            state=tuple(state),
            snapshot_meta=dict(getattr(tree, "snapshot_meta", {})),
            patch_stats={
                "mode": "fresh", "dirty": n, "touched": n, "appended": 0,
                "tombstoned": 0, "dead_slots": 0, "overlay": 0, "slots": n,
            },
            _stride=stride,
            _edge_start=tuple(edge_start),
            _edge_key=tuple(edge_key),
            _edge_child=tuple(edge_child),
            _link_start=tuple(link_start),
            _link_key=tuple(link_key),
            _link_target=tuple(link_target),
            _last_dim=tuple(last_dim),
            _forced=tuple(forced),
            _class_kind=tuple(0 if st is None else 1 for st in state),
            _routes=tuple(routes),
            _ubs=tuple(tree.upper_bound_of(old) for old in order),
            _value=tuple(
                None if st is None else value_of(st) for st in state
            ),
            _source_map=remap,
        )

    @classmethod
    def from_buffers(cls, meta: dict, views: dict) -> "FrozenQCTree":
        """Wrap the sections of a ``QCTREE/3`` blob in place.

        ``meta`` is the blob's JSON meta block and ``views`` maps each
        name of :data:`BUFFER_SECTIONS` to its typed ``memoryview``.
        Nothing per node is decoded here: routing dicts, upper bounds,
        values and states fill in on first visit.
        """
        n = meta["counts"]["nodes"]
        self = cls._new(
            n_dims=meta["n_dims"],
            dim_names=tuple(meta["dim_names"]),
            aggregate=make_aggregate(meta["aggregate"]),
            snapshot_meta=dict(meta.get("snapshot_meta") or {}),
            patch_stats={
                "mode": "attached", "dirty": 0, "touched": 0, "appended": 0,
                "tombstoned": 0, "dead_slots": 0, "overlay": 0, "slots": n,
            },
            _stride=meta["stride"],
            _routes=[None] * n,
            _ubs=[None] * n,
            _value=[_UNSET] * n,
            _state_codec=(meta["state_template"],
                          template_width(meta["state_template"])),
            _value_codec=(meta["value_template"],
                          template_width(meta["value_template"])),
            **{"_" + name: views[name] for name in BUFFER_SECTIONS},
        )
        object.__setattr__(self, "state", _LazyStates(self, n))
        return self

    # -- incremental refreeze --------------------------------------------------

    def patch(self, delta) -> "FrozenQCTree":
        """Splice a :class:`~repro.core.maintenance.delta.MaintenanceDelta`
        into a new frozen view, at cost proportional to the dirty set.

        ``delta`` must have been recorded against the tree this view was
        compiled from (the same object, still holding every un-dirty node
        unchanged); the post-mutation tree is the ground truth for what
        each dirty node now contains.  Existing node ids stay stable;
        pruned nodes leave unreachable tombstone slots, new nodes are
        appended past the preorder prefix, and the touched nodes' edge/
        link slices live in an overlay consulted before the shared CSR
        arrays.  The result is immutable and answers every query exactly
        like ``delta.tree.freeze()`` would.

        Fallback heuristics (each produces a full recompile, reported in
        ``patch_stats["mode"]``):

        * :data:`FULL_REFREEZE_RATIO` — when the dirty set exceeds this
          fraction of the live nodes, splicing would touch most of the
          tree anyway (``mode="full"``).
        * :data:`COMPACT_RATIO` — when accumulated tombstones plus
          overlay rows would exceed this fraction of the live nodes, the
          spare capacity is reclaimed by repacking (``mode="compacted"``).
        * representation limits — a label code past the routing-key
          stride's headroom, an unsortable label mix, an unmapped
          neighbor, or an attached tree (``mode="full"``, see
          ``patch_stats["reason"]``).
        """
        tree = delta.tree
        dirty = delta.dirty
        if not dirty:
            return self  # nothing changed; the view is already current

        def full(mode: str, reason: str) -> "FrozenQCTree":
            out = FrozenQCTree.from_tree(tree)
            out.patch_stats.update(mode=mode, reason=reason, dirty=len(dirty))
            return out

        if self._source_map is None:
            return full("full", "attached")
        n_live = self.n_nodes
        if len(dirty) > FULL_REFREEZE_RATIO * max(1, n_live):
            return full("full", "dirty-ratio")

        # -- classify dirty ids against the post-mutation ground truth ----
        free = tree._free_ids
        tree_size = len(tree.node_dim)
        source_map = dict(self._source_map)
        base_slots = len(self._routes)
        dead = set(self._dead)
        gone: list = []      # frozen slots to tombstone
        rebuild: list = []   # (dict id, frozen slot) rows to (re)derive
        appended: list = []  # dict ids gaining brand-new slots
        for d in sorted(dirty):
            alive = d < tree_size and d not in free
            slot = source_map.get(d)
            if not alive:
                if slot is not None:
                    del source_map[d]
                    if slot not in dead:
                        gone.append(slot)
                continue
            if slot is None or slot in dead:
                slot = base_slots + len(appended)
                appended.append(d)
                source_map[d] = slot
            rebuild.append((d, slot))

        # -- compaction: reclaim tombstones + overlay debt by repacking ----
        overlay_after = set(self._edge_over or ())
        overlay_after.update(slot for _, slot in rebuild)
        overlay_after.update(gone)
        dead_after = len(dead) + len(gone)
        live_after = base_slots + len(appended) - dead_after
        if dead_after + len(overlay_after) > COMPACT_RATIO * max(1, live_after):
            return full("compacted", "patch-debt")

        # -- splice ---------------------------------------------------------
        agg = tree.aggregate
        stride = self._stride
        grow = len(appended)
        state = list(self.state) + [None] * grow
        kind = list(self._class_kind) + [0] * grow
        value = list(self._value) + [None] * grow
        ubs = list(self._ubs) + [None] * grow
        routes = list(self._routes) + [None] * grow
        last_dim = list(self._last_dim) + [-1] * grow
        forced = list(self._forced) + [-1] * grow
        edge_over = dict(self._edge_over) if self._edge_over else {}
        link_over = dict(self._link_over) if self._link_over else {}

        for slot in gone:
            dead.add(slot)
            state[slot] = None
            kind[slot] = 0
            value[slot] = None
            ubs[slot] = None
            routes[slot] = {}
            last_dim[slot] = -1
            forced[slot] = -1
            edge_over[slot] = ((), ())
            link_over[slot] = ((), ())

        try:
            for d, slot in rebuild:
                edges, links = _sorted_row(tree, d, source_map)
                if stride and not all(
                    type(val) is int and 0 <= val < stride
                    for part in (edges, links) for (_, val), _ in part
                ):
                    return full("full", "stride-overflow")
                (e_keys, e_children, l_keys, l_targets,
                 routes[slot], last_dim[slot], forced[slot]) = _compile_row(
                    edges, links, stride
                )
                st = tree.state[d]
                state[slot] = st
                kind[slot] = 0 if st is None else 1
                value[slot] = agg.value(st) if st is not None else None
                ubs[slot] = tree.upper_bound_of(d)
                edge_over[slot] = (tuple(e_keys), tuple(e_children))
                link_over[slot] = (tuple(l_keys), tuple(l_targets))
        except TypeError:
            return full("full", "unsortable-labels")
        except KeyError:
            # A rebuilt node references a neighbor the dirty set missed;
            # recompiling is always correct (and the property tests would
            # catch a recorder gap that made this path common).
            return full("full", "unmapped-neighbor")

        return FrozenQCTree._new(
            n_dims=tree.n_dims,
            dim_names=tuple(tree.dim_names),
            aggregate=agg,
            state=tuple(state),
            snapshot_meta=dict(getattr(tree, "snapshot_meta", {})),
            patch_stats={
                "mode": "patched",
                "dirty": len(dirty),
                "touched": len(rebuild),
                "appended": grow,
                "tombstoned": len(gone),
                "dead_slots": len(dead),
                "overlay": len(edge_over),
                "slots": base_slots + grow,
            },
            _stride=stride,
            _edge_start=self._edge_start,
            _edge_key=self._edge_key,
            _edge_child=self._edge_child,
            _link_start=self._link_start,
            _link_key=self._link_key,
            _link_target=self._link_target,
            _last_dim=tuple(last_dim),
            _forced=tuple(forced),
            _class_kind=tuple(kind),
            _routes=tuple(routes),
            _ubs=tuple(ubs),
            _value=tuple(value),
            _source_map=source_map,
            _dead=frozenset(dead),
            _edge_over=edge_over,
            _link_over=link_over,
        )

    # -- immutability --------------------------------------------------------

    def __setattr__(self, name, value):
        raise TypeError("FrozenQCTree is immutable")

    def __delattr__(self, name):
        raise TypeError("FrozenQCTree is immutable")

    # -- storage access ------------------------------------------------------

    def _row(self, node: int, links: bool = False):
        """``(keys, targets, lo, hi)`` — ``node``'s sorted edge (or link)
        slice: a patched node's overlay row, else its CSR slice."""
        if links:
            over, start = self._link_over, self._link_start
            keys, targets = self._link_key, self._link_target
        else:
            over, start = self._edge_over, self._edge_start
            keys, targets = self._edge_key, self._edge_child
        if over:
            pair = over.get(node)
            if pair is not None:
                return pair[0], pair[1], 0, len(pair[0])
        return keys, targets, start[node], start[node + 1]

    def _route_of(self, node: int) -> dict:
        """Build and cache ``node``'s routing dict (attached trees, on
        first visit): links first, so edges shadow them."""
        route = {}
        for links in (True, False):
            keys, targets, lo, hi = self._row(node, links)
            for i in range(lo, hi):
                route[keys[i]] = targets[i]
        self._routes[node] = route
        return route

    def _decode(self, data, codec, node: int):
        """One node's state/value from its packed ``float64`` row."""
        if not self._class_kind[node]:
            return None
        template, width = codec
        base = node * width
        return _rebuild(template, data[base:base + width], 0)[0]

    # -- size & iteration ----------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return len(self._routes) - len(self._dead)

    @property
    def n_links(self) -> int:
        total = len(self._link_key)
        over = self._link_over
        if over:
            start = self._link_start
            base_n = len(start) - 1
            for node, (keys, _) in over.items():
                total += len(keys)
                if node < base_n:
                    total -= start[node + 1] - start[node]
        return total

    @property
    def n_classes(self) -> int:
        return sum(self._class_kind)

    def iter_nodes(self) -> Iterator[int]:
        """Live node ids (preorder for a fresh compile; a patched view
        appends new nodes past the preorder prefix and skips tombstones)."""
        dead = self._dead
        if not dead:
            return iter(range(len(self._routes)))
        return (n for n in range(len(self._routes)) if n not in dead)

    def iter_class_nodes(self) -> Iterator[int]:
        kind = self._class_kind
        return (node for node in range(len(kind)) if kind[node])

    def _iter_row(self, node: int, links: bool) -> Iterator[tuple]:
        keys, targets, lo, hi = self._row(node, links)
        stride = self._stride
        for i in range(lo, hi):
            dim, value = divmod(keys[i], stride) if stride else keys[i]
            yield dim, value, targets[i]

    def iter_children_of(self, node: int) -> Iterator[tuple]:
        return self._iter_row(node, False)

    def iter_links_of(self, node: int) -> Iterator[tuple]:
        return self._iter_row(node, True)

    def iter_links(self) -> Iterator[tuple]:
        for node in self.iter_nodes():
            for dim, value, target in self._iter_row(node, True):
                yield node, dim, value, target

    # -- traversal protocol --------------------------------------------------

    def _find(self, node: int, dim: int, value, links: bool) -> Optional[int]:
        key = _route_key(self._stride, dim, value)
        if key is _ABSENT:
            return None
        keys, targets, lo, hi = self._row(node, links)
        try:
            i = bisect_left(keys, key, lo, hi)
        except TypeError:
            return None  # value type never present in this dimension
        if i < hi and keys[i] == key:
            return targets[i]
        return None

    def child(self, node: int, dim: int, value) -> Optional[int]:
        """Tree child of ``node`` labeled ``(dim, value)``, or None."""
        return self._find(node, dim, value, False)

    def link_target(self, node: int, dim: int, value) -> Optional[int]:
        """Link target of ``node`` labeled ``(dim, value)``, or None."""
        return self._find(node, dim, value, True)

    def last_child_dim(self, node: int) -> Optional[int]:
        """The largest dimension with a tree child (precomputed)."""
        last = self._last_dim[node]
        return None if last < 0 else last

    def children_in_dim(self, node: int, dim: int) -> dict:
        """Mapping ``value -> child`` of ``node``'s tree children in ``dim``."""
        keys, children, lo, hi = self._row(node)
        stride = self._stride
        first = bisect_left(keys, dim * stride if stride else (dim,), lo, hi)
        out = {}
        for i in range(first, hi):
            d, value = divmod(keys[i], stride) if stride else keys[i]
            if d != dim:
                break
            out[value] = children[i]
        return out

    # -- cell <-> node -------------------------------------------------------

    def upper_bound_of(self, node: int) -> Cell:
        """The cell spelled by ``node``'s root path (O(1) once decoded)."""
        ub = self._ubs[node]
        if ub is None:
            flat = self._ub
            base = node * self.n_dims
            ub = self._ubs[node] = tuple(
                ALL if v < 0 else v for v in flat[base:base + self.n_dims]
            )
        return ub

    def value_at(self, node: int):
        """User-facing aggregate value at a class node (None elsewhere)."""
        value = self._value[node]
        if value is _UNSET:
            value = self._value[node] = self._decode(
                self._value_data, self._value_codec, node
            )
        return value

    def class_upper_bounds(self) -> dict:
        return {
            self.upper_bound_of(node): self.value_at(node)
            for node in self.iter_class_nodes()
        }

    # -- Algorithm 3 fast paths ----------------------------------------------

    def _search_route(self, node: int, dim: int, value,
                      counter=None) -> Optional[int]:
        """``search_route`` over the arrays; answers and counts exactly
        like :func:`repro.core.point_query.search_route`.
        :func:`repro.core.range_query.range_classes` binds this per query.
        """
        routes = self._routes
        forced = self._forced
        last_dim = self._last_dim
        key = _route_key(self._stride, dim, value)
        while True:
            route = routes[node]
            if route is None:
                route = self._route_of(node)
            nxt = route.get(key)
            if nxt is not None:
                if counter is not None:
                    counter[0] += 1
                return nxt
            last = last_dim[node]
            if last < 0 or last >= dim:
                return None
            node = forced[node]
            if node < 0:
                return None
            if counter is not None:
                counter[0] += 1

    def _descend_to_class(self, node: int, counter=None) -> Optional[int]:
        """``descend_to_class`` via the precomputed forced-child array."""
        kind = self._class_kind
        forced = self._forced
        while not kind[node]:
            node = forced[node]
            if node < 0:
                return None
            if counter is not None:
                counter[0] += 1
        return node

    def _locate(self, cell: Cell, counter=None) -> Optional[int]:
        """Algorithm 3 over the arrays; semantics and node-access counts
        identical to :func:`repro.core.point_query.locate_generic`.
        """
        routes = self._routes
        stride = self._stride
        forced = self._forced
        last_dim = self._last_dim
        kind = self._class_kind
        node = 0
        if counter is not None:
            counter[0] += 1
        for dim, value in enumerate(cell):
            if value is ALL:
                continue
            key = _route_key(stride, dim, value)
            while True:
                route = routes[node]
                if route is None:
                    route = self._route_of(node)
                nxt = route.get(key)
                if nxt is not None:
                    node = nxt
                    if counter is not None:
                        counter[0] += 1
                    break
                # Lemma 2 fallback: the unique child in the last
                # child-bearing dimension, valid only before ``dim``.
                last = last_dim[node]
                if last < 0 or last >= dim:
                    return None
                nxt = forced[node]
                if nxt < 0:
                    return None
                node = nxt
                if counter is not None:
                    counter[0] += 1
        while not kind[node]:
            nxt = forced[node]
            if nxt < 0:
                return None
            node = nxt
            if counter is not None:
                counter[0] += 1
        ub = self._ubs[node]
        if ub is None:
            ub = self.upper_bound_of(node)
        for cv, uv in zip(cell, ub):
            if cv is not ALL and cv != uv:
                return None
        return node

    def _point_query(self, cell: Cell):
        """Aggregate value of ``cell`` or None — the tightest serving path.

        Same walk as :meth:`_locate` with the access counter, the node
        id, and every method call a heap tree does not need stripped out;
        :func:`repro.core.point_query.point_query` dispatches here.
        """
        if len(cell) != self.n_dims:
            raise QueryError(
                f"query cell {cell!r} has {len(cell)} positions, tree has "
                f"{self.n_dims} dimensions"
            )
        routes = self._routes
        stride = self._stride
        forced = self._forced
        last_dim = self._last_dim
        kind = self._class_kind
        node = 0
        for dim, value in enumerate(cell):
            if value is ALL:
                continue
            if stride:
                try:
                    key = (
                        dim * stride + value
                        if 0 <= value < stride else _ABSENT
                    )
                except TypeError:
                    key = _ABSENT
            else:
                key = (dim, value)
            while True:
                route = routes[node]
                if route is None:
                    route = self._route_of(node)
                nxt = route.get(key)
                if nxt is not None:
                    node = nxt
                    break
                last = last_dim[node]
                if last < 0 or last >= dim:
                    return None
                node = forced[node]
                if node < 0:
                    return None
        while not kind[node]:
            node = forced[node]
            if node < 0:
                return None
        ub = self._ubs[node]
        if ub is None:
            ub = self.upper_bound_of(node)
        for cv, uv in zip(cell, ub):
            if cv is not ALL and cv != uv:
                return None
        value = self._value[node]
        return self.value_at(node) if value is _UNSET else value

    def _batch_routes(self):
        """Every edge and link as a sorted key ``(node * n_dims + dim) *
        stride + code`` and its target, edges shadowing links as in
        :meth:`_route_of`; built on first use, kept on the tree."""
        routes = self._batch
        if routes is None:
            n = len(self._routes)
            width = self.n_dims * self._stride
            if n * width >= _KEY_SENTINEL:
                raise OverflowError("batch routing keys overflow int64")
            keys, targets = [], []
            for start, key, target in (
                    (self._link_start, self._link_key, self._link_target),
                    (self._edge_start, self._edge_key, self._edge_child)):
                fan = np.diff(np.asarray(start))
                owner = np.repeat(np.arange(n, dtype=np.int64), fan)
                keys.append(owner * width + np.asarray(key))
                targets.append(np.asarray(target))
            keys = np.concatenate(keys)
            order = np.argsort(keys, kind="stable")
            keys, targets = keys[order], np.concatenate(targets)[order]
            last = np.ones(keys.size, dtype=bool)
            last[:-1] = keys[1:] != keys[:-1]
            routes = (np.append(keys[last], _KEY_SENTINEL),
                      np.append(targets[last], -1))
            object.__setattr__(self, "_batch", routes)
        return routes

    def _point_query_batch(self, table, cells) -> list:
        """Algorithm 3 over raw-label cells of ``n_dims`` labels, on
        attached storage: each answer as ``point_query_raw`` gives it.
        The frontier advances one dimension at a time — a
        ``searchsorted`` over :meth:`_batch_routes` for every live cell,
        Lemma 2's descents as masked retries."""
        n_dims, stride = self.n_dims, self._stride
        keys, targets = self._batch_routes()
        codes = np.empty((len(cells), n_dims), dtype=np.int64)
        for dim, column in enumerate(zip(*cells)):
            code = table._encoders[dim].get
            codes[:, dim] = [-1 if v is ALL or v is None or v == "*"
                             else code(v, -2) for v in column]
        live = ((codes >= -1) & (codes < stride)).all(axis=1)
        bound = codes >= 0
        node = np.zeros(len(cells), dtype=np.int64)
        forced, last_dim = np.asarray(self._forced), np.asarray(self._last_dim)
        width = n_dims * stride
        for dim in range(n_dims):
            todo = np.flatnonzero(live & bound[:, dim])
            label = codes[todo, dim] + dim * stride
            while todo.size:
                at = node[todo]
                want = at * width + label
                pos = keys.searchsorted(want)
                hit = keys[pos] == want
                node[todo] = np.where(hit, targets[pos], forced[at])
                if hit.all():
                    break
                # Lemma 2: a miss retries from the forced child of a last
                # child-bearing dimension before ``dim``, or is not a cell.
                last = last_dim[at]
                retry = ~hit & (last >= 0) & (last < dim) & (node[todo] >= 0)
                live[todo[~(hit | retry)]] = False
                todo, label = todo[retry], label[retry]
        kind = np.asarray(self._class_kind)
        todo = np.flatnonzero(live)
        while todo.size:
            todo = todo[kind[node[todo]] == 0]
            node[todo] = forced[node[todo]]
            live[todo[node[todo] < 0]] = False
            todo = todo[node[todo] >= 0]
        hits = np.flatnonzero(live)
        ub = np.asarray(self._ub).reshape(-1, n_dims)[node[hits]]
        wrong = (ub != codes[hits]) & bound[hits]
        hits = hits[~wrong.any(axis=1)]
        values = [None] * len(cells)
        if hits.size:
            template, value_width = self._value_codec
            found = np.asarray(self._value_data).reshape(
                -1, value_width)[node[hits]]
            if isinstance(template, list):
                found = [_rebuild(template, row, 0)[0]
                         for row in found.tolist()]
            else:
                found = found[:, 0].astype(
                    int if template == "i" else float).tolist()
            for i, value in zip(hits.tolist(), found):
                values[i] = value
        return values

    # -- packing -------------------------------------------------------------

    def pack(self, table=None, stamp=(0, 0)) -> bytes:
        """Serialize this tree to the zero-copy ``QCTREE/3`` layout (see
        :mod:`repro.shard.pack`): typed little-endian buffers attachable
        from shared memory or an mmap'd file and traversed in place by
        :meth:`from_buffers`.  The writer reads this tree's arrays in
        bulk (no per-node walk); a patched view (overlays, tombstones,
        appended slots) compacts into fresh contiguous ids on the way
        out.  ``table`` embeds the base table, making the blob a
        complete serving snapshot."""
        from repro.shard.pack import pack_snapshot_bytes

        return pack_snapshot_bytes(self, table=table, stamp=stamp)

    # -- comparison & display ------------------------------------------------

    # Written against the traversal protocol only, so the dict tree's
    # own definitions serve every representation.
    signature = QCTree.signature
    equivalent_to = QCTree.equivalent_to
    stats = QCTree.stats

    def __repr__(self):
        mode = self.patch_stats.get("mode", "fresh")
        flag = "" if mode == "fresh" else f", {mode}"
        return (
            f"FrozenQCTree(nodes={self.n_nodes}, links={self.n_links}, "
            f"classes={self.n_classes}, aggregate={self.aggregate.name}"
            f"{flag})"
        )
