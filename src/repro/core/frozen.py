"""``FrozenQCTree`` — the one immutable, array-backed QC-tree reads run on.

The mutable :class:`~repro.core.qctree.QCTree` stores edges and links as
nested dicts, which is ideal for incremental maintenance but pays pointer
chasing, per-step allocation, and an O(depth) ``upper_bound_of`` walk on
every query.  The read tree is a dense, pointer-free layout in the spirit
of compact multidimensional-array cube representations:

* nodes are numbered in preorder (root is 0);
* tree edges and drill-down links live in CSR-style parallel arrays —
  per-node *sorted* key slices resolved with :mod:`bisect`, keys being
  ``dim * stride + value`` ints — plus a merged per-node *routing* dict
  (edges shadow links on equal labels) so one probe per step serves
  Algorithm 3's edge-then-link rule;
* ``last_dim`` and the Lemma-2 *forced* descent (the unique child in
  the last child-bearing dimension) are precomputed per node, and a
  class-kind vector marks the aggregate-bearing nodes;
* every node's upper bound is a row of label codes, turning the final
  verification of Algorithm 3 into an O(1) fetch, and class states and
  values are fixed-width ``float64`` rows.

One storage
-----------
Every frozen tree is the typed ``memoryview`` sections of the
``QCTREE/3`` layout (:data:`BUFFER_SECTIONS`, :mod:`repro.shard.pack`)
wrapped by :meth:`FrozenQCTree.from_buffers`, and one compiler makes
them with array operations (:func:`compile_columns`):
:func:`~repro.core.construct.build_frozen` feeds it Algorithm 1's
insertion plan — every piece is born so — and :meth:`from_tree` a
maintained dict tree (the live head's full refreeze);
:func:`repro.shard.pack.attach_packed` slices them out of a blob in
shared memory, and :meth:`QCTree.from_frozen
<repro.core.qctree.QCTree.from_frozen>` thaws them back into a dict
tree.  A node's routing dict, upper-bound tuple and value/state decode
on first visit and are
cached.  The traversal protocol shared with the dict tree, the batch
kernel (``_point_query_batch``) and Algorithm 3 are written once: the
tree answers it with the same three methods as the dict tree
(``locate`` / ``search_route`` / ``descend_to_class``), one walk each
over the arrays, and answers and node-access counts equal the
protocol reference's (:mod:`repro.core.point_query`); ``frozen.
signature() == tree.signature()``.  Only what the layout holds freezes:
labels must be non-negative int codes (a tree built from a
:class:`~repro.cube.table.BaseTable` has them) and class states one
shape of int (|x| < 2**53) and float leaves; anything else raises
:class:`~repro.errors.SerializationError`.  Every key is the int
``dim * stride + value``, with ``stride > 0`` even on a root-only tree.

Incremental refreeze
--------------------
:meth:`patch` splices a recorded :class:`~repro.core.maintenance.delta.
MaintenanceDelta` into a *new* tree at cost proportional to the dirty
set: the overlay, consulted before the shared CSR arrays, holds the
edge/link rows of structurally changed nodes; states, values, class
kinds and new bounds are section writes, so a node whose state alone
changed (§3.3's *update* fate, most of a batch) is a column write.
Pruned nodes leave tombstones, new nodes are appended.  It recompiles
with :meth:`from_tree` past :data:`FULL_REFREEZE_RATIO`, when
tombstone/overlay debt passes :data:`COMPACT_RATIO`, or when a splice
cannot express the delta (a label past the stride's headroom; a payload
the layout cannot hold, which the compile refuses as ``freeze()`` does;
an attached tree).  Either way it answers like a from-scratch freeze.

Instances are immutable: attribute assignment after construction raises
:class:`TypeError`, so a tree can be shared across threads (the lazy
caches only ever fill a slot with the one value it can hold) and cached
query results can never be invalidated by in-place edits — the
warehouse swaps in a whole new tree instead.
"""

from __future__ import annotations

from bisect import bisect_left
from contextlib import suppress
from itertools import compress
from typing import Iterator, Optional

import numpy as np

from repro.core.cells import ALL, Cell
from repro.core.qctree import QCTree
from repro.cube.aggregates import make_aggregate
from repro.errors import SerializationError


#: Routing-key sentinel guaranteed to miss every per-node routing dict:
#: used for query values that cannot possibly label an edge or link.
_ABSENT = object()

#: Marks a value/state slot not decoded yet (``None`` is taken: it is
#: the decoded value of a non-class node).
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

#: The ``QCTREE/3`` sections a frozen tree reads in place; section
#: ``name`` is held in slot ``_name``.
BUFFER_SECTIONS = (
    "edge_start", "edge_key", "edge_child",
    "link_start", "link_key", "link_target",
    "last_dim", "forced", "ub", "class_kind", "state_data", "value_data",
)

_MAX_EXACT_INT = 2 ** 53


def _route_key(stride, dim, value):
    """The routing/CSR key ``dim * stride + value`` for label ``(dim,
    value)``.

    Out-of-range and un-comparable values map to :data:`_ABSENT` so they
    miss the table — exactly as they would miss the dict tree's nested
    dicts.  Numeric edge cases keep dict-lookup parity: ``3.0`` finds the
    code ``3`` (equal numbers hash alike), ``3.5`` misses.
    """
    try:
        if 0 <= value < stride:
            return dim * stride + value
    except TypeError:
        pass
    return _ABSENT


def _overlay_row(by_dim: dict, slot_of, stride):
    """``(keys, slots)``: a dict node's ``{dim: {value: neighbor}}``
    edges (or links) as a row of ``dim * stride + value`` keys in sorted
    order, mapped through ``slot_of`` — or None when a label is not an
    int code below the stride.  Raises ``TypeError`` when a dimension
    mixes label types that do not sort and ``LookupError`` when a
    neighbor has no slot (``-1``)."""
    keys: list = []
    slots: list = []
    for dim in sorted(by_dim):
        by_value = by_dim[dim]
        values = sorted(by_value)
        if (not all(type(value) is int for value in values)
                or values[0] < 0 or values[-1] >= stride):
            return None
        keys += [dim * stride + value for value in values]
        slots += map(slot_of.__getitem__, map(by_value.__getitem__, values))
    if -1 in slots:
        raise LookupError("a neighbor has no slot")
    return tuple(keys), tuple(slots)


# -- the columns -------------------------------------------------------------


def _codes(labels: list) -> np.ndarray:
    """``labels`` as an ``int64`` array — checked a column at a time,
    rescanned only to name a label the layout cannot hold (it needs
    dictionary-encoded non-negative int codes that fit ``int64``)."""
    if set(map(type, labels)) <= {int}:
        with suppress(OverflowError):
            codes = np.array(labels, dtype=np.int64)
            if codes.min(initial=0) >= 0:
                return codes
    bad = next(value for value in labels if type(value) is not int
               or not 0 <= value < 2 ** 63)
    raise SerializationError(
        f"cannot pack label {bad!r}: the packed layout requires "
        "dictionary-encoded non-negative int codes (build the tree "
        "from a BaseTable)"
    )


def template_of(sample):
    """The shape template of one aggregate state/value: nested lists of
    ``"i"`` (int leaf) / ``"f"`` (float leaf)."""
    if isinstance(sample, tuple):
        return [template_of(part) for part in sample]
    if isinstance(sample, bool) or not isinstance(sample, (int, float)):
        raise SerializationError(
            f"cannot pack aggregate payload {sample!r}: only ints, floats "
            "and (nested) tuples of them are packable"
        )
    return "i" if isinstance(sample, int) else "f"


def template_leaves(template) -> list:
    """The ``"i"`` / ``"f"`` leaves of a template, in packed order."""
    if isinstance(template, list):
        return [leaf for sub in template for leaf in template_leaves(sub)]
    return [] if template is None else [template]


def template_width(template) -> int:
    """Number of ``float64`` leaves in a packed state/value template."""
    return len(template_leaves(template))


def leaf_columns(values, template, out) -> None:
    """Append one ``float64`` column per leaf of ``template`` to ``out``,
    holding that leaf of every payload in ``values`` — after verifying
    that *each* payload matches the template's shape and leaf types
    exactly (so reconstruction is lossless).  The checks run a column at
    a time (type sets, ``min``/``max``); only a failing column is
    rescanned to name the offending value."""
    kinds = set(map(type, values))
    if isinstance(template, list):
        width = len(template)
        if (not all(issubclass(kind, tuple) for kind in kinds)
                or set(map(len, values)) != {width}):
            bad = next(v for v in values
                       if not isinstance(v, tuple) or len(v) != width)
            raise SerializationError(
                f"aggregate payload {bad!r} does not match the tree's "
                f"uniform shape {template!r}"
            )
        for column, sub in zip(zip(*values), template):
            leaf_columns(column, sub, out)
        return
    if template == "i":
        if (any(kind is bool or not issubclass(kind, int) for kind in kinds)
                or not -_MAX_EXACT_INT < min(values)
                or not max(values) < _MAX_EXACT_INT):
            bad = next(v for v in values if type(v) is bool
                       or not isinstance(v, int)
                       or not -_MAX_EXACT_INT < v < _MAX_EXACT_INT)
            raise SerializationError(
                f"aggregate int payload {bad!r} is not exactly packable "
                "as float64"
            )
    elif not all(issubclass(kind, float) for kind in kinds):
        bad = next(v for v in values if not isinstance(v, float))
        raise SerializationError(
            f"aggregate payload {bad!r} does not match the tree's "
            f"uniform leaf type {template!r}"
        )
    out.append(np.fromiter(values, dtype=np.float64, count=len(values)))


def lemma2_columns(edge_start, edge_dim, edge_child):
    """``(last_dim, forced)`` of every node from its ``(dim, value)``-
    sorted edge rows: a node's last dimension is its last edge's, and
    the Lemma-2 descent is forced iff that dimension holds exactly one
    child (``-1`` where there is none)."""
    n = edge_start.size - 1
    last_dim = np.full(n, -1, dtype=np.int64)
    forced = np.full(n, -1, dtype=np.int64)
    parents = np.flatnonzero(np.diff(edge_start))
    tail = edge_start[parents + 1] - 1
    last_dim[parents] = edge_dim[tail]
    lone = (tail == edge_start[parents]) | (edge_dim[tail - 1] != edge_dim[tail])
    forced[parents[lone]] = edge_child[tail[lone]]
    return last_dim, forced


def _csr_start(owner, n: int) -> np.ndarray:
    start = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(owner, minlength=n), out=start[1:])
    return start


def _view(array, fmt: str = "q") -> memoryview:
    """``array`` as a flat typed ``memoryview`` — the kind of section
    :func:`repro.shard.pack.attach_packed` hands over."""
    flat = np.ascontiguousarray(array, dtype="<f8" if fmt == "d" else "<i8")
    return memoryview(flat.reshape(-1)).cast("B").cast(fmt)


def _payload_rows(payloads: list, class_ids, n: int, template=None,
                  base=()):
    """``(template, matrix)``: an ``n × width`` ``float64`` matrix of
    the packed rows ``base`` (zeros past them), with row ``class_ids[k]``
    the leaves of ``payloads[k]`` checked by :func:`leaf_columns`; the
    first payload sets a missing template."""
    if template is None and payloads:
        template = template_of(payloads[0])
    columns: list = []
    if payloads:
        leaf_columns(payloads, template, columns)
    matrix = np.zeros((n, template_width(template)), dtype=np.float64)
    matrix.reshape(-1)[:len(base)] = base
    for j, column in enumerate(columns):
        matrix[class_ids, j] = column
    return template, matrix


def _tree_columns(tree: QCTree):
    """:func:`compile_columns` fed from a dict tree: its parallel lists,
    labels checked by :func:`_codes`, and its link dicts read in one
    Python pass.  Returns the compile with each dict id's slot as a
    list (the :meth:`FrozenQCTree.patch` map)."""
    free = [tree.root, *tree._free_ids]
    labels = list(tree.node_value)
    for node in free:
        labels[node] = 0
    links = tree.links
    link_src, link_dim, fan, link_val, link_dst = [], [], [], [], []
    for node in compress(range(len(links)), links):
        for d, by_value in links[node].items():
            link_src.append(node)
            link_dim.append(d)
            fan.append(len(by_value))
            link_val += by_value
            link_dst += by_value.values()
    fan = np.array(fan, dtype=np.int64)
    holds = [state is not None for state in tree.state]
    for node in tree._free_ids:
        holds[node] = False  # a freed slot is off the tree, state or not
    meta, views, slot = compile_columns(
        dict(n_dims=tree.n_dims, dim_names=tree.dim_names,
             aggregate=tree.aggregate),
        np.array(tree.parent, dtype=np.int64),
        np.array(tree.node_dim, dtype=np.int64), _codes(labels),
        np.setdiff1d(np.arange(len(labels)), free),
        (np.repeat(np.array(link_src, dtype=np.int64), fan),
         np.repeat(np.array(link_dim, dtype=np.int64), fan),
         _codes(link_val), np.array(link_dst, dtype=np.int64)),
        np.flatnonzero(holds), list(compress(tree.state, holds)),
    )
    return meta, views, slot.tolist()


def compile_columns(header, parent, dim, value, kids, links, class_nodes,
                    payloads):
    """The one compiler of the ``QCTREE/3`` sections: the meta block
    (``header``'s ``n_dims``, ``dim_names`` and ``aggregate`` plus what
    the compile finds) and typed :data:`BUFFER_SECTIONS` views
    :meth:`FrozenQCTree.from_buffers` takes, and each node id's preorder
    slot (``-1`` off the tree).

    Node 0 is the root; ``kids`` are the other ids in the tree, with
    ``parent``, ``dim`` and non-negative ``value`` indexed by id
    (``int64`` arrays); ``links`` is ``(source, dim, value, target)``
    arrays, one link per source and label; ``payloads[k]`` is node
    ``class_nodes[k]``'s state.  Upper bounds take at most ``n_dims``
    parent-pointer steps, the preorder (children by ``(dim, value)``)
    one sort of the root paths.  The stride keeps 2× headroom past the
    largest code (2 on a root-only tree), so :meth:`FrozenQCTree.patch`
    can splice in freshly minted codes without re-keying
    (:func:`repro.shard.pack.pack_snapshot_bytes` re-strides tight).
    """
    n_dims = header["n_dims"]
    link_src, link_dim, link_val, link_dst = links
    top = max(int(value[kids].max(initial=-1)), int(link_val.max(initial=-1)))
    stride = 2 * (max(top, 0) + 1)

    # Upper bounds (ALL as -1) from the parent pointers.
    ids = np.concatenate(([0], kids))
    ub = np.full((ids.size, n_dims), -1, dtype=np.int64)
    row, at = np.arange(1, ids.size), kids
    for _ in range(n_dims):
        ub[row, dim[at]] = value[at]
        at = parent[at]
        keep = at != 0
        row, at = row[keep], at[keep]
    # Preorder: a root path holds its value in each dimension it labels,
    # ``stride`` (past every value) in one it skips on the way to a
    # deeper label, and -1 past its own, so a prefix sorts before its
    # extensions and siblings by (dim, value).
    own = np.concatenate(([-1], dim[kids]))
    path = np.where((ub < 0) & (np.arange(n_dims) < own[:, None]), stride, ub)
    pre = np.lexsort(path.T[::-1])
    order, ub = ids[pre], ub[pre]
    n = order.size
    slot = np.full(dim.size, -1, dtype=np.int64)
    slot[order] = np.arange(n)

    # Edges: preorder numbers siblings in (dim, value) order, so a
    # stable sort by parent leaves every row sorted.
    child, owner = order[1:], slot[parent[order[1:]]]
    by_parent = np.argsort(owner, kind="stable")
    edge_child = np.arange(1, n)[by_parent]
    edge_dim = dim[child][by_parent]
    edge_start = _csr_start(owner, n)
    last_dim, forced = lemma2_columns(edge_start, edge_dim, edge_child)

    link_owner = slot[link_src]
    link_key = link_dim * stride + link_val
    by_owner = np.lexsort((link_key, link_owner))

    class_slots = slot[class_nodes]
    kind = np.zeros(n, dtype=np.int64)
    kind[class_slots] = 1
    meta = dict(header, stride=stride, counts={"nodes": n})
    meta["state_template"], state_data = _payload_rows(payloads,
                                                       class_slots, n)
    meta["value_template"], value_data = _payload_rows(
        list(map(header["aggregate"].value, payloads)), class_slots, n)
    views = dict(
        state_data=_view(state_data, "d"), value_data=_view(value_data, "d"),
        edge_start=_view(edge_start),
        edge_key=_view(edge_dim * stride + value[order[edge_child]]),
        edge_child=_view(edge_child),
        link_start=_view(_csr_start(link_owner, n)),
        link_key=_view(link_key[by_owner]),
        link_target=_view(slot[link_dst][by_owner]),
        last_dim=_view(last_dim), forced=_view(forced), ub=_view(ub),
        class_kind=_view(kind),
    )
    return meta, views, slot


def live_rows(tree, links: bool, live, remap):
    """One CSR family (edges, or links) of a frozen ``tree`` gathered
    onto its live slots: ``(start, dims, values, targets)``, the rows of
    the slots ``live`` marks in slot order with every target mapped
    through ``remap``.

    A patched view's overlay rows (``slot -> (keys, targets)``, which
    shadow the shared CSR sections) are appended behind them — the only
    Python loop, O(dirty) — and one ragged gather fetches every live
    slot's row, so tombstones, stale shadowed rows and spare capacity
    drop out.  A target that is tombstoned or out of range raises
    :class:`SerializationError`.
    """
    if links:
        start, keys, targets = tree._link_start, tree._link_key, tree._link_target
        over, what = tree._link_over, "link"
    else:
        start, keys, targets = tree._edge_start, tree._edge_key, tree._edge_child
        over, what = tree._edge_over, "edge"
    slots = live.size
    start = np.asarray(start, dtype=np.int64)
    base = start.size - 1
    begin = np.zeros(slots, dtype=np.int64)
    count = np.zeros(slots, dtype=np.int64)
    begin[:base] = start[:-1]
    count[:base] = np.diff(start)
    over_keys: list = []
    over_targets: list = []
    for slot, (row_keys, row_targets) in (over or {}).items():
        begin[slot] = len(keys) + len(over_keys)
        count[slot] = len(row_keys)
        over_keys.extend(row_keys)
        over_targets.extend(row_targets)
    begin, count = begin[live], count[live]
    new_start = np.zeros(count.size + 1, dtype=np.int64)
    np.cumsum(count, out=new_start[1:])
    pick = np.repeat(begin - new_start[:-1], count) + np.arange(new_start[-1])

    dims, values = np.divmod(np.concatenate([
        np.asarray(keys, dtype=np.int64),
        np.asarray(over_keys, dtype=np.int64),
    ])[pick], tree._stride)
    hops = np.concatenate([
        np.asarray(targets, dtype=np.int64),
        np.asarray(over_targets, dtype=np.int64),
    ])[pick]
    sound = (hops >= 0) & (hops < slots)
    sound[sound] = live[hops[sound]]
    if not sound.all():
        at = int(np.flatnonzero(~sound)[0])
        owner = int(np.searchsorted(new_start, at, side="right")) - 1
        raise SerializationError(
            f"cannot pack {what} ({int(dims[at])}, {int(values[at])}) of "
            f"node {owner}: it points at slot {int(hops[at])}, which is "
            "tombstoned or out of range"
        )
    return new_start, dims, values, remap[hops]


def _payloads(template, matrix) -> list:
    """The payloads of a packed ``float64`` matrix's rows (the inverse
    of :func:`leaf_columns`), decoded a column at a time."""
    columns = iter(matrix.T)

    def decode(leaf):
        if isinstance(leaf, list):
            return list(zip(*map(decode, leaf)))
        column = next(columns)
        return (column.astype(np.int64) if leaf == "i" else column).tolist()

    return decode(template)


def _rebuild(template, flat, pos: int):
    """Rebuild one aggregate state/value from its packed ``float64``
    leaves (the inverse of :func:`leaf_columns`); returns ``(value,
    next_pos)``."""
    if isinstance(template, list):
        parts = []
        for sub in template:
            value, pos = _rebuild(sub, flat, pos)
            parts.append(value)
        return tuple(parts), pos
    leaf = flat[pos]
    return (int(leaf) if template == "i" else leaf), pos + 1


def _decode(kind, data, codec, node: int):
    """One node's state/value from its packed ``float64`` row (None off
    the classes)."""
    if not kind[node]:
        return None
    template, width = codec
    base = node * width
    return _rebuild(template, data[base:base + width], 0)[0]


class _LazyStates:
    """``tree.state``: a sequence decoding each class state from the
    packed state matrix on first access (``_cache`` holds what is
    decoded, and what a patch put there).  It holds the tree's sections,
    not the tree: a reference cycle would keep every superseded tree
    alive until a full collection."""

    __slots__ = ("_kind", "_data", "_codec", "_cache")

    def __init__(self, tree, cache: list):
        self._kind, self._data, self._codec, self._cache = (
            tree._class_kind, tree._state_data, tree._state_codec, cache)

    def __len__(self) -> int:
        return len(self._cache)

    def __getitem__(self, node: int):
        state = self._cache[node]
        if state is _UNSET:
            state = self._cache[node] = _decode(
                self._kind, self._data, self._codec, node
            )
        return state


class FrozenQCTree:
    """Read-optimized immutable QC-tree over ``QCTREE/3`` sections.

    Build via :meth:`QCTree.freeze` (or :meth:`from_tree`), or attach a
    ``QCTREE/3`` blob with :func:`repro.shard.pack.attach_packed`; node
    ids are compact preorder ids, *not* the source tree's ids.  A
    :meth:`patch` keeps existing ids stable, appends new nodes past the
    preorder prefix, and leaves tombstone slots where nodes were pruned.
    """

    __slots__ = (
        "n_dims", "dim_names", "aggregate", "root", "state",
        "patch_stats", "_stride",
        "_edge_start", "_edge_key", "_edge_child",
        "_link_start", "_link_key", "_link_target",
        "_last_dim", "_forced", "_class_kind",
        "_ub", "_state_data", "_value_data", "_state_codec", "_value_codec",
        # decode caches: routing dicts, upper-bound tuples, values
        "_routes", "_ubs", "_value",
        # patch bookkeeping: each dict id's slot (-1 for none; None on an
        # attached tree), tombstones, and the overlay rows of touched slots
        "_source_map", "_dead", "_edge_over", "_link_over",
        # the batch kernel's routing keys
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
        for slot in ("_source_map", "_edge_over", "_link_over", "_batch"):
            object.__setattr__(self, slot, None)
        object.__setattr__(self, "_dead", frozenset())
        object.__setattr__(self, "root", 0)
        for slot, value in fields.items():
            object.__setattr__(self, slot, value)
        return self

    @classmethod
    def from_tree(cls, tree: QCTree) -> "FrozenQCTree":
        """Compile the dict ``tree`` into its ``QCTREE/3`` sections
        (:func:`compile_columns`).  Raises :class:`SerializationError`
        for a tree the layout cannot hold (see the module docstring)."""
        return cls.from_columns(*_tree_columns(tree))

    @classmethod
    def from_columns(cls, meta: dict, views: dict,
                     source_map) -> "FrozenQCTree":
        """A fresh compile: :meth:`from_buffers` over sections
        :func:`compile_columns` just made, keeping ``source_map`` (each
        source node id's slot) for :meth:`patch`."""
        self = cls.from_buffers(meta, views)
        self.patch_stats.update(mode="fresh", dirty=self.n_nodes,
                                touched=self.n_nodes)
        object.__setattr__(self, "_source_map", source_map)
        return self

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
            patch_stats={
                "mode": "attached", "dirty": 0, "restated": 0, "touched": 0,
                "appended": 0, "tombstoned": 0, "dead_slots": 0, "overlay": 0,
                "slots": n,
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
        object.__setattr__(self, "state", _LazyStates(self, [_UNSET] * n))
        return self

    # -- incremental refreeze --------------------------------------------------

    def patch(self, delta) -> "FrozenQCTree":
        """Splice a :class:`~repro.core.maintenance.delta.MaintenanceDelta`
        into a new frozen view, at cost proportional to the dirty set.

        ``delta`` must have been recorded against the tree this view was
        compiled from (the same object, still holding every un-dirty node
        unchanged); the post-mutation tree is the ground truth for what
        each dirty node now contains.  Ids stay stable; pruned nodes
        leave tombstone slots, new nodes are appended.  A node whose
        edges (links) changed gets an edge (link) row in the overlay;
        every dirty node's state, value and class kind, new upper bounds
        and Lemma-2 columns are written into copies of those sections,
        so a node only ``restated`` is column writes alone
        (``patch_stats["restated"]``; ``"touched"`` counts overlay
        slots).  The other sections are shared.  The result is immutable
        and answers every query exactly like ``delta.tree.freeze()``.

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
          neighbor, an unpackable payload (the compile raises, as
          ``freeze()`` does), or an attached tree (``mode="full"``, see
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
        if len(dirty) > FULL_REFREEZE_RATIO * max(1, self.n_nodes):
            return full("full", "dirty-ratio")

        # -- classify dirty ids against the post-mutation ground truth ----
        # Trusting the categories as for every clean node: a new id gets
        # rows and an upper bound, ``reedged`` an edge row and Lemma-2
        # columns, ``relinked`` a link row; every one gets column writes.
        free = tree._free_ids
        tree_size = len(tree.node_dim)
        slot_of = list(self._source_map)
        slot_of += [-1] * (tree_size - len(slot_of))
        base_slots = len(self._routes)
        dead = set(self._dead)
        new_ids = delta.created | delta.removed
        # Slots to tombstone; (dict id, slot) of each live dirty id.
        gone, live, appended = [], [], 0
        for d in sorted(dirty):
            slot = slot_of[d] if d < len(slot_of) else -1
            if d >= tree_size or d in free:
                if slot >= 0:
                    slot_of[d] = -1
                    if slot not in dead:
                        gone.append(slot)
                continue
            if slot < 0 or slot in dead:
                slot = slot_of[d] = base_slots + appended
                appended += 1
                new_ids.add(d)
            live.append((d, slot))
        placed = [(d, slot) for d, slot in live if d in new_ids]
        edged = [(d, slot) for d, slot in live
                 if d in new_ids or d in delta.reedged]
        linked = [(d, slot) for d, slot in live
                  if d in new_ids or d in delta.relinked]
        touched = {slot for _, slot in edged + linked}

        # -- compaction: reclaim tombstones + overlay debt by repacking ----
        overlay_after = touched.union(
            self._edge_over or (), self._link_over or (), gone)
        dead_after = len(dead) + len(gone)
        live_after = base_slots + appended - dead_after
        if dead_after + len(overlay_after) > COMPACT_RATIO * max(1, live_after):
            return full("compacted", "patch-debt")

        # -- splice: overlay rows where edges or links changed ---------------
        stride = self._stride
        n = base_slots + appended
        state = self.state._cache + [None] * appended
        value = self._value + [None] * appended
        ubs = self._ubs + [None] * appended
        routes = self._routes + [None] * appended
        edge_over = dict(self._edge_over) if self._edge_over else {}
        link_over = dict(self._link_over) if self._link_over else {}
        columns = {}
        for slot in gone:
            state[slot] = value[slot] = None
            edge_over[slot] = link_over[slot] = ((), ())
        dead.update(gone)
        for slot in touched.union(gone):
            routes[slot] = None  # rebuilt from the overlay on demand
        if edged:  # a tombstone's Lemma-2 columns are never read
            last_dim, forced = (
                np.pad(column, (0, appended), constant_values=-1)
                for column in (self._last_dim, self._forced))
            columns.update(_last_dim=last_dim, _forced=forced)
        try:
            for over, rows, by_node in ((edge_over, edged, tree.children),
                                        (link_over, linked, tree.links)):
                for d, slot in rows:
                    row = over[slot] = _overlay_row(by_node[d], slot_of,
                                                    stride)
                    if row is None:
                        return full("full", "stride-overflow")
        except TypeError:
            return full("full", "unsortable-labels")
        except LookupError:
            # A neighbor the dirty set missed; recompiling is always
            # correct (the property tests would catch a recorder gap).
            return full("full", "unmapped-neighbor")
        for d, slot in edged:
            # Lemma 2: the last child-bearing dimension, forced when it
            # holds one child.
            by_dim = tree.children[d]
            last_dim[slot] = last = max(by_dim, default=-1)
            forced[slot] = (edge_over[slot][1][-1]
                            if last >= 0 and len(by_dim[last]) == 1 else -1)
        if placed:
            ub = np.pad(np.reshape(self._ub, (-1, self.n_dims)),
                        ((0, appended), (0, 0)), constant_values=-1)
            for d, slot in placed:
                ubs[slot] = tree.upper_bound_of(d)
                ub[slot] = [-1 if v is ALL else v for v in ubs[slot]]
            columns["_ub"] = ub

        # -- column writes: every live dirty slot's state, value and kind ---
        value_of = tree.aggregate.value
        for d, slot in live:
            st = state[slot] = tree.state[d]
            value[slot] = None if st is None else value_of(st)
        written = [slot for _, slot in live]
        holds = [state[slot] is not None for slot in written]
        kind = np.pad(self._class_kind, (0, appended))
        kind[gone] = 0
        kind[written] = holds
        columns["_class_kind"] = kind
        written = list(compress(written, holds))
        try:
            state_template, columns["_state_data"] = _payload_rows(
                [state[slot] for slot in written], written, n,
                self._state_codec[0], self._state_data)
            value_template, columns["_value_data"] = _payload_rows(
                [value[slot] for slot in written], written, n,
                self._value_codec[0], self._value_data)
        except SerializationError:
            # The layout cannot hold a payload: the compile refuses it
            # exactly as ``freeze()`` does.
            return full("full", "unpackable-payload")

        out = FrozenQCTree._new(
            n_dims=tree.n_dims,
            dim_names=tuple(tree.dim_names),
            aggregate=tree.aggregate,
            patch_stats={
                "mode": "patched", "dirty": len(dirty),
                "restated": len(live) - len(touched),
                "touched": len(touched), "appended": appended,
                "tombstoned": len(gone), "dead_slots": len(dead),
                "overlay": len(edge_over.keys() | link_over.keys()),
                "slots": n,
            },
            _stride=stride,
            **{"_" + name: getattr(self, "_" + name)
               for name in BUFFER_SECTIONS if "_" + name not in columns},
            **{name: _view(column, "d" if column.dtype == np.float64 else "q")
               for name, column in columns.items()},
            _state_codec=(state_template, template_width(state_template)),
            _value_codec=(value_template, template_width(value_template)),
            _routes=routes,
            _ubs=ubs,
            _value=value,
            _source_map=slot_of,
            _dead=frozenset(dead),
            _edge_over=edge_over,
            _link_over=link_over,
        )
        object.__setattr__(out, "state", _LazyStates(out, state))
        return out

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
        """Build and cache ``node``'s routing dict on first visit: links
        first, so edges shadow them."""
        route = {}
        for links in (True, False):
            keys, targets, lo, hi = self._row(node, links)
            for i in range(lo, hi):
                route[keys[i]] = targets[i]
        self._routes[node] = route
        return route

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

    def _live_mask(self) -> np.ndarray:
        """Per slot, whether it holds a node (False on tombstones)."""
        live = np.ones(len(self._routes), dtype=bool)
        live[np.fromiter(self._dead, dtype=np.intp, count=len(self._dead))] = False
        return live

    def _states(self) -> list:
        """Every slot's state (None off the classes), decoded from the
        state matrix a column at a time."""
        template, width = self._state_codec
        classes = np.flatnonzero(np.asarray(self._class_kind))
        states = [None] * len(self._class_kind)
        if classes.size:
            rows = np.asarray(self._state_data).reshape(-1, width)[classes]
            for node, state in zip(classes.tolist(), _payloads(template, rows)):
                states[node] = state
        return states

    def _iter_row(self, node: int, links: bool) -> Iterator[tuple]:
        keys, targets, lo, hi = self._row(node, links)
        stride = self._stride
        for i in range(lo, hi):
            dim, value = divmod(keys[i], stride)
            yield dim, value, targets[i]

    def iter_children_of(self, node: int) -> Iterator[tuple]:
        return self._iter_row(node, False)

    def iter_links_of(self, node: int) -> Iterator[tuple]:
        return self._iter_row(node, True)

    # -- traversal protocol --------------------------------------------------

    def _find(self, node: int, dim: int, value, links: bool) -> Optional[int]:
        key = _route_key(self._stride, dim, value)
        if key is _ABSENT:
            return None
        keys, targets, lo, hi = self._row(node, links)
        i = bisect_left(keys, key, lo, hi)
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
        first = bisect_left(keys, dim * stride, lo, hi)
        out = {}
        for i in range(first, hi):
            d, value = divmod(keys[i], stride)
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
            value = self._value[node] = _decode(
                self._class_kind, self._value_data, self._value_codec, node
            )
        return value

    # -- Algorithm 3 -----------------------------------------------------------

    def search_route(self, node: int, dim: int, value,
                     counter=None) -> Optional[int]:
        """One ``searchroute`` step over the arrays; answers and counts
        exactly like :func:`repro.core.point_query.search_route`."""
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

    def descend_to_class(self, node: int, counter=None) -> Optional[int]:
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

    def locate(self, cell: Cell, counter=None) -> Optional[int]:
        """Algorithm 3 over the arrays; semantics and node-access counts
        identical to :func:`repro.core.point_query.locate_generic`.  One
        loop, :func:`_route_key`, :meth:`search_route` and
        :meth:`descend_to_class` inlined: every point query takes it.
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
            try:  # _route_key, inlined
                key = dim * stride + value if 0 <= value < stride else _ABSENT
            except TypeError:
                key = _ABSENT
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
        """Algorithm 3 over raw-label cells of ``n_dims`` labels, on an
        unpatched tree (the CSR sections alone, no overlay — what a
        shard worker attaches): each answer as ``point_query_raw`` gives
        it.
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
            found = _payloads(template, np.asarray(self._value_data).reshape(
                -1, value_width)[node[hits]])
            for i, value in zip(hits.tolist(), found):
                values[i] = value
        return values

    # -- comparison & display ------------------------------------------------

    # Written against the traversal protocol only, so the dict tree's
    # own definitions serve every representation.
    iter_links = QCTree.iter_links
    class_upper_bounds = QCTree.class_upper_bounds
    signature = QCTree.signature
    equivalent_to = QCTree.equivalent_to
    stats = QCTree.stats
    dump = QCTree.dump

    def __repr__(self):
        mode = self.patch_stats.get("mode", "fresh")
        flag = "" if mode == "fresh" else f", {mode}"
        return (
            f"FrozenQCTree(nodes={self.n_nodes}, links={self.n_links}, "
            f"classes={self.n_classes}, aggregate={self.aggregate.name}"
            f"{flag})"
        )
