"""The QC-tree data structure (Definition 1 of the paper).

A QC-tree stores the set of class upper bounds of a cover quotient cube as
a prefix-shared trie plus *drill-down links*:

* every node except the root carries a ``(dimension, value)`` label;
* dimensions strictly increase along every root path;
* for each class upper bound there is exactly one node whose root path
  spells the bound's non-``*`` values; that node stores the class's
  aggregate state;
* a link labeled ``(dimension, value)`` records a direct drill-down from
  one class to another whose upper-bound path lies outside the source's
  subtree.

Nodes are rows in parallel lists indexed by integer id (root is 0), which
keeps the structure compact, fast to copy, and easy to serialize.  Edge and
link maps are nested dicts ``{dim: {value: node_id}}`` so both "follow
label" and "last dimension with a child" (needed by Lemma 2's query
fallback) are O(1)-ish.
"""

from __future__ import annotations

from typing import Iterator, Optional

import numpy as np

from repro.core.cells import ALL, Cell, format_cell
from repro.core.point_query import (
    descend_to_class,
    locate_generic,
    search_route,
)
from repro.cube.aggregates import AggregateFunction
from repro.errors import QueryError


def _drop(nested: dict, dim: int, value) -> None:
    """Delete ``nested[dim][value]`` and the level it empties."""
    by_value = nested[dim]
    del by_value[value]
    if not by_value:
        del nested[dim]


class QCTree:
    """A quotient cube tree over ``n_dims`` dimensions.

    Construct via :func:`repro.core.construct.build_qctree`; the methods
    here are structural primitives shared by construction, queries, and
    maintenance.
    """

    def __init__(self, n_dims: int, aggregate: AggregateFunction,
                 dim_names=None):
        if n_dims <= 0:
            raise QueryError("a QC-tree needs at least one dimension")
        self.n_dims = n_dims
        self.aggregate = aggregate
        self.dim_names = (
            tuple(dim_names) if dim_names is not None
            else tuple(f"D{j}" for j in range(n_dims))
        )
        self.node_dim: list = [-1]
        self.node_value: list = [None]
        self.parent: list = [-1]
        self.children: list = [{}]   # node -> {dim: {value: child_id}}
        self.links: list = [{}]      # node -> {dim: {value: target_id}}
        self.state: list = [None]    # node -> aggregate state or None
        self.root = 0
        self._free_ids: set = set()  # pruned node ids awaiting reuse
        self._delta = None           # active MaintenanceDelta recorder

    # -- size & iteration ---------------------------------------------------

    @property
    def n_nodes(self) -> int:
        """Number of live nodes, including the root."""
        return len(self.node_dim) - len(self._free_ids)

    @property
    def n_links(self) -> int:
        """Total number of drill-down links (a freed slot holds none)."""
        return sum(
            len(by_value)
            for by_dim in self.links
            for by_value in by_dim.values()
        )

    @property
    def n_classes(self) -> int:
        """Number of class (aggregate-carrying) nodes."""
        return sum(1 for s in self.state if s is not None)

    def iter_nodes(self) -> Iterator[int]:
        """Yield live node ids in preorder."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            for dim in sorted(self.children[node], reverse=True):
                for value in sorted(self.children[node][dim], reverse=True):
                    stack.append(self.children[node][dim][value])

    def iter_class_nodes(self) -> Iterator[int]:
        """Yield node ids that carry an aggregate state, in preorder."""
        for node in self.iter_nodes():
            if self.state[node] is not None:
                yield node

    def iter_links(self) -> Iterator[tuple]:
        """Yield links as ``(source, dim, value, target)``, sources in
        :meth:`iter_nodes` order."""
        for node in self.iter_nodes():
            for dim, value, target in self.iter_links_of(node):
                yield node, dim, value, target

    def iter_children_of(self, node: int) -> Iterator[tuple]:
        """Yield ``node``'s tree edges as ``(dim, value, child)``.

        Part of the traversal protocol shared with
        :class:`~repro.core.frozen.FrozenQCTree`, so graph walks (e.g. the
        iceberg mark plan) run unchanged on either representation.
        """
        for dim, by_value in self.children[node].items():
            for value, child in by_value.items():
                yield dim, value, child

    def iter_links_of(self, node: int) -> Iterator[tuple]:
        """Yield ``node``'s drill-down links as ``(dim, value, target)``."""
        for dim, by_value in self.links[node].items():
            for value, target in by_value.items():
                yield dim, value, target

    def walk_generalizing(self, cells) -> Iterator[tuple]:
        """Yield ``(node, subset)`` for every node whose root path
        generalizes at least one of ``cells`` — the Δ-restricted walk
        every question of Algorithms 5–7 about a batch is asked through.

        ``subset`` lists the ``cells`` that path generalizes (a ``*``
        position matches no edge).  Each node comes exactly once, in
        preorder — ``children[node]`` in dict order, values in the order
        ``cells`` first shows them.  The recursion carries the subset
        down, so a prefix several cells share is visited once, not once
        per cell, and nothing but the cells' own generalizations is
        touched: the cost follows the delta, not the tree.  Tree edges
        must not change while the generator is live (links may).
        """
        def rec(node: int, subset: list):
            yield node, subset
            for dim, by_value in self.children[node].items():
                buckets: dict = {}
                for cell in subset:
                    value = cell[dim]
                    if value in by_value:
                        buckets.setdefault(value, []).append(cell)
                for value, part in buckets.items():
                    yield from rec(by_value[value], part)

        cells = list(cells)
        if cells:
            yield from rec(self.root, cells)

    def classes_generalizing(self, cells) -> Iterator[tuple]:
        """Yield ``(upper bound, node)`` of every class whose bound
        generalizes at least one of ``cells``, in walk order."""
        for node, _ in self.walk_generalizing(cells):
            if self.state[node] is not None:
                yield self.upper_bound_of(node), node

    def links_covering(self, rows) -> list:
        """Labels ``(source, dim, value)`` of the links whose drill-down
        cell covers at least one of ``rows``.

        A link ``(j, v)`` out of ``src`` drills down to ``src``'s path
        with ``v`` at ``j``; that cell covers a row iff the row agrees
        with the path — it is in the walk's subset at ``src`` — and
        carries ``v`` at ``j``.  These are the links a batch of ``rows``
        makes stale, found without scanning the links of the tree.
        """
        return [
            (node, dim, value)
            for node, subset in self.walk_generalizing(rows)
            for dim, by_value in self.links[node].items()
            for value in {row[dim] for row in subset}
            if value in by_value
        ]

    # -- dirty-set recording --------------------------------------------------

    def begin_delta(self):
        """Start recording mutations into a fresh
        :class:`~repro.core.maintenance.delta.MaintenanceDelta`.

        Every structural primitive (node creation, state change, link
        add/remove, pruning) notes the node it touches until
        :meth:`end_delta`.  The delta is the input to
        :meth:`FrozenQCTree.patch
        <repro.core.frozen.FrozenQCTree.patch>`, which splices exactly
        those nodes into the frozen serving view instead of recompiling
        it.  Recording is off by default and costs nothing when off.
        """
        from repro.core.maintenance.delta import MaintenanceDelta

        delta = MaintenanceDelta(self)
        self._delta = delta
        return delta

    def end_delta(self):
        """Stop recording; returns the delta (None if none was active)."""
        delta = self._delta
        self._delta = None
        return delta

    def rollback_to(self, mark: int) -> None:
        """Undo, newest first, every write the active recorder journalled
        past ``mark``.  :mod:`repro.reliability.transactional` owns the
        journal and states the contract."""
        delta = self._delta
        journal = delta.journal
        while len(journal) > mark:
            kind, node, old = journal.pop()
            if kind == "state":
                self.state[node] = old
            elif kind == "link":
                dim, value, target = old
                if target is None:
                    _drop(self.links[node], dim, value)
                else:
                    self.links[node].setdefault(dim, {})[value] = target
            elif kind == "created":
                _drop(self.children[self.parent[node]],
                      self.node_dim[node], self.node_value[node])
                if old is None:
                    # LIFO: everything appended after it is already gone.
                    for column in (self.node_dim, self.node_value,
                                   self.parent, self.children, self.links,
                                   self.state):
                        column.pop()
                    delta.forget(node)
                else:
                    (self.node_dim[node], self.node_value[node],
                     self.parent[node]) = old
                    self._free_ids.add(node)
            else:  # "removed": the slot still holds its label and parent
                self.children[self.parent[node]].setdefault(
                    self.node_dim[node], {})[self.node_value[node]] = node
                self.links[node] = old
                self._free_ids.discard(node)

    # -- structural primitives ----------------------------------------------

    def child(self, node: int, dim: int, value) -> Optional[int]:
        """Tree child of ``node`` labeled ``(dim, value)``, or None."""
        by_dim = self.children[node].get(dim)
        if by_dim is None:
            return None
        return by_dim.get(value)

    def link_target(self, node: int, dim: int, value) -> Optional[int]:
        """Link target of ``node`` labeled ``(dim, value)``, or None."""
        by_dim = self.links[node].get(dim)
        if by_dim is None:
            return None
        return by_dim.get(value)

    def last_child_dim(self, node: int) -> Optional[int]:
        """The largest dimension for which ``node`` has a tree child."""
        by_dim = self.children[node]
        return max(by_dim) if by_dim else None

    def children_in_dim(self, node: int, dim: int) -> dict:
        """Mapping ``value -> child`` of ``node``'s tree children in ``dim``."""
        return self.children[node].get(dim, {})

    def _new_node(self, parent: int, dim: int, value) -> int:
        reused = None
        if self._free_ids:
            node = self._free_ids.pop()
            reused = (self.node_dim[node], self.node_value[node],
                      self.parent[node])
            self.node_dim[node] = dim
            self.node_value[node] = value
            self.parent[node] = parent
        else:
            node = len(self.node_dim)
            self.node_dim.append(dim)
            self.node_value.append(value)
            self.parent.append(parent)
            self.children.append({})
            self.links.append({})
            self.state.append(None)
        self.children[parent].setdefault(dim, {})[value] = node
        if self._delta is not None:
            self._delta.note_created(node, reused)
            self._delta.note_edges(parent)
        return node

    def insert_path(self, upper_bound: Cell) -> int:
        """Ensure the root path for ``upper_bound`` exists; return its node.

        The path spells the bound's non-``*`` values in dimension order,
        reusing existing prefix nodes (prefix sharing).
        """
        node = self.root
        for dim, value in enumerate(upper_bound):
            if value is ALL:
                continue
            nxt = self.child(node, dim, value)
            if nxt is None:
                nxt = self._new_node(node, dim, value)
            node = nxt
        return node

    def find_path(self, upper_bound: Cell) -> Optional[int]:
        """Node whose root path spells ``upper_bound``, or None."""
        return self.path_prefix_node(upper_bound, self.n_dims)

    def path_prefix_node(self, upper_bound: Cell, through_dim: int) -> Optional[int]:
        """Node for the prefix of ``upper_bound``'s path through ``through_dim``.

        Used when adding a drill-down link: per Definition 1 the link
        targets the node spelling the target bound's values up to and
        including the link's dimension.
        """
        node = self.root
        for dim, value in enumerate(upper_bound):
            if dim > through_dim:
                break
            if value is ALL:
                continue
            node = self.child(node, dim, value)
            if node is None:
                return None
        return node

    def add_link(self, source: int, dim: int, value, target: int) -> None:
        """Add a drill-down link unless a tree edge already realizes it.

        Definition 1 requires "a tree edge or a link, but not both": when
        the source already has a tree child with this exact label and
        target, the edge covers the drill-down and no link is stored.
        Re-adding an identical link is a no-op.
        """
        if self.child(source, dim, value) == target:
            return
        by_value = self.links[source].setdefault(dim, {})
        old = by_value.get(value)
        by_value[value] = target
        if self._delta is not None:
            self._delta.note_links(source, (dim, value, old))

    def remove_link(self, source: int, dim: int, value) -> None:
        """Drop the link labeled ``(dim, value)`` out of ``source`` if present."""
        old = self.link_target(source, dim, value)
        if old is None:
            return
        _drop(self.links[source], dim, value)
        if self._delta is not None:
            self._delta.note_links(source, (dim, value, old))

    def set_state(self, node: int, state) -> None:
        """Attach an aggregate state, making ``node`` a class node."""
        old = self.state[node]
        self.state[node] = state
        if self._delta is not None:
            self._delta.note_state(node, old)

    def has_incoming_link(self, node: int) -> bool:
        """Whether some drill-down link targets ``node``.

        Definition 1 labels a link with its target's own ``(dimension,
        value)`` and hangs it off a node whose path generalizes the
        target's, so only the walk restricted to ``node``'s path is
        asked — at most ``2**k`` nodes for ``k`` values, never the tree.
        """
        dim, value = self.node_dim[node], self.node_value[node]
        return any(
            self.link_target(src, dim, value) == node
            for src, _ in self.walk_generalizing([self.upper_bound_of(node)])
        )

    def clear_state_and_prune(self, node: int) -> None:
        """Remove a class node's state; prune now-useless trailing nodes.

        A node is pruned when it has no state, no children, and no
        incoming link (:meth:`has_incoming_link`, read off the live tree
        at prune time); pruning walks up the path.  Links *out of*
        pruned nodes are discarded.  Callers are responsible for first
        removing links *into* nodes they expect to disappear
        (maintenance does).
        """
        self.set_state(node, None)
        delta = self._delta
        while (
            node != self.root
            and self.state[node] is None
            and not self.children[node]
            and not self.has_incoming_link(node)
        ):
            parent = self.parent[node]
            _drop(self.children[parent],
                  self.node_dim[node], self.node_value[node])
            dropped, self.links[node] = self.links[node], {}
            self._free_ids.add(node)
            if delta is not None:
                delta.note_removed(node, dropped)
                delta.note_edges(parent)
            node = parent

    @classmethod
    def from_frozen(cls, frozen) -> "QCTree":
        """The dict tree of a :class:`~repro.core.frozen.FrozenQCTree`:
        the thaw Algorithms 5–7 start from, and the one way a build
        becomes a dict tree.  Node ``i`` is slot ``i`` (a fresh compile's
        patch map is the identity) and a tombstone a free id; edges and
        links come from one gather (:func:`~repro.core.frozen.live_rows`),
        each node's in ``(dim, value)`` order."""
        from repro.core.frozen import live_rows

        tree = cls(frozen.n_dims, frozen.aggregate,
                   dim_names=frozen.dim_names)
        live = frozen._live_mask()
        n = live.size
        # The tree's own lists first, then the scratch a chunk at a time:
        # scratch freed among the tree's objects would stay resident.
        tree.node_dim, tree.parent = [-1] * n, [-1] * n
        tree.node_value = [None] * n
        tree.children = [{} for _ in range(n)]
        tree.links = [{} for _ in range(n)]
        tree.state = list(frozen.state)
        tree._free_ids = set(np.flatnonzero(~live).tolist())
        ids = list(range(n))  # one int per id, shared by every use
        order = np.flatnonzero(live)
        for nested in (tree.children, tree.links):
            start, dims, values, targets = live_rows(
                frozen, nested is tree.links, order)
            rows = (np.repeat(order, np.diff(start)), dims, values,
                    order[targets])
            for at in range(0, start[-1], 4096):
                for node, dim, value, target in zip(
                        *(column[at:at + 4096].tolist() for column in rows)):
                    node, target = ids[node], ids[target]
                    by_value = nested[node].get(dim)
                    if by_value is None:
                        by_value = nested[node][dim] = {}
                    by_value[value] = target
                    if nested is tree.children:
                        tree.node_dim[target] = dim
                        tree.node_value[target] = value
                        tree.parent[target] = node
        return tree

    def freeze(self) -> "FrozenQCTree":
        """The :class:`~repro.core.frozen.FrozenQCTree` of this tree
        (:meth:`~repro.core.frozen.FrozenQCTree.from_tree`): equal
        :meth:`signature`, a snapshot later mutations do not reach."""
        from repro.core.frozen import FrozenQCTree

        return FrozenQCTree.from_tree(self)

    def copy(self) -> "QCTree":
        """Structural copy sharing immutable labels and states.

        Maintenance mutates trees in place (and undoes a failed batch
        from its journal); benchmarks and tests that keep the original
        copy first — no write path does.  Aggregate states are immutable
        values (ints, floats, tuples), so sharing them is safe.
        """
        clone = QCTree(self.n_dims, self.aggregate, dim_names=self.dim_names)
        clone.node_dim = list(self.node_dim)
        clone.node_value = list(self.node_value)
        clone.parent = list(self.parent)
        clone.children = [
            {dim: dict(by_value) for dim, by_value in node.items()}
            for node in self.children
        ]
        clone.links = [
            {dim: dict(by_value) for dim, by_value in node.items()}
            for node in self.links
        ]
        clone.state = list(self.state)
        clone._free_ids = set(self._free_ids)
        return clone

    # -- cell <-> node -------------------------------------------------------

    def upper_bound_of(self, node: int) -> Cell:
        """Reconstruct the cell spelled by ``node``'s root path."""
        out = [ALL] * self.n_dims
        while node != self.root:
            out[self.node_dim[node]] = self.node_value[node]
            node = self.parent[node]
        return tuple(out)

    def is_class(self, node: int) -> bool:
        """Whether ``node`` carries a class (an aggregate state)."""
        return self.state[node] is not None

    def value_at(self, node: int):
        """User-facing aggregate value at a class node (None elsewhere)."""
        state = self.state[node]
        return None if state is None else self.aggregate.value(state)

    def class_upper_bounds(self) -> dict:
        """Mapping ``upper_bound -> aggregate value`` over all classes."""
        return {
            self.upper_bound_of(node): self.value_at(node)
            for node in self.iter_class_nodes()
        }

    # -- Algorithm 3 -----------------------------------------------------------

    # The protocol reference of :mod:`repro.core.point_query`, which the
    # array tree's own walks are held to.
    locate = locate_generic
    search_route = search_route
    descend_to_class = descend_to_class

    # -- comparison & display --------------------------------------------------

    def signature(self):
        """The tree's canonical form (:func:`~repro.shard.pack.
        canonical_bytes`) by section, node ids gone: by Theorem 1 equal
        signatures are the same tree — a dict tree and its
        :meth:`freeze`, a maintained tree and a fresh build of its table
        (states are exact, so their values agree to the last bit)."""
        from repro.shard.pack import Signature, canonical_bytes

        return Signature.of(canonical_bytes(self))

    def equivalent_to(self, other) -> bool:
        """Equal :meth:`signature`: the same paths, links and values."""
        return self.signature() == other.signature()

    def check_invariants(self) -> None:
        """Assert that :func:`~repro.reliability.fsck.fsck_tree` finds
        nothing (for tests): the structure and link passes."""
        from repro.reliability.fsck import fsck_tree

        report = fsck_tree(self)
        assert report.ok, str(report)

    def stats(self) -> dict:
        """Size statistics used by the storage model and the benchmarks."""
        return {
            "nodes": self.n_nodes,
            "tree_edges": self.n_nodes - 1,
            "links": self.n_links,
            "classes": self.n_classes,
        }

    def dump(self, decoder=None) -> str:
        """Multi-line rendering in the spirit of the paper's Figure 4
        (written against the traversal protocol, so every representation
        renders alike)."""
        lines = []

        def label(dim, value):
            raw = decoder(dim, value) if decoder else value
            return f"{self.dim_names[dim]}={raw}"

        def walk(node, text, depth):
            value = self.value_at(node)
            if value is not None:
                text += f" : {value}"
            lines.append("  " * depth + text)
            for dim, value, target in sorted(self.iter_links_of(node)):
                lines.append(
                    "  " * (depth + 1) + f"~~{label(dim, value)}~~> "
                    + format_cell(self.upper_bound_of(target), decoder)
                )
            for dim, value, child in sorted(self.iter_children_of(node)):
                walk(child, label(dim, value), depth + 1)

        walk(self.root, "Root", 0)
        return "\n".join(lines)

    def __repr__(self):
        return (
            f"QCTree(nodes={self.n_nodes}, links={self.n_links}, "
            f"classes={self.n_classes}, aggregate={self.aggregate.name})"
        )
