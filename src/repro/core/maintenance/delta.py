"""``MaintenanceDelta`` — the dirty set of an incremental maintenance batch.

Section 5 of the paper sells QC-trees on incremental maintenance:
Algorithms 5–7 touch only the subtrees affected by an insert or delete.
This module makes that locality a first-class artifact.  While a batch
runs, the mutable :class:`~repro.core.qctree.QCTree` records every node
it creates, removes, re-aggregates, or re-links into the active delta
(see :meth:`QCTree.begin_delta <repro.core.qctree.QCTree.begin_delta>`),
and :meth:`FrozenQCTree.patch <repro.core.frozen.FrozenQCTree.patch>`
later consumes the delta to splice *only those nodes* into the frozen
serving view instead of recompiling it from scratch.

The delta is a *dirty set*, not an event log: it names which node ids
changed, and the post-mutation tree is the ground truth for what they
changed *to*.  That makes composition trivial (merging two deltas is a
set union) and makes node-id reuse safe — a node pruned by one batch and
recreated by the next is simply a dirty id whose current content is
re-read at patch time.

Recorded categories (they may overlap):

``created``
    nodes allocated by the batch (new class bounds and their path nodes);
``removed``
    nodes pruned by the batch (their ids may later be reused);
``restated``
    nodes whose aggregate state changed (updated, split, or cleared);
``relinked``
    nodes whose outgoing drill-down links changed;
``reedged``
    nodes whose tree-edge set changed (a child was added or pruned).

While a :func:`~repro.reliability.transactional.transactional` guard is
open (every batch runs under one) the recorder is also the batch's *undo
journal*: each hook keeps what the primitive overwrote next to the id it
dirties.  Only the dirty set outlives the batch.
"""

from __future__ import annotations


class MaintenanceDelta:
    """Dirty node ids of one (or several merged) maintenance batches.

    Instances are produced by :meth:`QCTree.begin_delta
    <repro.core.qctree.QCTree.begin_delta>` /
    :meth:`~repro.core.qctree.QCTree.end_delta` and consumed by
    :meth:`FrozenQCTree.patch <repro.core.frozen.FrozenQCTree.patch>`.
    ``tree`` is the tree the delta was recorded against — patching reads
    the dirty nodes' current content from it.
    """

    __slots__ = ("tree", "created", "removed", "restated", "relinked",
                 "reedged", "journal")

    def __init__(self, tree):
        self.tree = tree
        self.created: set = set()
        self.removed: set = set()
        self.restated: set = set()
        self.relinked: set = set()
        self.reedged: set = set()
        #: ``(kind, node, old)`` undo entries, newest last, while a
        #: transactional guard is open on the tree; None otherwise.
        self.journal = None

    # -- recording hooks (called by QCTree primitives) -----------------------
    # ``old`` is what the primitive overwrote, kept only while a
    # guard is open: the previous state; ``(dim, value, previous
    # target or None)`` of a link; the ``(dim, value, parent)`` a reused
    # slot held (None for an appended one); a pruned node's out-links.

    def note_created(self, node: int, old=None) -> None:
        self.created.add(node)
        self.removed.discard(node)
        if self.journal is not None:
            self.journal.append(("created", node, old))

    def note_removed(self, node: int, old=None) -> None:
        self.removed.add(node)
        if self.journal is not None:
            self.journal.append(("removed", node, old))

    def note_state(self, node: int, old=None) -> None:
        self.restated.add(node)
        if self.journal is not None:
            self.journal.append(("state", node, old))

    def note_links(self, node: int, old=None) -> None:
        self.relinked.add(node)
        if self.journal is not None:
            self.journal.append(("link", node, old))

    def note_edges(self, node: int) -> None:
        self.reedged.add(node)

    def _categories(self) -> tuple:
        return (self.created, self.removed, self.restated, self.relinked,
                self.reedged)

    def forget(self, node: int) -> None:
        """Drop ``node`` from every category: a rollback took the id off
        the end of the tree's lists, so it names nothing any more."""
        for ids in self._categories():
            ids.discard(node)

    # -- consumption ---------------------------------------------------------

    @property
    def dirty(self) -> set:
        """Every node id the batch touched, in any way."""
        return set().union(*self._categories())

    def __len__(self) -> int:
        return len(self.dirty)

    def __bool__(self) -> bool:
        # An empty batch (e.g. inserting zero rows) is still a valid,
        # mergeable delta.
        return True

    def merge(self, other: "MaintenanceDelta") -> "MaintenanceDelta":
        """Compose two deltas recorded against the same tree, in order.

        Dirty sets compose by union: the post-mutation tree is the
        ground truth for the content of every dirty node, so which batch
        dirtied a node (or whether a pruned id was reused in between)
        does not matter.  The operation is associative and commutative
        (plain set union per category), which is what lets the batched
        maintenance engine fold any number of per-batch deltas into one
        refreeze patch; ``a | b`` is shorthand for ``a.merge(b)``.
        """
        return MaintenanceDelta.union(self.tree, (self, other))

    __or__ = merge

    def update(self, other: "MaintenanceDelta") -> None:
        """In-place :meth:`merge` (union ``other``'s categories into self)."""
        if other.tree is not self.tree:
            raise ValueError(
                "cannot merge maintenance deltas recorded against "
                "different trees"
            )
        for mine, theirs in zip(self._categories(), other._categories()):
            mine |= theirs

    @classmethod
    def union(cls, tree, deltas) -> "MaintenanceDelta":
        """Fold any number of deltas over ``tree`` into one.

        The empty union is the empty (but valid, mergeable) delta —
        patching with it is a no-op.  Because :meth:`merge` is
        associative, ``union`` over per-tuple deltas equals the single
        delta a batch records over the same mutation stream (the
        property tests assert this dirty-set equality).
        """
        merged = cls(tree)
        for delta in deltas:
            merged.update(delta)
        return merged

    def summary(self) -> dict:
        """Per-category counts (for stats, logs, and the benchmarks)."""
        return {
            "dirty": len(self.dirty),
            "created": len(self.created),
            "removed": len(self.removed),
            "restated": len(self.restated),
            "relinked": len(self.relinked),
            "reedged": len(self.reedged),
        }

    def __repr__(self):
        counts = ", ".join(f"{k}={n}" for k, n in self.summary().items())
        return f"MaintenanceDelta({counts})"
