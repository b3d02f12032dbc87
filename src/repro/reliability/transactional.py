"""All-or-nothing guard for in-place QC-tree mutation.

The batch maintenance algorithms (§3.3) mutate the tree in place across
many primitive steps; an exception partway — a bad record discovered
late, an aggregate that refuses to merge, a bug — would otherwise leave
a tree that is neither the old state nor the new one.  The
:func:`transactional` context manager snapshots the tree before the
mutation and transplants the snapshot back on any failure, so callers
observe either the complete update or no change at all.

The snapshot is a structural :meth:`~repro.core.qctree.QCTree.copy`
(O(nodes), sharing immutable labels and states), so the guard costs one
copy per batch: ≈ 70 ms on the benchmark's 45k-node tree, of the order
of the tree where the batch's own work now follows the delta, hence the
largest term of a one-row insert.  ROADMAP item 1 owns replacing it.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.core.qctree import QCTree
from repro.errors import MaintenanceError, ReproError


def restore_tree(tree: QCTree, snapshot: QCTree) -> None:
    """Reset ``tree`` in place to ``snapshot``'s structure.

    The snapshot's internal lists are transplanted (not re-copied), so
    the snapshot must not be used afterwards.  Works in place because
    maintenance callers hold references to the tree object itself.
    """
    tree.n_dims = snapshot.n_dims
    tree.aggregate = snapshot.aggregate
    tree.dim_names = snapshot.dim_names
    tree.node_dim = snapshot.node_dim
    tree.node_value = snapshot.node_value
    tree.parent = snapshot.parent
    tree.children = snapshot.children
    tree.links = snapshot.links
    tree.state = snapshot.state
    tree.root = snapshot.root
    tree._free_ids = set(snapshot._free())


@contextmanager
def transactional(tree: QCTree):
    """Run a tree mutation that either completes or rolls back.

    On any exception the tree is restored to its pre-block state; errors
    from the repro hierarchy propagate unchanged (they already describe
    the refusal), while unexpected errors are wrapped in
    :class:`MaintenanceError` so callers see one failure type with the
    rollback guarantee attached.  ``BaseException`` (KeyboardInterrupt,
    simulated crashes) propagates without a rollback — a real crash
    would not run one either; durability across those is the job of
    snapshots and the write-ahead log.
    """
    backup = tree.copy()
    try:
        yield
    except ReproError:
        restore_tree(tree, backup)
        raise
    except Exception as exc:
        restore_tree(tree, backup)
        raise MaintenanceError(
            f"maintenance failed and was rolled back: {exc}"
        ) from exc
