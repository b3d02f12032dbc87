"""All-or-nothing guard for in-place QC-tree mutation.

The batch maintenance algorithms (§3.3) mutate the tree in place across
many primitive steps; an exception partway — a bad record discovered
late, an aggregate that refuses to merge, a bug — would otherwise leave
a tree that is neither the old state nor the new one.  Under the
:func:`transactional` context manager callers observe either the
complete update or no change at all.

The guard costs what the batch writes, not what the tree holds: the six
mutating primitives of :mod:`repro.core.qctree` are the only writers of
the tree's lists and each already reports the node it dirties to the
batch's :class:`~repro.core.maintenance.delta.MaintenanceDelta`; while a
guard is open the same hook keeps the value it overwrote — the undo
journal is the delta with the old values kept — and rollback replays it
backwards (:meth:`QCTree.rollback_to
<repro.core.qctree.QCTree.rollback_to>`).  "Never happened" means the six
lists, the free set and the signature equal what they were, node ids
included; the dict iteration order of a re-inserted edge or link is not
part of it (no reader depends on it: ``iter_nodes``, freeze and pack
sort).  The recorder's dirty sets stay — after a rollback a superset,
which the delta's contract allows (the tree is the ground truth), minus
the ids taken off the lists.
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import partial

from repro.core.qctree import QCTree
from repro.errors import MaintenanceError, ReproError


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

    Yields ``rollback``, for a caller that wants the block undone without
    failing (a what-if).  Guards nest: the first opens the journal on
    the active recorder (or on one scoped to the block), an inner one
    marks it and rolls back to its own start only, and the outermost
    drops the old values on the way out.
    """
    scoped = tree._delta is None
    delta = tree.begin_delta() if scoped else tree._delta
    opened = delta.journal is None
    if opened:
        delta.journal = []
    rollback = partial(tree.rollback_to, len(delta.journal))
    try:
        yield rollback
    except ReproError:
        rollback()
        raise
    except Exception as exc:
        rollback()
        raise MaintenanceError(
            f"maintenance failed and was rolled back: {exc}"
        ) from exc
    finally:
        if opened:
            delta.journal = None
        if scoped:
            tree.end_delta()
