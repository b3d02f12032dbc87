"""``ServingSnapshot`` — one immutable, published version of the read state.

The concurrent serving design (and the warehouse's own read path) rests
on a simple rule: everything a query touches is bundled into a single
snapshot object whose parts never mutate — the array-backed
:class:`~repro.core.frozen.FrozenQCTree` (over heap storage in a thread
server, attached to a shared ``QCTREE/3`` blob in a shard worker), the
copy-on-write
:class:`~repro.cube.table.BaseTable` (maintenance builds a *new* table;
published ones are never edited in place), and the serving stamp
``(WAL LSN, mutation epoch)`` they are valid at.  A reader grabs one
snapshot reference and answers entirely from it; a writer prepares the
next snapshot off the read path and publishes it with a single reference
assignment.  Readers therefore never block on writers and never observe
a half-applied mutation.

Every query family runs through the shared traversal protocol, so a
snapshot works over either tree representation: the frozen view on the
healthy serving path, or the mutable dict tree when a warehouse serves
with ``serve_frozen=False`` (such a snapshot is *not* safe to share with
a concurrent writer — :class:`~repro.serving.server.QCServer` refuses
it).  This includes the semantic exploration API (``rollup``,
``drilldowns``, ``open_class``, …), which previously always walked the
dict tree: it is served from the snapshot's tree like Algorithms 3/4.

The only lazily built piece is the :class:`~repro.core.iceberg.
MeasureIndex`, which is expensive and rarely needed; it is constructed
on first use under a lock and immutable afterwards.

The segmented store publishes the same surface over *many* (tree,
table) pairs: :class:`~repro.segments.snapshot.SegmentedSnapshot`
mirrors this class method-for-method, scatter-gathering across one
piece per sealed segment plus the head.  The server publishes either
kind interchangeably.
"""

from __future__ import annotations

import threading
from typing import Optional

from repro.core.explore import (
    class_of,
    drill_into_class,
    intelligent_rollup,
    lattice_drilldowns,
    lattice_rollups,
    rollup_exceptions,
)
from repro.core.iceberg import MeasureIndex, constrained_iceberg, pure_iceberg
from repro.core.point_query import point_query_raw
from repro.core.qctree import QCTree
from repro.core.range_query import encode_range, range_query_raw


class ServingSnapshot:
    """A self-contained, shareable read view of a warehouse.

    Bundles the tree representation queries traverse, the base table
    used for label encoding/decoding and member enumeration, the
    aggregate, and the serving stamp the answers are valid at.  All
    query methods accept and return *raw* (decoded) labels, exactly like
    the corresponding :class:`~repro.core.warehouse.QCWarehouse`
    methods — the warehouse delegates to a snapshot internally.
    """

    __slots__ = ("tree", "table", "aggregate", "stamp", "index_key",
                 "_index", "_index_lock")

    def __init__(self, tree, table, aggregate, stamp=(0, 0),
                 index_key=None):
        self.tree = tree
        self.table = table
        self.aggregate = aggregate
        self.stamp = tuple(stamp)
        self.index_key = index_key
        self._index: Optional[MeasureIndex] = None
        self._index_lock = threading.Lock()

    # -- measure index -------------------------------------------------------

    @property
    def index(self) -> MeasureIndex:
        """The measure index over this snapshot's tree, built on first use.

        Double-checked under a lock so concurrent readers build it once;
        after publication it is only ever read.
        """
        index = self._index
        if index is None:
            with self._index_lock:
                index = self._index
                if index is None:
                    index = MeasureIndex(self.tree, key=self.index_key)
                    self._index = index
        return index

    # -- queries -------------------------------------------------------------

    def point(self, raw_cell):
        """Point query with raw labels (``"*"`` / None / ALL for any)."""
        return point_query_raw(self.tree, self.table, raw_cell)

    def range(self, raw_spec) -> dict:
        """Range query with raw labels; returns ``{decoded cell: value}``."""
        return range_query_raw(self.tree, self.table, raw_spec)

    def iceberg(self, threshold, op: str = ">=") -> list:
        """Pure iceberg query: ``[(decoded upper bound, value), ...]``."""
        classes = pure_iceberg(self.tree, threshold, op=op, index=self.index)
        return [(self.table.decode_cell(ub), value) for ub, value in classes]

    def iceberg_in_range(self, raw_spec, threshold, op: str = ">=",
                         strategy: str = "filter") -> dict:
        """Constrained iceberg query; returns ``{decoded cell: value}``."""
        encoded = encode_range(self.table, raw_spec)
        if encoded is None:
            return {}
        results = constrained_iceberg(
            self.tree, encoded, threshold, op=op, strategy=strategy,
            index=self.index if strategy == "mark" else None,
            key=self.index_key,
        )
        return {self.table.decode_cell(c): v for c, v in results.items()}

    # -- exploration ---------------------------------------------------------

    def class_of(self, raw_cell):
        """The class containing a cell: ``(decoded upper bound, value)``."""
        view = class_of(self.tree, self.table.encode_cell(raw_cell))
        if view is None:
            return None
        return self.table.decode_cell(view.upper_bound), view.value

    def rollup(self, raw_cell) -> list:
        """Intelligent roll-up: most general contexts with the same value."""
        views = intelligent_rollup(self.tree, self.table.encode_cell(raw_cell))
        return [(self.table.decode_cell(v.upper_bound), v.value)
                for v in views]

    def rollup_exceptions(self, raw_cell) -> list:
        """Classes inside the roll-up region that break the value."""
        views = rollup_exceptions(self.tree, self.table.encode_cell(raw_cell))
        return [(self.table.decode_cell(v.upper_bound), v.value)
                for v in views]

    def drilldowns(self, raw_cell) -> list:
        """One-step drill-down classes from a cell's class."""
        views = lattice_drilldowns(
            self.tree, self.table.encode_cell(raw_cell), self.table
        )
        return [(self.table.decode_cell(v.upper_bound), v.value)
                for v in views]

    def rollups(self, raw_cell) -> list:
        """One-step roll-up classes from a cell's class."""
        views = lattice_rollups(
            self.tree, self.table.encode_cell(raw_cell), self.table
        )
        return [(self.table.decode_cell(v.upper_bound), v.value)
                for v in views]

    def open_class(self, raw_cell):
        """Drill into a class: upper bound, lower bounds, members (decoded)."""
        structure = drill_into_class(
            self.tree, self.table.encode_cell(raw_cell), self.table
        )
        return {
            "upper_bound": self.table.decode_cell(structure.upper_bound),
            "lower_bounds": [
                self.table.decode_cell(lb) for lb in structure.lower_bounds
            ],
            "members": [self.table.decode_cell(m) for m in structure.members],
            "value": structure.value,
        }

    # -- reporting -----------------------------------------------------------

    def describe(self) -> dict:
        """Identity of this snapshot, for server stats and logs."""
        lsn, epoch = self.stamp
        return {
            "lsn": lsn,
            "epoch": epoch,
            # Anything but the mutable dict tree is the immutable array
            # tree, whichever storage (heap or attached) it reads.
            "frozen": not isinstance(self.tree, QCTree),
            "n_rows": self.table.n_rows,
            "classes": self.tree.n_classes,
            "nodes": self.tree.n_nodes,
        }

    def __repr__(self):
        lsn, epoch = self.stamp
        return (
            f"ServingSnapshot(lsn={lsn}, epoch={epoch}, "
            f"rows={self.table.n_rows}, classes={self.tree.n_classes}, "
            f"tree={type(self.tree).__name__})"
        )
