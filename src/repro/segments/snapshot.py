"""``SegmentedSnapshot`` — one immutable published view of a segmented store.

The monolithic :class:`~repro.serving.snapshot.ServingSnapshot` bundles
ONE (tree, table) pair; the segmented equivalent bundles an ordered
tuple of :class:`~repro.segments.scatter.PieceView` objects — every sealed
segment's frozen tree + table, oldest first, with the head's frozen view
last — plus the aggregate, the serving stamp, and the segment-set
*generation*.  Queries scatter across the pieces and gather per-cell
aggregate **states** with :meth:`AggregateFunction.merge
<repro.cube.aggregates.AggregateFunction.merge>`; see
:mod:`repro.segments.scatter` for why the merged answers equal the
monolithic ones exactly.

The method surface mirrors ``ServingSnapshot`` name-for-name, so
:class:`~repro.serving.server.QCServer` publishes and dispatches either
kind without knowing which it holds.  ``tree``/``table`` expose the
*head* piece's frozen tree and table — that satisfies the server's
mutable-alias guard (the head's frozen view is never the warehouse's
mutable dict tree) and keeps ``describe()``-style consumers working.
"""

from __future__ import annotations

from repro.segments import scatter


class SegmentedSnapshot:
    """A self-contained, shareable read view of a segmented warehouse.

    Immutable by construction: each piece's tree is frozen and each
    piece's table is copy-on-write (maintenance builds new tables), so a
    reader holding this object is isolated from writers, seals, and
    compactions — those swap in a *new* snapshot with a new generation.
    """

    __slots__ = ("pieces", "aggregate", "stamp", "generation", "index_key",
                 "tree", "table")

    def __init__(self, pieces, aggregate, stamp=(0, 0), generation=0,
                 index_key=None):
        #: Oldest sealed segment first; the head piece is always last.
        self.pieces = tuple(pieces)
        if not self.pieces:
            raise ValueError("a segmented snapshot needs at least one piece")
        self.aggregate = aggregate
        self.stamp = tuple(stamp)
        self.generation = generation
        self.index_key = index_key
        head = self.pieces[-1]
        self.tree = head.tree
        self.table = head.table

    # -- queries -------------------------------------------------------------

    def point(self, raw_cell):
        """Point query with raw labels (``"*"`` / None / ALL for any)."""
        return scatter.scatter_point(self.pieces, self.aggregate, raw_cell)

    def range(self, raw_spec) -> dict:
        """Range query with raw labels; returns ``{decoded cell: value}``."""
        return scatter.scatter_range(self.pieces, self.aggregate, raw_spec)

    def iceberg(self, threshold, op: str = ">=") -> list:
        """Pure iceberg query: ``[(decoded upper bound, value), ...]``."""
        return scatter.scatter_iceberg(
            self.pieces, self.aggregate, threshold, op=op,
            keyfn=self.index_key,
        )

    def iceberg_in_range(self, raw_spec, threshold, op: str = ">=",
                         strategy: str = "filter") -> dict:
        """Constrained iceberg query; returns ``{decoded cell: value}``.

        ``strategy`` is accepted for interface parity; the scatter plan
        always filters the gathered range answer (the paper's two plans
        are answer-equivalent).
        """
        del strategy
        return scatter.scatter_iceberg_in_range(
            self.pieces, self.aggregate, raw_spec, threshold, op=op,
            keyfn=self.index_key,
        )

    # -- exploration ---------------------------------------------------------

    def class_of(self, raw_cell):
        """The class containing a cell: ``(decoded upper bound, value)``."""
        return scatter.scatter_class_of(self.pieces, self.aggregate, raw_cell)

    def rollup(self, raw_cell) -> list:
        """Intelligent roll-up: most general contexts with the same value."""
        return scatter.scatter_rollup(self.pieces, self.aggregate, raw_cell)

    def rollup_exceptions(self, raw_cell) -> list:
        """Classes inside the roll-up region that break the value."""
        return scatter.scatter_rollup_exceptions(
            self.pieces, self.aggregate, raw_cell
        )

    def drilldowns(self, raw_cell) -> list:
        """One-step drill-down classes from a cell's class."""
        return scatter.scatter_drilldowns(
            self.pieces, self.aggregate, raw_cell
        )

    def rollups(self, raw_cell) -> list:
        """One-step roll-up classes from a cell's class."""
        return scatter.scatter_rollups(self.pieces, self.aggregate, raw_cell)

    def open_class(self, raw_cell):
        """Drill into a class: upper bound, lower bounds, members (decoded)."""
        return scatter.scatter_open_class(
            self.pieces, self.aggregate, raw_cell
        )

    # -- reporting -----------------------------------------------------------

    def describe(self) -> dict:
        """Identity of this snapshot, for server stats and logs."""
        lsn, epoch = self.stamp
        return {
            "lsn": lsn,
            "epoch": epoch,
            "frozen": True,
            "n_rows": sum(p.table.n_rows for p in self.pieces),
            "classes": sum(p.tree.n_classes for p in self.pieces),
            "nodes": sum(p.tree.n_nodes for p in self.pieces),
            "segments": len(self.pieces) - 1,
            "head_rows": self.table.n_rows,
            "generation": self.generation,
        }

    def __repr__(self):
        lsn, epoch = self.stamp
        return (
            f"SegmentedSnapshot(lsn={lsn}, epoch={epoch}, "
            f"gen={self.generation}, pieces={len(self.pieces)}, "
            f"rows={sum(p.table.n_rows for p in self.pieces)})"
        )
