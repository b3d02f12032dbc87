"""``ServingSnapshot`` — one immutable, published version of the read state.

The concurrent serving design (and the warehouses' own read path) rests
on a simple rule: everything a query touches is bundled into a single
snapshot object whose parts never mutate — an ordered tuple of
:class:`~repro.serving.scatter.PieceView` objects (oldest sealed segment
first, the live piece last), each an array-backed
:class:`~repro.core.frozen.FrozenQCTree` (compiled in-process in a
thread server, attached to a shared ``QCTREE/3`` blob in a shard worker) plus
its copy-on-write :class:`~repro.cube.table.BaseTable` (maintenance
builds a *new* table; published ones are never edited in place) — with
the aggregate, the serving stamp ``(WAL LSN, mutation epoch)`` they are
valid at, and the segment-set *generation*.  A reader grabs one snapshot
reference and answers entirely from it; a writer (or a seal, or a
compaction) prepares the next snapshot off the read path and publishes
it with a single reference assignment.  Readers therefore never block on
writers and never observe a half-applied mutation.

One ``(tree, table)`` pair is the one-piece case of a set of pieces: the
paper's closure is a meet (``cl_U(c) = meet_s cl_s(c)``) and aggregate
states merge over disjoint row sets.  The snapshot chooses each family's
plan from the number of pieces it holds, which is all a
:class:`~repro.core.warehouse.QCWarehouse` (one piece, or sealed
pieces plus a head), an attached blob and the servers need to know:

* one piece — the tree is walked directly (Algorithms 3/4, and the
  lazily built :class:`~repro.core.iceberg.MeasureIndex` for icebergs,
  constructed on first use under a lock and immutable afterwards);
* several — the query scatters across the pieces and gathers per-cell
  aggregate **states** (:mod:`repro.serving.scatter`, which also says
  why the merged answers equal the one-piece ones exactly).

A constrained iceberg is the range family filtered by the aggregate's
rank, whatever the piece count.

The semantic exploration API (``rollup``, ``drilldowns``,
``open_class``, …) is one implementation (:mod:`repro.core.explore`)
over the snapshot's *cube* — a :class:`~repro.core.explore.TreeCube` or
a :class:`~repro.serving.scatter.UnionCube` — so both stores answer, and
fail, alike.

Every query family runs through the shared traversal protocol, so a
one-piece snapshot also works over the mutable dict tree — the
reference the parity suites build directly.  No store serves one: a
warehouse publishes frozen trees only, which is what lets a snapshot be
shared with a concurrent writer.
"""

from __future__ import annotations

import threading
from typing import Optional

from repro.core import explore
from repro.core.iceberg import MeasureIndex, _satisfies, check_op, pure_iceberg
from repro.core.point_query import point_query_raw
from repro.core.qctree import QCTree
from repro.core.range_query import range_query_raw
from repro.serving import scatter


class ServingSnapshot:
    """A self-contained, shareable read view of a warehouse.

    Bundles the pieces queries traverse, the aggregate, and the serving
    stamp the answers are valid at.  ``tree``/``table`` are the *last*
    (live) piece's — what a one-piece plan reads.  All query methods
    accept and return *raw* (decoded) labels, exactly like the
    corresponding :class:`~repro.core.warehouse.QCWarehouse` methods —
    the warehouse delegates to a snapshot internally.
    """

    __slots__ = ("pieces", "aggregate", "stamp", "generation", "tree",
                 "table", "cube", "_single", "_index", "_index_lock")

    def __init__(self, pieces, aggregate, stamp=(0, 0), generation=0):
        #: Oldest sealed segment first; the live piece is always last.
        self.pieces = tuple(pieces)
        if not self.pieces:
            raise ValueError("a snapshot needs at least one piece")
        self.aggregate = aggregate
        self.stamp = tuple(stamp)
        self.generation = generation
        live = self.pieces[-1]
        self.tree = live.tree
        self.table = live.table
        self._single = len(self.pieces) == 1
        self.cube = (
            explore.TreeCube(self.tree, self.table) if self._single
            else scatter.UnionCube(self.pieces, aggregate)
        )
        self._index: Optional[MeasureIndex] = None
        self._index_lock = threading.Lock()

    # -- measure index -------------------------------------------------------

    @property
    def index(self) -> MeasureIndex:
        """The measure index over the live piece's tree (the whole cube
        of a one-piece snapshot), built on first use.

        Double-checked under a lock so concurrent readers build it once;
        after publication it is only ever read.
        """
        index = self._index
        if index is None:
            with self._index_lock:
                index = self._index
                if index is None:
                    index = MeasureIndex(self.tree)
                    self._index = index
        return index

    # -- queries -------------------------------------------------------------

    def point(self, raw_cell):
        """Point query with raw labels (``"*"`` / None / ALL for any)."""
        if self._single:
            return point_query_raw(self.tree, self.table, raw_cell)
        return scatter.scatter_point(self.pieces, self.aggregate, raw_cell)

    def range(self, raw_spec) -> dict:
        """Range query with raw labels; returns ``{decoded cell: value}``."""
        if self._single:
            return range_query_raw(self.tree, self.table, raw_spec)
        return scatter.scatter_range(self.pieces, self.aggregate, raw_spec)

    def iceberg(self, threshold, op: str = ">=") -> list:
        """Pure iceberg query: ``[(decoded upper bound, value), ...]``."""
        if self._single:
            classes = pure_iceberg(self.tree, threshold, op=op,
                                   index=self.index)
            return [(self.table.decode_cell(ub), value)
                    for ub, value in classes]
        return scatter.scatter_iceberg(self.pieces, self.aggregate,
                                       threshold, op=op)

    def iceberg_in_range(self, raw_spec, threshold, op: str = ">=") -> dict:
        """Constrained iceberg query; returns ``{decoded cell: value}``.

        The paper's plan (1) on any number of pieces: the range answer,
        kept where the aggregate's rank satisfies ``rank op threshold``.
        An unknown ``op`` is refused before the range is looked at, so
        an empty range refuses it too.
        """
        check_op(op)
        rank = self.aggregate.rank
        return {
            cell: value
            for cell, value in self.range(raw_spec).items()
            if _satisfies(rank(value), threshold, op)
        }

    # -- exploration ---------------------------------------------------------

    def _classes(self, op, raw_cell) -> list:
        """One exploration op over this snapshot's cube, raw labels in,
        ``[(decoded upper bound, value), ...]`` out."""
        cube = self.cube
        return [(cube.decode(ub), value)
                for ub, value in op(cube, cube.encode(raw_cell))]

    def class_of(self, raw_cell):
        """The class containing a cell: ``(decoded upper bound, value)``."""
        cube = self.cube
        hit = cube.probe(cube.encode(raw_cell))
        return None if hit is None else (cube.decode(hit[0]), hit[1])

    def rollup(self, raw_cell) -> list:
        """Intelligent roll-up: most general contexts with the same value."""
        return self._classes(explore.cube_rollup, raw_cell)

    def rollup_exceptions(self, raw_cell) -> list:
        """Classes inside the roll-up region that break the value."""
        return self._classes(explore.cube_rollup_exceptions, raw_cell)

    def drilldowns(self, raw_cell) -> list:
        """One-step drill-down classes from a cell's class."""
        return self._classes(explore.cube_drilldowns, raw_cell)

    def rollups(self, raw_cell) -> list:
        """One-step roll-up classes from a cell's class."""
        return self._classes(explore.cube_rollups, raw_cell)

    def open_class(self, raw_cell):
        """Drill into a class: upper bound, lower bounds, members (decoded)."""
        cube = self.cube
        structure = explore.cube_open_class(cube, cube.encode(raw_cell))
        return {
            "upper_bound": cube.decode(structure.upper_bound),
            "lower_bounds": [cube.decode(lb) for lb in structure.lower_bounds],
            "members": [cube.decode(m) for m in structure.members],
            "value": structure.value,
        }

    # -- reporting -----------------------------------------------------------

    def describe(self) -> dict:
        """Identity of this snapshot, for server stats and logs."""
        lsn, epoch = self.stamp
        out = {
            "lsn": lsn,
            "epoch": epoch,
            # Anything but the mutable dict tree is the immutable array
            # tree, compiled or attached; a sealed piece is only ever
            # published frozen.
            "frozen": not isinstance(self.tree, QCTree),
            "n_rows": sum(p.table.n_rows for p in self.pieces),
            "classes": sum(p.tree.n_classes for p in self.pieces),
            "nodes": sum(p.tree.n_nodes for p in self.pieces),
        }
        if not self._single:
            out.update(
                segments=len(self.pieces) - 1,
                head_rows=self.table.n_rows,
                generation=self.generation,
            )
        return out

    def __repr__(self):
        lsn, epoch = self.stamp
        return (
            f"ServingSnapshot(lsn={lsn}, epoch={epoch}, "
            f"gen={self.generation}, pieces={len(self.pieces)}, "
            f"rows={sum(p.table.n_rows for p in self.pieces)}, "
            f"tree={type(self.tree).__name__})"
        )
