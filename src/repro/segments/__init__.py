"""Segmented realtime ingest: immutable QC-tree segments + a mutable head.

A :class:`~repro.core.warehouse.QCWarehouse` never seals its head, so
every write batch pays maintenance cost that grows with cube size.
:class:`SegmentedWarehouse` is the same class with finite seal
thresholds, restructuring the store the way realtime OLAP engines
(Apache Pinot's star-tree realtime tables) do:

* incoming batches land in a small mutable **head** tree, maintained by
  the existing Algorithms 5–7 batched path — write cost is bounded by
  head size, not cube size;
* once the head crosses a row/batch threshold it **seals** into an
  immutable segment (the freeze is finalized off the write path);
* queries **scatter-gather**: each segment answers from its own frozen
  tree and the per-cell aggregate *states* are merged across segments
  (:meth:`AggregateFunction.merge <repro.cube.aggregates.
  AggregateFunction.merge>`), which is sound because states are built
  over disjoint row sets — the several-piece plans of the one
  :class:`~repro.serving.snapshot.ServingSnapshot`
  (:mod:`repro.serving.scatter`);
* a background **compactor** unions adjacent sealed segments into one,
  swapping the segment set atomically so readers never block.

Everything but the thresholds is :mod:`repro.core.warehouse`.
"""

from repro.segments.warehouse import SegmentedWarehouse

__all__ = ["SegmentedWarehouse"]
