"""``SegmentedWarehouse`` — :class:`~repro.core.warehouse.QCWarehouse`
with finite seal thresholds.

Everything a store does — sealing, delete routing, scatter-gather reads,
the compactor, checkpoint and recovery — is the one class in
:mod:`repro.core.warehouse`; this subclass only makes the head seal.
"""

from __future__ import annotations

from repro.core.warehouse import QCWarehouse
from repro.cube.table import BaseTable


class SegmentedWarehouse(QCWarehouse):
    """A :class:`~repro.core.warehouse.QCWarehouse` whose head seals at
    ``seal_rows`` rows or :attr:`SEAL_BATCHES` batches: write latency is
    bounded by head size, not cube size, and reads scatter-gather across
    the sealed pieces plus the head."""

    SEAL_BATCHES = 256

    def __init__(self, table: BaseTable, aggregate="count",
                 cache_size: int = 1024, seal_rows: int = 2048,
                 compact_min_segments: int = 4):
        self.seal_rows = seal_rows
        self.compact_min_segments = compact_min_segments
        super().__init__(table, aggregate, cache_size=cache_size)
