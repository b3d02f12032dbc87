"""Incremental maintenance of QC-trees (insertions and deletions).

:func:`maintain_batch` is the one entry point: it applies a mixed
insert/delete batch as one transaction with one merged delta over one
cover index.  ``batch_insert`` / ``batch_delete`` are the two algorithms
it runs; ``apply_*`` and ``*_one_by_one`` are its pure-insert /
pure-delete and batch-of-one callers (the sequential baseline the
benchmarks and the differential oracle compare against).
"""

from repro.core.maintenance.batch import (
    BatchMaintenanceResult, apply_deletions, apply_insertions,
    delete_one_by_one, insert_one_by_one, maintain_batch,
)
from repro.core.maintenance.delta import MaintenanceDelta
from repro.core.maintenance.insert import batch_insert
from repro.core.maintenance.delete import batch_delete, resolve_deletions

__all__ = [
    "BatchMaintenanceResult", "maintain_batch",
    "MaintenanceDelta",
    "apply_insertions", "batch_insert", "insert_one_by_one",
    "apply_deletions", "batch_delete", "delete_one_by_one",
    "resolve_deletions",
]
