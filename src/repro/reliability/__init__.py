"""Durability and self-verification for QC-tree warehouses.

The paper's incremental maintenance (§3.3) lets the summary structure
outlive its base data; this package makes it outlive *crashes*:

* :mod:`repro.core.serialize` (wired here) writes atomic, checksummed
  ``QCTREE/2`` snapshots;
* :mod:`repro.reliability.wal` logs maintenance batches ahead of tree
  mutation; ``QCWarehouse.checkpoint(directory)`` folds them into the
  manifest directory every store writes, and ``QCWarehouse.recover(
  directory, wal_path, schema)`` replays the rest;
* :mod:`repro.reliability.transactional` rolls a failed batch back to
  the pre-batch tree;
* :mod:`repro.reliability.fsck` re-derives the tree's invariants and
  sampled aggregates, feeding the CLI ``fsck`` command and the
  warehouse's degraded mode;
* :mod:`repro.reliability.faults` injects torn writes, partial appends,
  and exception-at-nth-I/O crashes so tests can prove every recovery
  path.
"""

from repro.reliability.faults import (
    FaultClock,
    InjectedCrash,
    count_io,
    crash_on_io,
    partial_append,
    torn_write,
)
from repro.reliability.fsck import (
    FsckIssue,
    FsckReport,
    fsck_tree,
)
from repro.reliability.transactional import transactional
from repro.reliability.wal import WalRecord, WriteAheadLog

__all__ = [
    "FaultClock", "InjectedCrash", "count_io", "crash_on_io",
    "partial_append", "torn_write",
    "FsckIssue", "FsckReport", "fsck_tree",
    "transactional",
    "WalRecord", "WriteAheadLog",
]
