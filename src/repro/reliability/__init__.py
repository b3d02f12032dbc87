"""Durability and self-verification for QC-tree warehouses.

The paper's incremental maintenance (§3.3) lets the summary structure
outlive its base data; this package makes it outlive *crashes*:

* :mod:`repro.reliability.wal` logs maintenance batches ahead of tree
  mutation; ``QCWarehouse.checkpoint(directory)`` folds them into the
  manifest directory every store writes — each piece's base table as a
  piece file (its columns: label dictionaries, codes and measures) whose
  CRC32 the manifest records, and no tree (Theorem 2 rebuilds it) — and
  ``QCWarehouse.recover(directory, wal_path, schema)`` checks and reads
  the tables, builds the trees and replays the rest;
* :mod:`repro.reliability.transactional` rolls a failed batch back to
  the pre-batch tree;
* :mod:`repro.reliability.fsck` checks a dict tree's structure and
  links and compares each tree with a rebuild of its table by canonical
  bytes, feeding the CLI ``fsck`` command and
  ``QCWarehouse.verify``, which rebuilds a failing piece from its table;
* :mod:`repro.reliability.faults` is the serving layer's fault plan
  (:class:`~repro.reliability.faults.ServingFaults`); the storage-fault
  tools that prove every recovery path live with the tests.
"""

from repro.reliability.fsck import (
    FsckIssue,
    FsckReport,
    fsck_tree,
)
from repro.reliability.transactional import transactional
from repro.reliability.wal import WalRecord, WriteAheadLog

__all__ = [
    "FsckIssue", "FsckReport", "fsck_tree",
    "transactional",
    "WalRecord", "WriteAheadLog",
]
