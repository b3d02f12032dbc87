"""QC-Trees: an efficient summary structure for semantic OLAP.

A from-scratch reproduction of Lakshmanan, Pei & Zhao (SIGMOD 2003):
the QC-tree summary structure for cover quotient cubes, with
construction, point/range/iceberg query answering, incremental
maintenance, and the baselines (full cube via BUC, QC-table, Dwarf)
used by the paper's evaluation.
"""

from repro.core import (
    ALL, QCTree, QCWarehouse, build_qctree, locate,
    point_query, point_query_raw,
    RangeQuery, range_query, range_query_naive, range_query_raw,
    MeasureIndex, constrained_iceberg, pure_iceberg,
)
from repro.core.maintenance import (
    apply_deletions, apply_insertions, batch_delete, batch_insert,
    delete_one_by_one, insert_one_by_one,
)
from repro.cube import BaseTable, Schema, make_aggregate
from repro.errors import (
    MaintenanceError, QueryError, RecoveryError, ReproError, SchemaError,
    SerializationError,
)
from repro.reliability import (
    FsckReport, WriteAheadLog, fsck_tree, transactional,
)

__version__ = "1.1.0"

__all__ = [
    "ALL", "QCTree", "QCWarehouse", "build_qctree", "locate",
    "point_query", "point_query_raw",
    "RangeQuery", "range_query", "range_query_naive", "range_query_raw",
    "MeasureIndex", "constrained_iceberg", "pure_iceberg",
    "apply_deletions", "apply_insertions", "batch_delete", "batch_insert",
    "delete_one_by_one", "insert_one_by_one",
    "BaseTable", "Schema", "make_aggregate",
    "ReproError", "SchemaError", "QueryError", "MaintenanceError",
    "SerializationError", "RecoveryError",
    "FsckReport", "WriteAheadLog", "fsck_tree", "transactional",
]
