"""Core QC-tree machinery: the paper's primary contribution."""

from repro.core.cells import ALL
from repro.core.qctree import QCTree
from repro.core.frozen import FrozenQCTree
from repro.core.construct import build_qctree, build_qctree_reference
from repro.core.point_query import locate, point_query, point_query_raw
from repro.core.query_cache import LsnQueryCache
from repro.core.range_query import (
    RangeQuery, range_query, range_query_naive, range_query_raw,
)
from repro.core.iceberg import MeasureIndex, constrained_iceberg, pure_iceberg
from repro.core.warehouse import QCWarehouse

__all__ = [
    "ALL", "QCTree", "FrozenQCTree", "LsnQueryCache",
    "build_qctree", "build_qctree_reference", "locate",
    "point_query",
    "point_query_raw", "RangeQuery", "range_query", "range_query_naive",
    "range_query_raw", "MeasureIndex", "constrained_iceberg", "pure_iceberg",
    "QCWarehouse",
]
