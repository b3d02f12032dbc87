"""Cube substrate: schemas, base tables, aggregates, lattice oracle, BUC."""

from repro.cube.schema import Dimension, Measure, Schema
from repro.cube.table import BaseTable
from repro.cube.cover_index import CoverIndex
from repro.cube.aggregates import (
    AggregateFunction, Average, Count, Max, Min, MultiAggregate, Sum,
    make_aggregate,
)

__all__ = [
    "Dimension", "Measure", "Schema", "BaseTable", "CoverIndex",
    "AggregateFunction", "Average", "Count", "Max", "Min", "MultiAggregate",
    "Sum", "make_aggregate",
]
