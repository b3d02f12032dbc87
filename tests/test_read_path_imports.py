"""No ``import`` statement runs on a read.

A function-level ``import`` costs a ``sys.modules`` lookup and a name
binding on every call — about 1 µs, a quarter of a heap-tree point
query.  This file parses the read path's hot functions and fails on any
``import`` inside them, so one cannot creep back in.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import textwrap

import pytest

from repro.core.frozen import FrozenQCTree
from repro.core.iceberg import constrained_iceberg, pure_iceberg
from repro.serving.snapshot import ServingSnapshot
from repro.shard import server, worker

# ``repro.core`` re-exports functions under these modules' names.
point_query = importlib.import_module("repro.core.point_query")
range_query = importlib.import_module("repro.core.range_query")

HOT = {
    "point_query_raw": point_query.point_query_raw,
    "point_query": point_query.point_query,
    "range_query_raw": range_query.range_query_raw,
    "range_query_naive": range_query.range_query_naive,
    "range_classes": range_query.range_classes,
    "pure_iceberg": pure_iceberg,
    "constrained_iceberg": constrained_iceberg,
    "encode_range": range_query.encode_range,
    "ServingSnapshot.point": ServingSnapshot.point,
    "ServingSnapshot.range": ServingSnapshot.range,
    "FrozenQCTree.locate": FrozenQCTree.locate,
    "FrozenQCTree._point_query_batch": FrozenQCTree._point_query_batch,
    "worker._answer_batch": worker._answer_batch,
    "worker._answer_chunk": worker._answer_chunk,
    "ShardServer.map_query": server.ShardServer.map_query,
}


def imports_in(function) -> list:
    tree = ast.parse(textwrap.dedent(inspect.getsource(function)))
    return [ast.unparse(node) for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))]


@pytest.mark.parametrize("name", sorted(HOT))
def test_no_import_inside(name):
    assert imports_in(HOT[name]) == [], name


def test_the_check_sees_a_function_level_import():
    def reads():
        from repro.errors import SchemaError

        return SchemaError

    assert imports_in(reads) == ["from repro.errors import SchemaError"]
