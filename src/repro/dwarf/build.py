"""Dwarf construction with prefix sharing and suffix coalescing.

The builder recurses over base-table partitions, one dimension layer at a
time, memoizing sub-dwarfs on ``(layer, partition row-id set)``.  Two cells
whose partitions contain exactly the same tuples therefore share one
sub-dwarf — this realizes suffix coalescing, including its most common
special case: the ``ALL`` cell of a single-value node pointing to the same
sub-dwarf as the value cell.

Coalescing on row-id sets is the semantic criterion ("the sub-dwarf
describes the same tuples") rather than the syntactic one ("the serialized
sub-dwarfs happen to be byte-identical"); it catches every coalescing
opportunity the original algorithm's SuffixCoalesce discovers on these
inputs, which is what matters for the size comparison.
"""

from __future__ import annotations

from repro.cube.aggregates import make_aggregate
from repro.cube.table import BaseTable
from repro.dwarf.structure import Dwarf


def build_dwarf(table: BaseTable, aggregate="count") -> Dwarf:
    """Build the Dwarf cube of ``table``.

    An empty table yields a Dwarf whose root is an empty leaf-layerless
    shell with ``root is None``; queries on it return None.
    """
    agg = make_aggregate(aggregate)
    dwarf = Dwarf(table.n_dims, agg)
    if not table.n_rows:
        return dwarf
    table_rows = table.rows
    n_dims = table.n_dims
    memo: dict = {}

    def build(rows: tuple, level: int) -> int:
        key = (level, rows)
        cached = memo.get(key)
        if cached is not None:
            return cached
        node_id = dwarf.new_node(level)
        node = dwarf.node(node_id)
        parts: dict = {}
        for i in rows:
            parts.setdefault(table_rows[i][level], []).append(i)
        if level == n_dims - 1:
            for value in sorted(parts):
                node.cells[value] = agg.state(table, parts[value])
            node.all_cell = agg.state(table, rows)
        else:
            for value in sorted(parts):
                node.cells[value] = build(tuple(parts[value]), level + 1)
            node.all_cell = build(rows, level + 1)
        memo[key] = node_id
        return node_id

    dwarf.root = build(tuple(range(len(table_rows))), 0)
    return dwarf
