"""Tests for the Dwarf baseline: construction, coalescing, and queries."""

import random

import pytest

from repro.core.cells import ALL
from repro.core.construct import build_qctree
from repro.core.range_query import range_query
from repro.cube.lattice import full_cube
from repro.cube.schema import Schema
from repro.cube.table import BaseTable
from repro.dwarf.build import build_dwarf
from repro.dwarf.query import dwarf_point_query, dwarf_range_query
from repro.errors import QueryError
from tests.conftest import all_cells, make_random_table


class TestConstruction:
    def test_empty_table(self):
        schema = Schema(dimensions=("A", "B"), measures=("m",))
        table = BaseTable.from_encoded([], [], schema, cardinalities=[2, 2])
        dwarf = build_dwarf(table, "count")
        assert dwarf.root is None
        assert dwarf_point_query(dwarf, (ALL, ALL)) is None

    def test_single_tuple_coalesces_everything(self):
        schema = Schema(dimensions=("A", "B", "C"), measures=("m",))
        table = BaseTable.from_encoded([(0, 1, 2)], [[5.0]], schema)
        dwarf = build_dwarf(table, "count")
        # One node per level: the ALL cell shares the single value's
        # sub-dwarf everywhere.
        assert dwarf.n_nodes == 3
        assert dwarf.n_cells == 3

    def test_levels_form_layers(self):
        table = make_random_table(3, n_dims=3)
        dwarf = build_dwarf(table, "count")
        root = dwarf.node(dwarf.root)
        assert root.level == 0
        for node in dwarf.iter_nodes():
            if node.level < table.n_dims - 1:
                for child in node.cells.values():
                    assert dwarf.node(child).level == node.level + 1
                assert dwarf.node(node.all_cell).level == node.level + 1

    def test_suffix_coalescing_shares_identical_partitions(self):
        # Two stores selling the same single product: their sub-dwarfs
        # describe different tuples, but each single-tuple partition
        # coalesces its ALL cell with its value cell.
        schema = Schema(dimensions=("A", "B"), measures=("m",))
        table = BaseTable.from_encoded(
            [(0, 7), (1, 7)], [[1.0], [2.0]], schema
        )
        dwarf = build_dwarf(table, "count")
        root = dwarf.node(dwarf.root)
        for child_id in root.cells.values():
            child = dwarf.node(child_id)
            assert child.all_cell == child.cells[7]

    def test_stats(self):
        table = make_random_table(5)
        dwarf = build_dwarf(table, "count")
        stats = dwarf.stats()
        assert stats["nodes"] == dwarf.n_nodes
        assert stats["all_cells"] == dwarf.n_nodes
        assert stats["cells"] == sum(len(n.cells) for n in dwarf.iter_nodes())


class TestPointQueries:
    @pytest.mark.parametrize("seed", range(20))
    def test_exhaustive_against_oracle(self, seed):
        table = make_random_table(seed)
        dwarf = build_dwarf(table, ("sum", "m"))
        oracle = full_cube(table, ("sum", "m"))
        for cell in all_cells(table):
            assert (
                dwarf_point_query(dwarf, cell)
                == oracle.get(cell)
            ), f"cell {cell} rows {table.rows}"

    def test_wrong_arity_rejected(self):
        table = make_random_table(0, n_dims=2)
        dwarf = build_dwarf(table, "count")
        with pytest.raises(QueryError):
            dwarf_point_query(dwarf, (ALL,))

    def test_every_query_touches_n_levels(self):
        """Dwarf's access pattern: one node per dimension, always."""
        table = make_random_table(1, n_dims=4)
        dwarf = build_dwarf(table, "count")
        # (*,*,*,*) follows ALL cells through all four levels.
        assert dwarf_point_query(dwarf, (ALL,) * 4) == table.n_rows


class TestRangeQueries:
    @pytest.mark.parametrize("seed", range(15))
    def test_matches_qctree_range(self, seed):
        table = make_random_table(seed)
        dwarf = build_dwarf(table, ("sum", "m"))
        tree = build_qctree(table, ("sum", "m"))
        rng = random.Random(seed)
        for _ in range(4):
            spec = []
            for j in range(table.n_dims):
                cj = table.cardinality(j)
                roll = rng.random()
                if roll < 0.3:
                    spec.append(ALL)
                else:
                    spec.append(
                        sorted(rng.sample(range(cj), min(cj, rng.randint(1, 3))))
                    )
            a = dwarf_range_query(dwarf, spec)
            b = range_query(tree, spec)
            assert set(a) == set(b)
            for cell in a:
                assert a[cell] == b[cell]

    def test_range_on_empty_dwarf(self):
        schema = Schema(dimensions=("A",), measures=("m",))
        table = BaseTable.from_encoded([], [], schema, cardinalities=[2])
        dwarf = build_dwarf(table, "count")
        assert dwarf_range_query(dwarf, ([0, 1],)) == {}


class TestSizeBehaviour:
    def test_correlated_data_coalesces_more(self):
        """Functional dependencies shrink the Dwarf via suffix coalescing."""
        rng = random.Random(0)
        schema = Schema(dimensions=("A", "B", "C"), measures=("m",))
        n = 60
        # B functionally depends on A: strong coalescing.
        correlated = [(a := rng.randrange(8), a % 4, rng.randrange(4))
                      for _ in range(n)]
        independent = [
            (rng.randrange(8), rng.randrange(4), rng.randrange(4))
            for _ in range(n)
        ]
        d1 = build_dwarf(
            BaseTable.from_encoded(correlated, [[1.0]] * n, schema), "count"
        )
        d2 = build_dwarf(
            BaseTable.from_encoded(independent, [[1.0]] * n, schema), "count"
        )
        assert d1.n_cells < d2.n_cells
