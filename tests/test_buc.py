"""Tests for the BUC cube computation (full and iceberg)."""

import pytest

from repro.core.cells import ALL
from repro.cube.buc import buc, buc_cell_count
from repro.cube.lattice import full_cube, iter_nonempty_cells
from repro.cube.schema import Schema
from repro.cube.table import BaseTable
from repro.errors import QueryError
from tests.conftest import make_random_table


class TestFullCube:
    @pytest.mark.parametrize("seed", range(15))
    def test_matches_oracle(self, seed):
        table = make_random_table(seed)
        got = buc(table, ("sum", "m"))
        expected = full_cube(table, ("sum", "m"))
        assert set(got) == set(expected)
        for cell in expected:
            assert got[cell] == expected[cell]

    @pytest.mark.parametrize("seed", range(10))
    def test_cell_count(self, seed):
        table = make_random_table(seed + 20)
        assert buc_cell_count(table) == sum(
            1 for _ in iter_nonempty_cells(table)
        )

    def test_empty_table(self):
        schema = Schema(dimensions=("A",), measures=("m",))
        table = BaseTable.from_encoded([], [], schema, cardinalities=[2])
        assert buc(table, "count") == {}
        assert buc_cell_count(table) == 0

    def test_paper_example_cube_size(self, sales_table):
        # Figure 2(a): 15 aggregate cells plus the 3 base tuples.
        assert buc_cell_count(sales_table) == 18

    def test_streaming_callback(self, sales_table):
        seen = []
        result = buc(sales_table, "count",
                     on_cell=lambda cell, value: seen.append((cell, value)))
        assert result == {}  # streamed, not materialized
        assert len(seen) == 18


class TestIceberg:
    def test_min_support_prunes(self, sales_table):
        cube2 = buc(sales_table, "count", min_support=2)
        # Only cells covering at least two tuples survive.
        decoded = {sales_table.decode_cell(c): v for c, v in cube2.items()}
        assert decoded == {
            ("*", "*", "*"): 3,
            ("S1", "*", "*"): 2,
            ("S1", "*", "s"): 2,
            ("*", "P1", "*"): 2,
            ("*", "*", "s"): 2,
        }

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("min_support", [2, 3])
    def test_equals_postfiltered_full_cube(self, seed, min_support):
        table = make_random_table(seed + 50)
        got = buc(table, "count", min_support=min_support)
        expected = {
            cell: value
            for cell, value in full_cube(table, "count").items()
            if value >= min_support
        }
        assert got == expected

    def test_min_support_above_table_size(self, sales_table):
        assert buc(sales_table, "count", min_support=99) == {}

    def test_invalid_min_support(self, sales_table):
        with pytest.raises(QueryError):
            buc(sales_table, "count", min_support=0)


class TestCubeGrowth:
    def test_cube_is_larger_than_quotient(self):
        from repro.cube.quotient import QCTable

        table = make_random_table(3, n_dims=4, cardinality=3, n_rows=10)
        assert buc_cell_count(table) > len(QCTable.from_table(table))

    def test_all_cell_always_present(self, sales_table):
        cube = buc(sales_table, "count")
        assert (ALL, ALL, ALL) in cube
