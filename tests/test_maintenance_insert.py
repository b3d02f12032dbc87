"""Tests for incremental batch insertion (Algorithm 2) — Theorem 2 says the
maintained tree must equal a from-scratch rebuild, links included."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.construct import build_qctree
from repro.core.maintenance import (
    apply_insertions,
    batch_insert,
    insert_one_by_one,
)
from repro.core.maintenance.insert import closures_below
from repro.cube.cover_index import CoverIndex
from repro.core.point_query import point_query
from repro.cube.lattice import closure
from repro.cube.schema import Schema
from repro.cube.table import BaseTable
from repro.errors import MaintenanceError
from tests.conftest import LINKS, all_cells, make_random_table


def _random_records(rng, n_dims, card, count):
    return [
        tuple(rng.randrange(card) for _ in range(n_dims))
        + (float(rng.randint(0, 9)),)
        for _ in range(count)
    ]


def _assert_equals_rebuild(tree, new_table, aggregate):
    mine, want = tree.signature(), build_qctree(new_table,
                                                aggregate).signature()
    assert mine["ub"] == want["ub"], "paths differ: " + mine.diff(want)
    assert all(mine[name] == want[name] for name in LINKS), \
        "links differ: " + mine.diff(want)
    assert mine == want, "classes differ: " + mine.diff(want)


class TestPaperExample3:
    def test_batch_update_of_running_example(self, sales_table):
        """Example 3: insert (S2,P2,f) and (S2,P3,f) into the sales cube."""
        tree = build_qctree(sales_table, ("avg", "Sale"))
        new_table = apply_insertions(
            tree, sales_table,
            [("S2", "P2", "f", 4.0), ("S2", "P3", "f", 1.0)],
        )
        _assert_equals_rebuild(tree, new_table, ("avg", "Sale"))
        decoded = {
            new_table.decode_cell(ub): value
            for ub, value in tree.class_upper_bounds().items()
        }
        # Figure 8's new classes appear with their bounds:
        assert ("S2", "*", "f") in decoded       # split from (S2, P1, f)
        assert ("*", "P2", "*") in decoded       # split from (S1, P2, s)
        assert ("S2", "P2", "f") in decoded      # newly inserted
        assert ("S2", "P3", "f") in decoded      # newly inserted
        assert ("S2", "P1", "f") in decoded      # old bound survives
        # The root class's measure was updated.
        assert decoded[("*", "*", "*")] == 32 / 5

    def test_insert_duplicate_of_existing_tuple(self, sales_table):
        """Case 1 of §3.3.1: same dimension values as an existing tuple."""
        tree = build_qctree(sales_table, ("avg", "Sale"))
        new_table = apply_insertions(tree, sales_table,
                                     [("S2", "P1", "f", 3.0)])
        _assert_equals_rebuild(tree, new_table, ("avg", "Sale"))
        decoded = {
            new_table.decode_cell(ub): value
            for ub, value in tree.class_upper_bounds().items()
        }
        assert decoded[("S2", "P1", "f")] == 6.0  # avg(9, 3)


class TestTheorem2:
    @pytest.mark.parametrize("seed", range(25))
    def test_batch_equals_rebuild(self, seed):
        rng = random.Random(seed)
        table = make_random_table(seed)
        agg = rng.choice([("sum", "m"), "count", ("avg", "m"), ("max", "m")])
        tree = build_qctree(table, agg)
        delta = _random_records(rng, table.n_dims, table.cardinality(0),
                                rng.randint(1, 6))
        new_table = apply_insertions(tree, table, delta)
        _assert_equals_rebuild(tree, new_table, agg)

    @pytest.mark.parametrize("seed", range(8))
    def test_one_by_one_equals_rebuild(self, seed):
        rng = random.Random(seed + 1000)
        table = make_random_table(seed)
        tree = build_qctree(table, ("sum", "m"))
        delta = _random_records(rng, table.n_dims, table.cardinality(0), 4)
        new_table = insert_one_by_one(tree, table, delta)
        _assert_equals_rebuild(tree, new_table, ("sum", "m"))

    @given(st.integers(0, 100_000))
    @settings(max_examples=50, deadline=None)
    def test_hypothesis_sweep(self, seed):
        rng = random.Random(seed)
        table = make_random_table(seed, n_dims=3, cardinality=3,
                                  n_rows=rng.randint(1, 8))
        tree = build_qctree(table, "count")
        delta = _random_records(rng, 3, 4, rng.randint(1, 4))
        new_table = apply_insertions(tree, table, delta)
        _assert_equals_rebuild(tree, new_table, "count")

    @pytest.mark.parametrize("seed", range(8))
    def test_queries_after_insert_match_oracle(self, seed):
        rng = random.Random(seed + 2000)
        table = make_random_table(seed)
        tree = build_qctree(table, ("sum", "m"))
        delta = _random_records(rng, table.n_dims, table.cardinality(0), 4)
        new_table = apply_insertions(tree, table, delta)
        from repro.cube.lattice import cell_aggregate

        for cell in all_cells(new_table):
            assert (
                point_query(tree, cell)
                == cell_aggregate(new_table, ("sum", "m"), cell)
            )

    def test_insert_into_empty_warehouse(self):
        schema = Schema(dimensions=("A", "B"), measures=("m",))
        table = BaseTable.from_encoded([], [], schema, cardinalities=[3, 3])
        tree = build_qctree(table, ("sum", "m"))
        new_table = apply_insertions(
            tree, table, [(0, 1, 5.0), (2, 1, 3.0)]
        )
        _assert_equals_rebuild(tree, new_table, ("sum", "m"))

    def test_new_dimension_values(self, sales_table):
        """Inserted tuples may carry labels never seen before."""
        tree = build_qctree(sales_table, ("avg", "Sale"))
        new_table = apply_insertions(
            tree, sales_table, [("S3", "P9", "w", 2.0)]
        )
        _assert_equals_rebuild(tree, new_table, ("avg", "Sale"))

    def test_empty_delta_is_noop(self, sales_table):
        tree = build_qctree(sales_table, "count")
        before = tree.signature()
        new_table = apply_insertions(tree, sales_table, [])
        assert tree.signature() == before
        assert new_table.n_rows == sales_table.n_rows

    def test_dimension_mismatch_rejected(self, sales_table):
        tree = build_qctree(sales_table, "count")
        other = BaseTable.from_encoded(
            [(0,)], [[1.0]], Schema(dimensions=("X",), measures=("m",))
        )
        with pytest.raises(MaintenanceError):
            batch_insert(tree, other, CoverIndex(other))

    def test_repeated_batches_stay_consistent(self, sales_table):
        rng = random.Random(0)
        tree = build_qctree(sales_table, ("sum", "Sale"))
        table = sales_table
        stores, products, seasons = ["S1", "S2", "S3"], ["P1", "P2"], ["s", "f"]
        for _ in range(5):
            delta = [
                (rng.choice(stores), rng.choice(products), rng.choice(seasons),
                 float(rng.randint(1, 9)))
                for _ in range(3)
            ]
            table = apply_insertions(tree, table, delta)
        _assert_equals_rebuild(tree, table, ("sum", "Sale"))


class TestClosuresBelow:
    @pytest.mark.parametrize("seed", range(10))
    def test_enumerates_all_closures_of_generalizations(self, seed):
        table = make_random_table(seed)
        tree = build_qctree(table, "count")
        for row in table.rows[:3]:
            found = set(closures_below(tree, row))
            from repro.core.cells import generalizations

            expected = {
                closure(table, g)
                for g in generalizations(row)
                if closure(table, g) is not None
            }
            assert found == expected
