"""Tests for incremental batch deletion (§3.3.2), including the paper's
Example 4 and Theorem 2 equality with a rebuild."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.construct import build_qctree
from repro.core.maintenance import (
    apply_deletions,
    apply_insertions,
    delete_one_by_one,
)
from repro.core.point_query import point_query
from repro.errors import MaintenanceError
from tests.conftest import LINKS, all_cells, make_random_table


def _assert_equals_rebuild(tree, new_table, aggregate):
    mine, want = tree.signature(), build_qctree(new_table,
                                                aggregate).signature()
    assert mine["ub"] == want["ub"], "paths differ: " + mine.diff(want)
    assert all(mine[name] == want[name] for name in LINKS), \
        "links differ: " + mine.diff(want)
    assert mine == want, "classes differ: " + mine.diff(want)


class TestPaperExample4:
    def test_deletion_merges_classes(self, extended_sales_table):
        """Delete (S2,P2,f), (S2,P3,f) from the five-tuple warehouse."""
        tree = build_qctree(extended_sales_table, ("avg", "Sale"))
        new_table = apply_deletions(
            tree, extended_sales_table,
            [("S2", "P2", "f", 0.0), ("S2", "P3", "f", 0.0)],
        )
        _assert_equals_rebuild(tree, new_table, ("avg", "Sale"))
        decoded = {
            new_table.decode_cell(ub): value
            for ub, value in tree.class_upper_bounds().items()
        }
        # (S2,P2,f) and (S2,P3,f) classes are gone; (S2,*,f) merged into
        # (S2,P1,f); (*,P2,*) merged into (S1,P2,s).
        assert ("S2", "P2", "f") not in decoded
        assert ("S2", "P3", "f") not in decoded
        assert ("S2", "*", "f") not in decoded
        assert ("*", "P2", "*") not in decoded
        assert decoded[("S2", "P1", "f")] == 9.0
        assert decoded[("S1", "P2", "s")] == 12.0

    def test_example4_restores_original_tree(self, sales_table,
                                             extended_sales_table):
        """Deleting the two extra tuples recovers the Figure 4 tree."""
        tree = build_qctree(extended_sales_table, ("avg", "Sale"))
        apply_deletions(
            tree, extended_sales_table,
            [("S2", "P2", "f", 0.0), ("S2", "P3", "f", 0.0)],
        )
        original = build_qctree(sales_table, ("avg", "Sale"))
        assert tree.n_nodes == original.n_nodes == 11
        assert tree.n_links == original.n_links == 5

    def test_merge_adds_paper_link(self, extended_sales_table):
        """Example 4: "add a link labelled P2 from (*,*,*) to (S1,P2,s)"."""
        tree = build_qctree(extended_sales_table, ("avg", "Sale"))
        apply_deletions(
            tree, extended_sales_table,
            [("S2", "P2", "f", 0.0), ("S2", "P3", "f", 0.0)],
        )
        table = extended_sales_table
        links = {
            (table.decode_cell(tree.upper_bound_of(src)),
             table.decode_value(dim, value))
            for src, dim, value, _tgt in tree.iter_links()
        }
        assert (("*", "*", "*"), "P2") in links


class TestTheorem2:
    @pytest.mark.parametrize("seed", range(25))
    def test_batch_equals_rebuild(self, seed):
        rng = random.Random(seed)
        table = make_random_table(seed)
        agg = rng.choice([("sum", "m"), "count", ("avg", "m"), ("min", "m")])
        tree = build_qctree(table, agg)
        records = list(table.iter_records())
        k = rng.randint(1, len(records))
        new_table = apply_deletions(tree, table, rng.sample(records, k))
        _assert_equals_rebuild(tree, new_table, agg)

    @pytest.mark.parametrize("seed", range(8))
    def test_one_by_one_equals_rebuild(self, seed):
        rng = random.Random(seed + 500)
        table = make_random_table(seed)
        tree = build_qctree(table, ("sum", "m"))
        records = list(table.iter_records())
        k = rng.randint(1, max(1, len(records) // 2))
        new_table = delete_one_by_one(tree, table, rng.sample(records, k))
        _assert_equals_rebuild(tree, new_table, ("sum", "m"))

    @given(st.integers(0, 100_000))
    @settings(max_examples=50, deadline=None)
    def test_hypothesis_sweep(self, seed):
        rng = random.Random(seed)
        table = make_random_table(seed, n_dims=3, cardinality=3,
                                  n_rows=rng.randint(1, 8))
        tree = build_qctree(table, "count")
        records = list(table.iter_records())
        new_table = apply_deletions(
            tree, table, rng.sample(records, rng.randint(1, len(records)))
        )
        _assert_equals_rebuild(tree, new_table, "count")

    def test_delete_everything_empties_tree(self, sales_table):
        tree = build_qctree(sales_table, ("avg", "Sale"))
        apply_deletions(tree, sales_table, list(sales_table.iter_records()))
        assert tree.n_classes == 0
        assert tree.n_nodes == 1
        assert tree.n_links == 0

    @pytest.mark.parametrize("seed", range(8))
    def test_queries_after_delete_match_oracle(self, seed):
        rng = random.Random(seed + 900)
        table = make_random_table(seed)
        tree = build_qctree(table, ("sum", "m"))
        records = list(table.iter_records())
        new_table = apply_deletions(
            tree, table, rng.sample(records, rng.randint(1, len(records)))
        )
        from repro.cube.lattice import cell_aggregate

        for cell in all_cells(new_table):
            assert (
                point_query(tree, cell)
                == cell_aggregate(new_table, ("sum", "m"), cell)
            )

    def test_deleting_missing_record_rejected(self, sales_table):
        tree = build_qctree(sales_table, "count")
        with pytest.raises(MaintenanceError):
            apply_deletions(tree, sales_table, [("S9", "P1", "s", 0.0)])
        with pytest.raises(MaintenanceError):
            apply_deletions(
                tree, sales_table,
                [("S2", "P1", "f", 0.0), ("S2", "P1", "f", 0.0)],
            )

    def test_duplicate_rows_deleted_one_at_a_time(self, sales_schema):
        from repro.cube.table import BaseTable

        table = BaseTable.from_records(
            [("S1", "P1", "s", 1.0), ("S1", "P1", "s", 5.0)], sales_schema
        )
        tree = build_qctree(table, "count")
        new_table = apply_deletions(tree, table, [("S1", "P1", "s", 0.0)])
        assert new_table.n_rows == 1
        assert tree.class_upper_bounds() == {(0, 0, 0): 1}

    def test_min_aggregate_recomputes_on_delete(self, sales_schema):
        from repro.cube.table import BaseTable

        table = BaseTable.from_records(
            [("S1", "P1", "s", 1.0), ("S1", "P1", "s", 5.0)], sales_schema
        )
        tree = build_qctree(table, ("min", "Sale"))
        apply_deletions(tree, table, [("S1", "P1", "s", 0.0)])
        # MIN cannot be subtracted; the affected class must be recomputed.
        [(ub, value)] = tree.class_upper_bounds().items()
        assert value in (1.0, 5.0)  # whichever copy remained


class TestRoundTrips:
    @pytest.mark.parametrize("seed", range(10))
    def test_insert_then_delete_restores_tree(self, seed):
        # Deletion matches rows on dimension values only, so the round
        # trip is exact for measure-independent aggregates (COUNT); with
        # duplicate dimension tuples, SUM could legitimately remove a
        # different copy than the one inserted.
        rng = random.Random(seed)
        table = make_random_table(seed)
        tree = build_qctree(table, "count")
        original = build_qctree(table, "count")
        delta = [
            tuple(rng.randrange(table.cardinality(0))
                  for _ in range(table.n_dims)) + (float(rng.randint(0, 9)),)
            for _ in range(3)
        ]
        bigger = apply_insertions(tree, table, delta)
        # Delete exactly the rows we added (they occupy the tail).
        tail = list(bigger.iter_records())[table.n_rows:]
        apply_deletions(tree, bigger, tail)
        assert tree.equivalent_to(original)
