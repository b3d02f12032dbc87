"""Tests for range-query answering (Algorithm 4), including the paper's
Example 6."""

import random

import pytest

from repro.core.cells import ALL
from repro.core.construct import build_qctree
from repro.core.range_query import (
    RangeQuery,
    range_query,
    range_query_naive,
    range_query_raw,
)
from repro.errors import QueryError
from tests.conftest import make_random_table


class TestRangeQuerySpec:
    def test_single_values_normalized(self):
        q = RangeQuery((1, ALL, [2, 3]), 3)
        assert q.positions == ((1,), ALL, (2, 3))

    def test_duplicates_removed_and_sorted(self):
        q = RangeQuery(([3, 1, 3],), 1)
        assert q.positions == ((1, 3),)

    def test_wrong_arity_rejected(self):
        with pytest.raises(QueryError):
            RangeQuery((1, 2), 3)

    def test_empty_range_rejected(self):
        with pytest.raises(QueryError):
            RangeQuery(([],), 1)

    def test_n_points(self):
        q = RangeQuery(([1, 2], ALL, [3, 4, 5]), 3)
        assert q.n_points() == 6

    def test_iter_points(self):
        q = RangeQuery(([1, 2], ALL), 2)
        assert list(q.iter_points()) == [(1, ALL), (2, ALL)]


class TestExample6:
    def test_paper_range_query(self, sales_table):
        tree = build_qctree(sales_table, ("avg", "Sale"))
        result = range_query_raw(
            tree, sales_table, (["S1", "S2", "S3"], ["P1", "P3"], "f")
        )
        # Only (S2, P1, f) exists in the range; S3 and P3 prune subtrees.
        assert result == {("S2", "P1", "f"): 9.0}

    def test_all_candidates_unknown_returns_empty(self, sales_table):
        tree = build_qctree(sales_table, ("avg", "Sale"))
        assert range_query_raw(tree, sales_table, (["S9"], "*", "*")) == {}


class TestAgainstNaivePlan:
    @pytest.mark.parametrize("seed", range(25))
    def test_matches_point_query_expansion(self, seed):
        table = make_random_table(seed)
        tree = build_qctree(table, ("sum", "m"))
        rng = random.Random(seed)
        for _ in range(5):
            spec = []
            for j in range(table.n_dims):
                roll = rng.random()
                cj = table.cardinality(j)
                if roll < 0.3:
                    spec.append(ALL)
                elif roll < 0.6:
                    spec.append([rng.randrange(cj)])
                else:
                    spec.append(
                        sorted(rng.sample(range(cj), min(cj, rng.randint(1, 3))))
                    )
            smart = range_query(tree, spec)
            naive = range_query_naive(tree, spec)
            assert set(smart) == set(naive)
            for cell in smart:
                assert smart[cell] == naive[cell]

    @pytest.mark.parametrize("seed", range(10))
    def test_all_star_spec_returns_root_class_only(self, seed):
        table = make_random_table(seed + 60)
        tree = build_qctree(table, "count")
        result = range_query(tree, (ALL,) * table.n_dims)
        assert list(result) == [(ALL,) * table.n_dims]
        assert result[(ALL,) * table.n_dims] == table.n_rows

    def test_full_domain_range_enumerates_group_by(self, sales_table):
        tree = build_qctree(sales_table, ("avg", "Sale"))
        spec = ([0, 1], ALL, ALL)  # both stores
        result = range_query(tree, spec)
        decoded = {sales_table.decode_cell(c): v for c, v in result.items()}
        assert decoded == {("S1", "*", "*"): 9.0, ("S2", "*", "*"): 9.0}

    def test_missing_values_pruned_not_error(self, sales_table):
        tree = build_qctree(sales_table, ("avg", "Sale"))
        result = range_query(tree, ([0, 1], [99], ALL))
        assert result == {}


class TestRawSpecTypes:
    """``range_query_raw`` must accept every iterable RangeQuery does —
    a ``range`` object used to fall through to the single-label branch
    and silently match nothing."""

    def test_range_object_behaves_like_list(self, seed=3):
        table = make_random_table(seed, n_dims=3, cardinality=4, n_rows=10)
        tree = build_qctree(table, ("sum", "m"))
        via_range = range_query_raw(tree, table, (range(0, 3), "*", "*"))
        via_list = range_query_raw(tree, table, ([0, 1, 2], "*", "*"))
        assert via_range == via_list
        assert via_range  # the domain prefix is never empty here

    def test_range_object_in_warehouse_spec(self, sales_table):
        from repro.core.warehouse import QCWarehouse

        wh = QCWarehouse(sales_table, aggregate=("avg", "Sale"))
        # Encoded store codes 0..1 == labels S1, S2.
        spec_range = wh.range((["S1", "S2"], "*", "*"))
        assert spec_range == {("S1", "*", "*"): 9.0, ("S2", "*", "*"): 9.0}

    def test_all_unknown_labels_in_one_dim_is_empty(self, sales_table):
        tree = build_qctree(sales_table, ("avg", "Sale"))
        assert range_query_raw(
            tree, sales_table, (["S1", "S2"], ["P9", "P10"], "*")
        ) == {}

    def test_partly_unknown_labels_pruned(self, sales_table):
        tree = build_qctree(sales_table, ("avg", "Sale"))
        result = range_query_raw(
            tree, sales_table, (["S2", "S9"], "*", ["f", "x"])
        )
        assert result == {("S2", "*", "f"): 9.0}
