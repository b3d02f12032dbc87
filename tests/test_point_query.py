"""Tests for point-query answering (Algorithm 3) against the brute-force
oracle, including the paper's Example 5 walk-throughs."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cells import ALL
from repro.core.construct import build_qctree
from repro.core.point_query import locate, point_query, point_query_raw
from repro.cube.lattice import cell_aggregate, closure, full_cube
from repro.errors import QueryError
from tests.conftest import all_cells, make_random_table


class TestExample5:
    @pytest.fixture
    def tree(self, sales_table):
        return build_qctree(sales_table, ("avg", "Sale"))

    def test_s2_star_f(self, tree, sales_table):
        assert point_query_raw(tree, sales_table, ("S2", "*", "f")) == 9.0

    def test_s2_star_s_is_null(self, tree, sales_table):
        assert point_query_raw(tree, sales_table, ("S2", "*", "s")) is None

    def test_star_p2_star(self, tree, sales_table):
        assert point_query_raw(tree, sales_table, ("*", "P2", "*")) == 12.0

    def test_root_cell(self, tree, sales_table):
        assert point_query_raw(tree, sales_table, ("*", "*", "*")) == 9.0

    def test_unknown_label_is_null_not_error(self, tree, sales_table):
        assert point_query_raw(tree, sales_table, ("S9", "*", "*")) is None

    def test_wrong_arity_rejected(self, tree):
        with pytest.raises(QueryError):
            point_query(tree, (ALL, ALL))


class TestAgainstOracle:
    @pytest.mark.parametrize("seed", range(30))
    def test_exhaustive_small_tables(self, seed):
        table = make_random_table(seed)
        tree = build_qctree(table, ("sum", "m"))
        oracle = full_cube(table, ("sum", "m"))
        for cell in all_cells(table):
            assert point_query(tree, cell) == oracle.get(cell), (
                f"cell {cell} on rows {table.rows}"
            )

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_exhaustive_hypothesis_seeds(self, seed):
        table = make_random_table(seed, n_dims=3, cardinality=3, n_rows=8)
        tree = build_qctree(table, "count")
        for cell in all_cells(table):
            assert (
                point_query(tree, cell)
                == cell_aggregate(table, "count", cell)
            )

    @pytest.mark.parametrize("seed", range(10))
    def test_locate_returns_closure_node(self, seed):
        table = make_random_table(seed + 40)
        tree = build_qctree(table, "count")
        for cell in all_cells(table):
            node = locate(tree, cell)
            expected = closure(table, cell)
            if expected is None:
                assert node is None
            else:
                assert tree.upper_bound_of(node) == expected

    def test_empty_tree_returns_none(self):
        from repro.cube.schema import Schema
        from repro.cube.table import BaseTable

        schema = Schema(dimensions=("A", "B"), measures=("m",))
        table = BaseTable.from_encoded([], [], schema, cardinalities=[2, 2])
        tree = build_qctree(table, "count")
        assert point_query(tree, (ALL, ALL)) is None
        assert point_query(tree, (0, 1)) is None


class TestAccessPattern:
    def test_walk_skips_star_dimensions(self, sales_table):
        """A QC-tree point query touches one path, not one node per dim.

        The paper's motivating comparison with Dwarf: querying
        ``(*, P1, *)`` visits only the root and the ``P1`` node.
        """
        tree = build_qctree(sales_table, ("avg", "Sale"))
        cell = sales_table.encode_cell(("*", "P1", "*"))
        node = locate(tree, cell)
        # The answering node is at depth 1 (root -> P1).
        depth = 0
        cursor = node
        while cursor != tree.root:
            cursor = tree.parent[cursor]
            depth += 1
        assert depth == 1

    def test_all_star_query_counts_the_root(self, sales_table):
        """The uniform counting convention: every node the walk occupies
        counts exactly once, including the starting root — an all-``*``
        query used to report 0 accesses, which under-counted the work
        relative to the per-step convention of the other walks."""
        tree = build_qctree(sales_table, ("avg", "Sale"))
        counter = [0]
        node = locate(tree, (ALL, ALL, ALL), counter=counter)
        assert node == tree.root
        assert counter[0] == 1

    def test_access_count_equals_walk_positions(self, sales_table):
        """Total accesses == distinct positions on the root-to-class
        walk: root, the two routed nodes of ``(S1, P2, s)``, and the
        final forced descent are each one access."""
        tree = build_qctree(sales_table, ("avg", "Sale"))
        cell = sales_table.encode_cell(("S1", "P2", "s"))
        counter = [0]
        node = locate(tree, cell, counter=counter)
        assert node is not None
        depth = 0
        cursor = node
        while cursor != tree.root:
            cursor = tree.parent[cursor]
            depth += 1
        assert counter[0] == depth + 1

    def test_lemma2_fallback_counts_forced_nodes(self, sales_table):
        """``(S2, *, f)`` routes S2 then needs Season=f, which S2's node
        reaches through Lemma 2's forced descent — the forced
        intermediate node must be counted like any other occupied node."""
        tree = build_qctree(sales_table, ("avg", "Sale"))
        cell = sales_table.encode_cell(("S2", "*", "f"))
        counter = [0]
        assert locate(tree, cell, counter=counter) is not None
        # root + S2 + forced P-node + f node
        assert counter[0] == 4

    @pytest.mark.parametrize("seed", range(5))
    def test_multi_aggregate_queries(self, seed):
        table = make_random_table(seed + 500)
        spec = [("sum", "m"), "count", ("min", "m")]
        tree = build_qctree(table, spec)
        oracle = full_cube(table, spec)
        for cell in all_cells(table):
            assert point_query(tree, cell) == oracle.get(cell)


class TestRawQueryValidation:
    def test_wrong_arity_raw_cell_raises(self, sales_table):
        tree = build_qctree(sales_table, "count")
        with pytest.raises(QueryError):
            point_query_raw(tree, sales_table, ("S1", "*"))

    def test_unknown_label_is_none(self, sales_table):
        tree = build_qctree(sales_table, "count")
        assert point_query_raw(tree, sales_table, ("S1", "P1", "winter")) is None
