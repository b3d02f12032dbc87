"""Tests for the QC-tree structure and its primitives (repro.core.qctree)."""

import math

import pytest

from repro.core.cells import ALL
from repro.core.construct import build_qctree
from repro.core.qctree import QCTree
from repro.cube.aggregates import make_aggregate
from repro.cube.schema import Schema
from repro.cube.table import BaseTable
from repro.errors import QueryError
from tests.conftest import make_random_table


@pytest.fixture
def empty_tree():
    return QCTree(3, make_aggregate("count"), dim_names=("A", "B", "C"))


class TestPrimitives:
    def test_new_tree_has_root_only(self, empty_tree):
        assert empty_tree.n_nodes == 1
        assert empty_tree.n_links == 0
        assert empty_tree.n_classes == 0

    def test_zero_dims_rejected(self):
        with pytest.raises(QueryError):
            QCTree(0, make_aggregate("count"))

    def test_insert_path_creates_nodes(self, empty_tree):
        node = empty_tree.insert_path((1, ALL, 2))
        assert empty_tree.n_nodes == 3
        assert empty_tree.upper_bound_of(node) == (1, ALL, 2)

    def test_insert_path_shares_prefixes(self, empty_tree):
        empty_tree.insert_path((1, 2, 3))
        before = empty_tree.n_nodes
        empty_tree.insert_path((1, 2, 4))
        assert empty_tree.n_nodes == before + 1

    def test_insert_path_idempotent(self, empty_tree):
        a = empty_tree.insert_path((1, ALL, 2))
        b = empty_tree.insert_path((1, ALL, 2))
        assert a == b

    def test_find_path(self, empty_tree):
        node = empty_tree.insert_path((ALL, 5, ALL))
        assert empty_tree.find_path((ALL, 5, ALL)) == node
        assert empty_tree.find_path((ALL, 6, ALL)) is None

    def test_path_prefix_node(self, empty_tree):
        empty_tree.insert_path((1, 2, 3))
        prefix = empty_tree.path_prefix_node((1, 2, 3), 1)
        assert empty_tree.upper_bound_of(prefix) == (1, 2, ALL)
        assert empty_tree.path_prefix_node((1, 2, 3), -1) == empty_tree.root

    def test_child_and_last_dim(self, empty_tree):
        empty_tree.insert_path((1, ALL, 2))
        empty_tree.insert_path((ALL, 7, ALL))
        assert empty_tree.child(empty_tree.root, 0, 1) is not None
        assert empty_tree.child(empty_tree.root, 0, 9) is None
        assert empty_tree.last_child_dim(empty_tree.root) == 1
        assert set(empty_tree.children_in_dim(empty_tree.root, 1)) == {7}


class TestLinks:
    def test_add_and_iterate(self, empty_tree):
        a = empty_tree.insert_path((1, ALL, ALL))
        b = empty_tree.insert_path((ALL, 2, ALL))
        empty_tree.add_link(a, 1, 2, b)
        assert list(empty_tree.iter_links()) == [(a, 1, 2, b)]
        assert empty_tree.link_target(a, 1, 2) == b

    def test_edge_coincidence_skipped(self, empty_tree):
        parent = empty_tree.insert_path((1, ALL, ALL))
        child = empty_tree.insert_path((1, 2, ALL))
        empty_tree.add_link(parent, 1, 2, child)
        assert empty_tree.n_links == 0

    def test_remove_link(self, empty_tree):
        a = empty_tree.insert_path((1, ALL, ALL))
        b = empty_tree.insert_path((ALL, 2, ALL))
        empty_tree.add_link(a, 1, 2, b)
        empty_tree.remove_link(a, 1, 2)
        assert empty_tree.n_links == 0
        empty_tree.remove_link(a, 1, 2)  # idempotent


class TestStateAndPrune:
    def test_set_state_makes_class(self, empty_tree):
        node = empty_tree.insert_path((1, 2, ALL))
        empty_tree.set_state(node, 5)
        assert empty_tree.n_classes == 1
        assert empty_tree.value_at(node) == 5

    def test_value_at_non_class_is_none(self, empty_tree):
        node = empty_tree.insert_path((1, 2, ALL))
        assert empty_tree.value_at(node) is None

    def test_prune_removes_dead_path(self, empty_tree):
        node = empty_tree.insert_path((1, 2, 3))
        empty_tree.set_state(node, 1)
        empty_tree.clear_state_and_prune(node)
        assert empty_tree.n_nodes == 1

    def test_prune_stops_at_shared_prefix(self, empty_tree):
        keep = empty_tree.insert_path((1, 2, ALL))
        empty_tree.set_state(keep, 1)
        node = empty_tree.insert_path((1, 2, 3))
        empty_tree.set_state(node, 2)
        empty_tree.clear_state_and_prune(node)
        assert empty_tree.find_path((1, 2, ALL)) == keep
        assert empty_tree.find_path((1, 2, 3)) is None

    def test_prune_respects_incoming_links(self, empty_tree):
        target = empty_tree.insert_path((1, 2, ALL))
        empty_tree.set_state(target, 1)
        # A Definition-1 link: labelled with its target's own (dim,
        # value), out of a node whose path generalizes the target's.
        empty_tree.add_link(empty_tree.root, 1, 2, target)
        empty_tree.clear_state_and_prune(target)
        # node kept alive by the incoming link
        assert empty_tree.find_path((1, 2, ALL)) is not None

    def test_freed_ids_are_reused(self, empty_tree):
        node = empty_tree.insert_path((1, 2, 3))
        empty_tree.set_state(node, 1)
        total = len(empty_tree.node_dim)
        empty_tree.clear_state_and_prune(node)
        empty_tree.insert_path((2, ALL, ALL))
        assert len(empty_tree.node_dim) == total  # slot reuse, no growth


class TestComparison:
    def test_signature_ignores_node_ids(self):
        t1 = make_random_table(5)
        a = build_qctree(t1, "count")
        b = build_qctree(t1.subset(list(reversed(range(t1.n_rows)))), "count")
        assert a.signature() == b.signature()

    def test_equivalent_to_detects_float_noise(self, sales_table):
        """States are exact, so equivalence is equality: 2**-43 more in
        one class is another tree."""
        a = build_qctree(sales_table, ("sum", "Sale"))
        b = build_qctree(sales_table, ("sum", "Sale"))
        node = next(b.iter_class_nodes())
        b.set_state(node, b.aggregate.merge(b.state[node], (43, 1)))
        assert not a.equivalent_to(b)

    def test_equivalent_to_sees_nan_values_alike(self):
        """MAX over a NaN measure keeps a NaN class value, which no
        ``==`` equals; two builds of the table are still equivalent."""
        table = BaseTable.from_encoded(
            [(0, 0), (1, 0), (2, 1)], [[1.0], [math.nan], [3.0]],
            Schema(dimensions=("A", "B"), measures=("m",)))
        a, b = (build_qctree(table, ("max", "m")) for _ in range(2))
        assert a.equivalent_to(b)
        assert not a.equivalent_to(build_qctree(table, ("min", "m")))

    def test_equivalent_to_detects_value_change(self, sales_table):
        a = build_qctree(sales_table, ("sum", "Sale"))
        b = build_qctree(sales_table, ("sum", "Sale"))
        node = next(b.iter_class_nodes())
        b.set_state(node, b.aggregate.merge(b.state[node], (0, 1)))
        assert not a.equivalent_to(b)

    def test_equivalent_to_detects_extra_link(self, sales_table):
        a = build_qctree(sales_table, "count")
        b = build_qctree(sales_table, "count")
        nodes = list(b.iter_class_nodes())
        b.add_link(nodes[0], b.n_dims - 1, 99, nodes[-1])
        assert not a.equivalent_to(b)

    def test_stats_keys(self, sales_table):
        stats = build_qctree(sales_table, "count").stats()
        assert set(stats) == {"nodes", "tree_edges", "links", "classes"}

    def test_dump_mentions_labels(self, sales_table):
        tree = build_qctree(sales_table, ("avg", "Sale"))
        text = tree.dump(decoder=sales_table.decode_value)
        assert "Root" in text and "Store=S1" in text and "~~" in text
