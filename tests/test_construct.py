"""Tests for QC-tree construction (Algorithm 1) against the paper's Figure 4
and Theorem 1 (uniqueness), and for its one output: the columns."""

import hashlib
import random

import pytest

from repro.core.cells import ALL
from repro.core.construct import (
    build_frozen,
    build_qctree,
    build_qctree_reference,
)
from repro.core.qctree import QCTree
from repro.cube.lattice import closed_cells
from repro.cube.schema import Schema
from repro.cube.table import BaseTable
from repro.data.synthetic import zipf_table
from repro.shard.pack import pack_snapshot_bytes
from tests.conftest import make_random_table
from tests.reference_pack import reference_pack


class TestPaperFigure4:
    @pytest.fixture
    def tree(self, sales_table):
        return build_qctree(sales_table, ("avg", "Sale"))

    def test_node_count(self, tree):
        assert tree.n_nodes == 11

    def test_link_count(self, tree):
        assert tree.n_links == 5

    def test_six_classes(self, tree):
        assert tree.n_classes == 6

    def test_class_values(self, tree, sales_table):
        got = {
            sales_table.decode_cell(ub): value
            for ub, value in tree.class_upper_bounds().items()
        }
        assert got == {
            ("*", "*", "*"): 9.0,
            ("*", "P1", "*"): 7.5,
            ("S1", "*", "s"): 9.0,
            ("S1", "P1", "s"): 6.0,
            ("S1", "P2", "s"): 12.0,
            ("S2", "P1", "f"): 9.0,
        }

    def test_exact_links(self, tree, sales_table):
        dec = sales_table.decode_cell
        links = {
            (dec(tree.upper_bound_of(src)), dim,
             sales_table.decode_value(dim, value),
             dec(tree.upper_bound_of(tgt)))
            for src, dim, value, tgt in tree.iter_links()
        }
        # Figure 4: three links out of the root, two out of node <P1>.
        assert links == {
            (("*", "*", "*"), 1, "P2", ("S1", "P2", "*")),
            (("*", "*", "*"), 2, "s", ("S1", "*", "s")),
            (("*", "*", "*"), 2, "f", ("S2", "P1", "f")),
            (("*", "P1", "*"), 2, "s", ("S1", "P1", "s")),
            (("*", "P1", "*"), 2, "f", ("S2", "P1", "f")),
        }


class TestTheorem1:
    @pytest.mark.parametrize("seed", range(15))
    def test_unique_under_row_permutation(self, seed):
        table = make_random_table(seed)
        rng = random.Random(seed)
        order = list(range(table.n_rows))
        rng.shuffle(order)
        a = build_qctree(table, ("sum", "m"))
        b = build_qctree(table.subset(order), ("sum", "m"))
        assert a.equivalent_to(b)

    @pytest.mark.parametrize("seed", range(15))
    def test_one_path_per_closed_cell(self, seed):
        table = make_random_table(seed + 50)
        tree = build_qctree(table, "count")
        class_bounds = {
            tree.upper_bound_of(n) for n in tree.iter_class_nodes()
        }
        assert class_bounds == closed_cells(table)

    @pytest.mark.parametrize("seed", range(10))
    def test_every_node_on_some_class_path(self, seed):
        # Prefix sharing never leaves orphan branches: every node lies on
        # the path of at least one class upper bound.
        table = make_random_table(seed + 80)
        tree = build_qctree(table, "count")
        from repro.core.cells import generalizes

        bounds = [tree.upper_bound_of(n) for n in tree.iter_class_nodes()]
        for node in tree.iter_nodes():
            cell = tree.upper_bound_of(node)
            assert any(generalizes(cell, ub) for ub in bounds)

    @pytest.mark.parametrize("seed", range(10))
    def test_dimensions_increase_along_paths(self, seed):
        table = make_random_table(seed + 120)
        tree = build_qctree(table, "count")
        for node in tree.iter_nodes():
            for dim, by_value in tree.children[node].items():
                assert dim > tree.node_dim[node]
                for value, child in by_value.items():
                    assert tree.node_dim[child] == dim
                    assert tree.node_value[child] == value
                    assert tree.parent[child] == node


class TestEdgeCases:
    def test_empty_table(self):
        schema = Schema(dimensions=("A", "B"), measures=("m",))
        table = BaseTable.from_encoded([], [], schema, cardinalities=[2, 2])
        tree = build_qctree(table, "count")
        assert tree.n_classes == 0
        assert tree.n_nodes == 1

    def test_single_tuple(self):
        schema = Schema(dimensions=("A", "B"), measures=("m",))
        table = BaseTable.from_encoded([(0, 1)], [[5.0]], schema)
        tree = build_qctree(table, ("sum", "m"))
        # One class: everything collapses onto the tuple itself.
        assert tree.n_classes == 1
        assert tree.class_upper_bounds() == {(0, 1): 5.0}

    def test_constant_dimension_closure_at_root(self):
        # When one dimension is constant, the root class's upper bound is
        # not the all-star cell; the root node itself carries no state.
        schema = Schema(dimensions=("A", "B"), measures=("m",))
        table = BaseTable.from_encoded(
            [(0, 0), (0, 1)], [[1.0], [2.0]], schema
        )
        tree = build_qctree(table, "count")
        assert tree.state[tree.root] is None
        assert (0, ALL) in tree.class_upper_bounds()

    def test_one_dimension(self):
        schema = Schema(dimensions=("A",), measures=("m",))
        table = BaseTable.from_encoded(
            [(0,), (1,), (1,)], [[1.0], [2.0], [3.0]], schema
        )
        tree = build_qctree(table, "count")
        assert tree.class_upper_bounds() == {(ALL,): 3, (0,): 1, (1,): 2}

    def test_all_rows_identical(self):
        schema = Schema(dimensions=("A", "B"), measures=("m",))
        table = BaseTable.from_encoded(
            [(1, 1)] * 4, [[1.0]] * 4, schema
        )
        tree = build_qctree(table, "count")
        assert tree.class_upper_bounds() == {(1, 1): 4}

    def test_duplicate_rows_counted(self, sales_schema):
        table = BaseTable.from_records(
            [("S1", "P1", "s", 6.0), ("S1", "P1", "s", 8.0)], sales_schema
        )
        tree = build_qctree(table, ("avg", "Sale"))
        assert list(tree.class_upper_bounds().values()) == [7.0]


#: Figure 4 as ``dump`` renders it: links first, then children, each by
#: (dimension, value).
FIGURE_4_DUMP = """\
Root : 9.0
  ~~Product=P2~~> (S1, P2, *)
  ~~Season=f~~> (S2, P1, f)
  ~~Season=s~~> (S1, *, s)
  Store=S1
    Product=P1
      Season=s : 6.0
    Product=P2
      Season=s : 12.0
    Season=s : 9.0
  Store=S2
    Product=P1
      Season=f : 9.0
  Product=P1 : 7.5
    ~~Season=f~~> (S2, P1, f)
    ~~Season=s~~> (S1, P1, s)"""


class TestColumnsFirst:
    """Algorithm 1 outputs the ``QCTREE/3`` sections; the dict tree is
    their thaw.  Both must be the tree the record-by-record build made:
    its structure, its bit-exact states and its packed bytes."""

    SPECS = ["count", ("sum", "m"), ("avg", "m"), ("min", "m"),
             [("sum", "m"), ("avg", "m")]]

    @pytest.mark.parametrize("seed", range(60))
    def test_thaw_and_bytes_equal_the_reference_construction(self, seed):
        table = make_random_table(seed + 500)
        spec = self.SPECS[seed % len(self.SPECS)]
        frozen = build_frozen(table, spec)
        reference = build_qctree_reference(table, spec)
        thawed = QCTree.from_frozen(frozen)
        assert thawed.signature() == reference.signature()
        assert frozen.signature() == reference.signature()
        assert pack_snapshot_bytes(frozen, table) == \
            reference_pack(reference, table)
        thawed.check_invariants()

    def test_golden_digest(self):
        """The packed bytes of the 2,000-row zipf table the class
        stream's golden digest pins, recorded from the dict-tree build
        this compile replaced."""
        table = zipf_table(2000, 6, 30, seed=0)
        frozen = build_frozen(table, ("sum", "M0"))
        blob = pack_snapshot_bytes(frozen, table)
        assert blob == reference_pack(build_qctree(table, ("sum", "M0")),
                                      table)
        assert hashlib.sha256(blob).hexdigest() == (
            "f247c2760286fa74307910481c1744c4931e513272de39357e1b954725d7066a")

    @pytest.mark.parametrize("seed", range(10))
    def test_thaw_ids_are_slots(self, seed):
        """The thaw mints nodes in slot order, so the frozen tree's patch
        map is the identity and both trees name each node alike."""
        table = make_random_table(seed + 700)
        frozen = build_frozen(table, ("sum", "m"))
        thawed = QCTree.from_frozen(frozen)
        assert list(frozen._source_map) == list(range(frozen.n_nodes))
        assert len(thawed.node_dim) == thawed.n_nodes == frozen.n_nodes
        for node in frozen.iter_nodes():
            assert thawed.upper_bound_of(node) == frozen.upper_bound_of(node)
            assert thawed.value_at(node) == frozen.value_at(node)
            assert sorted(thawed.iter_links_of(node)) == \
                sorted(frozen.iter_links_of(node))

    def test_figure_4_from_the_columns(self, sales_table):
        frozen = build_frozen(sales_table, ("avg", "Sale"))
        assert frozen.stats() == {"nodes": 11, "tree_edges": 10,
                                  "links": 5, "classes": 6}
        thawed = QCTree.from_frozen(frozen)
        decode = sales_table.decode_value
        assert frozen.dump(decode) == thawed.dump(decode)
        assert frozen.dump(decode) == FIGURE_4_DUMP
