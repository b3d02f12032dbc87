"""Structural invariant checks for QC-trees across their whole lifecycle.

``QCTree.check_invariants`` is run after construction, after random
mixes of insert/delete batches, and after a checkpoint round trip —
plus failure-injection tests confirming it catches corruption.
"""

import random

import pytest

from repro.core.construct import build_qctree
from repro.core.maintenance import apply_deletions
from repro.core.maintenance import apply_insertions
from repro.core.warehouse import QCWarehouse
from tests.conftest import make_random_table


class TestLifecycle:
    @pytest.mark.parametrize("seed", range(10))
    def test_after_construction(self, seed):
        build_qctree(make_random_table(seed), "count").check_invariants()

    @pytest.mark.parametrize("seed", range(10))
    def test_after_mixed_maintenance(self, seed):
        rng = random.Random(seed)
        table = make_random_table(seed)
        tree = build_qctree(table, ("sum", "m"))
        for _ in range(4):
            if rng.random() < 0.5 and table.n_rows > 1:
                victims = rng.sample(
                    list(table.iter_records()), rng.randint(1, table.n_rows // 2 + 1)
                )
                table = apply_deletions(tree, table, victims)
            else:
                delta = [
                    tuple(rng.randrange(4) for _ in range(table.n_dims))
                    + (float(rng.randint(0, 9)),)
                    for _ in range(rng.randint(1, 4))
                ]
                table = apply_insertions(tree, table, delta)
            tree.check_invariants()
        rebuilt = build_qctree(table, ("sum", "m"))
        assert tree.equivalent_to(rebuilt)

    @pytest.mark.parametrize("seed", range(5))
    def test_after_serialize_roundtrip(self, seed, tmp_path):
        """The tree a recovered store builds from its checkpointed table."""
        table = make_random_table(seed)
        QCWarehouse(table, "count").checkpoint(tmp_path / "ckpt")
        recovered = QCWarehouse.recover(tmp_path / "ckpt", tmp_path / "wal",
                                        table.schema)
        recovered.tree.check_invariants()

    def test_copy_shares_nothing_structural(self, sales_table):
        tree = build_qctree(sales_table, ("avg", "Sale"))
        clone = tree.copy()
        clone.check_invariants()
        # Mutating the clone leaves the original untouched.
        node = next(clone.iter_class_nodes())
        clone.set_state(node, (0, 999, 1))  # avg: one row of 999
        assert not tree.equivalent_to(clone)
        rebuilt = build_qctree(sales_table, ("avg", "Sale"))
        assert tree.equivalent_to(rebuilt)


class TestFailureInjection:
    def test_detects_dangling_link(self, sales_table):
        tree = build_qctree(sales_table, "count")
        node = next(tree.iter_class_nodes())
        tree.links[node].setdefault(2, {})[99] = 10_000  # junk target
        with pytest.raises((AssertionError, IndexError)):
            tree.check_invariants()

    def test_detects_wrong_child_label(self, sales_table):
        tree = build_qctree(sales_table, "count")
        # Corrupt one child's recorded value.
        for node in tree.iter_nodes():
            if tree.children[node]:
                dim = next(iter(tree.children[node]))
                value, child = next(iter(tree.children[node][dim].items()))
                tree.node_value[child] = value + 1000
                break
        with pytest.raises(AssertionError):
            tree.check_invariants()

    def test_detects_link_shadowing_edge(self, sales_table):
        tree = build_qctree(sales_table, "count")
        # Force a link that duplicates an existing tree edge.
        root = tree.root
        dim = next(iter(tree.children[root]))
        value, child = next(iter(tree.children[root][dim].items()))
        tree.links[root].setdefault(dim, {})[value] = child
        with pytest.raises(AssertionError):
            tree.check_invariants()

    def test_detects_decreasing_dimension(self, sales_table):
        tree = build_qctree(sales_table, "count")
        for node in tree.iter_nodes():
            if node != tree.root and tree.children[node]:
                tree.node_dim[node] = tree.n_dims + 5
                break
        with pytest.raises(AssertionError):
            tree.check_invariants()


class TestWarehouseModify:
    def test_modify_replays_delete_then_insert(self, sales_table):
        from repro.core.warehouse import QCWarehouse

        wh = QCWarehouse(sales_table, aggregate=("avg", "Sale"))
        wh.modify([("S2", "P1", "f", 9.0)], [("S2", "P1", "f", 15.0)])
        assert wh.point(("S2", "P1", "f")) == 15.0
        rebuilt = build_qctree(wh.table, wh.aggregate)
        assert wh.tree.equivalent_to(rebuilt)
