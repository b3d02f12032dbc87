"""Tests for the QC-tree fsck and the warehouse's repairing verify."""

import random

import pytest

from repro.core.construct import build_qctree
from repro.core.frozen import FrozenQCTree
from repro.core.warehouse import QCWarehouse
from repro.cube.schema import Schema
from repro.cube.table import BaseTable
from repro.reliability.fsck import FsckReport, fsck_tree
from repro.segments import SegmentedWarehouse
from tests import model
from tests.conftest import (
    all_cells,
    corrupt_served_state,
    make_random_table,
    plus,
)


def codes(report):
    return {issue.code for issue in report.issues}


class TestCleanTrees:
    def test_sales_tree_is_clean(self, sales_table):
        tree = build_qctree(sales_table, ("avg", "Sale"))
        report = fsck_tree(tree, table=sales_table)
        assert report.ok, str(report)
        assert report.checked["nodes"] == tree.n_nodes
        assert report.checked["classes"] == tree.n_classes
        assert "clean" in report.summary()

    def test_summary_without_counts_has_no_empty_parentheses(self):
        """A report that counted nothing (a piece that did not load)
        says only how many issues it found."""
        report = FsckReport()
        report.add("unreadable", "sales.d/head.piece: checksum mismatch")
        assert report.summary() == "1 issue(s) found"
        assert FsckReport().summary() == "clean"
        report.checked["nodes"] = 11
        assert report.summary() == "1 issue(s) found (11 nodes)"

    @pytest.mark.parametrize("seed", range(12))
    def test_random_trees_are_clean(self, seed):
        table = make_random_table(seed, n_dims=3, cardinality=4, n_rows=20)
        tree = build_qctree(table, ("sum", "m"))
        report = fsck_tree(tree, table=table)
        assert report.ok, str(report)

    def test_shallow_check_skips_aggregates(self, sales_table):
        tree = build_qctree(sales_table, "count")
        report = fsck_tree(tree)  # no table
        assert report.ok
        assert "classes" not in report.checked

    def test_maintained_tree_stays_clean(self, sales_table):
        wh = QCWarehouse(sales_table, aggregate=("avg", "Sale"))
        wh.insert([("S3", "P1", "w", 5.0)])
        wh.delete([("S1", "P2", "s", 0.0)])
        report = wh.verify()
        assert report.ok, str(report)


class TestCorruptionIsFlagged:
    """Each deliberate corruption must surface as at least the named code
    — never pass silently, never crash the verifier."""

    def _tree(self, sales_table, aggregate=("avg", "Sale")):
        return build_qctree(sales_table, aggregate)

    def test_dead_link_target(self, sales_table):
        tree = self._tree(sales_table)
        src = next(s for s in range(len(tree.node_dim)) if tree.links[s])
        dim = next(iter(tree.links[src]))
        value = next(iter(tree.links[src][dim]))
        tree.links[src][dim][value] = len(tree.node_dim) + 5
        report = fsck_tree(tree)
        assert "link-dead-target" in codes(report)

    def test_link_label_mismatch(self, sales_table):
        tree = self._tree(sales_table)
        src = next(s for s in range(len(tree.node_dim)) if tree.links[s])
        dim = next(iter(tree.links[src]))
        value = next(iter(tree.links[src][dim]))
        tree.links[src][dim][value] = tree.root
        report = fsck_tree(tree)
        assert "link-label-mismatch" in codes(report)

    def test_dim_order_violation(self, sales_table):
        tree = self._tree(sales_table)
        # Re-hang one dim-0 child of the root under its dim-0 sibling:
        # the moved node's dimension no longer increases past its new
        # parent's, and nothing becomes unreachable.
        first, second = [
            n for n in range(len(tree.node_dim))
            if tree.parent[n] == tree.root and tree.node_dim[n] == 0
        ][:2]
        dim, value = tree.node_dim[second], tree.node_value[second]
        del tree.children[tree.root][dim][value]
        tree.children[first].setdefault(dim, {})[value] = second
        tree.parent[second] = first
        report = fsck_tree(tree)
        assert "structure-dim-order" in codes(report)

    def test_parent_mismatch(self, sales_table):
        tree = self._tree(sales_table)
        child = next(
            n for n in range(len(tree.node_dim)) if tree.parent[n] == tree.root
        )
        tree.parent[child] = child  # lies about its parent
        report = fsck_tree(tree)
        assert "structure-parent-mismatch" in codes(report)

    def test_cycle_short_circuits(self, sales_table):
        tree = self._tree(sales_table)
        # A node whose child map contains itself: the walk must flag the
        # revisit instead of descending forever.
        leaf = max(range(len(tree.node_dim)), key=lambda n: tree.node_dim[n])
        tree.children[leaf].setdefault(tree.n_dims - 1, {})["loop"] = leaf
        report = fsck_tree(tree, table=sales_table)
        assert "structure-cycle" in codes(report)
        # Deeper passes are skipped: routing over broken structure may
        # not halt.
        assert "classes" not in report.checked

    def test_nan_class_value_is_no_mismatch(self):
        """A MAX class over a NaN measure recomputes to NaN: the same
        value, though ``==`` says otherwise."""
        table = BaseTable.from_encoded(
            [(0, 0), (1, 0), (2, 1)], [[1.0], [float("nan")], [3.0]],
            Schema(dimensions=("A", "B"), measures=("m",)))
        report = fsck_tree(build_qctree(table, ("max", "m")), table=table)
        assert report.ok, str(report)

    def test_tampered_aggregate_state(self, sales_table):
        tree = self._tree(sales_table)
        victim = next(
            n for n in range(len(tree.node_dim))
            if tree.state[n] is not None and n != tree.root
        )
        tree.set_state(victim, (0, 9999, 1))  # avg: one row of 9999
        report = fsck_tree(tree, table=sales_table)
        assert "rebuild-mismatch" in codes(report)
        # Without the base table the tampering is invisible — deep
        # verification exists precisely for this class of corruption.
        assert "rebuild-mismatch" not in codes(fsck_tree(tree))

    def test_tampered_state_outside_any_sample_is_reported(self):
        """Every class is compared: a state the former 64-class sample
        (``random.Random(0)`` over the sorted class ids) skipped is
        found, and the report names its section and cell."""
        wh = QCWarehouse(make_random_table(3, n_dims=4, cardinality=5,
                                           n_rows=80), ("sum", "m"))
        tree = wh.tree
        classes = sorted(tree.iter_class_nodes())
        assert len(classes) > 64
        sampled = set(random.Random(0).sample(classes, 64))
        victim = min(set(classes) - sampled)
        tree.set_state(victim, tree.aggregate.merge(tree.state[victim],
                                                    (0, 1)))
        report = wh.verify()
        assert codes(report) == {"rebuild-mismatch"}
        cell = wh.table.decode_cell(tree.upper_bound_of(victim))
        assert "value_data differs" in str(report)
        assert "(" + ", ".join(map(str, cell)) + ")" in str(report)
        assert wh.verify().ok

    def test_unreachable_class(self, sales_table):
        tree = self._tree(sales_table)
        # Orphan a class node by unhooking it from its parent's child map
        # (and any links pointing at it).
        victim = next(
            n for n in range(len(tree.node_dim))
            if tree.state[n] is not None and tree.parent[n] != -1
            and not tree.children[n]
        )
        dim, value = tree.node_dim[victim], tree.node_value[victim]
        del tree.children[tree.parent[victim]][dim][value]
        report = fsck_tree(tree)
        assert "structure-orphaned" in codes(report)

    def test_freed_slot_not_emptied(self, sales_table):
        """A deletion that pruned a node but left its old state (or
        children, or links) in the freed slot: the next ``insert_path``
        to reuse the slot would inherit them."""
        from repro.core.maintenance import apply_deletions

        tree = self._tree(sales_table)
        apply_deletions(tree, sales_table, [("S2", "P1", "f", 9.0)])
        assert tree._free_ids and fsck_tree(tree).ok
        tree.state[next(iter(tree._free_ids))] = (9.0, 1)
        report = fsck_tree(tree)
        assert codes(report) == {"structure-freed-not-empty"}
        with pytest.raises(AssertionError, match="structure-freed-not-empty"):
            tree.check_invariants()

    def test_fsck_never_raises_on_garbage(self, sales_table):
        tree = self._tree(sales_table)
        tree.node_dim[tree.root] = "garbage"
        tree.children[tree.root] = {"x": None}
        report = fsck_tree(tree, table=sales_table)
        assert not report.ok  # found *something*, and did not raise


class TestScanPointQuery:
    """The points a warehouse serves once :meth:`verify` has rebuilt a
    corrupt tree from its table."""

    @pytest.fixture
    def repaired(self, sales_table):
        wh = QCWarehouse(sales_table, aggregate=("avg", "Sale"))
        victim = next(iter(wh.tree.iter_class_nodes()))
        wh.tree.set_state(victim, (123456.0, 1))
        assert not wh.verify().ok
        return wh

    def test_scan_matches_tree(self, sales_table, repaired):
        tree = build_qctree(sales_table, ("avg", "Sale"))
        from repro.core.point_query import point_query

        for cell in all_cells(sales_table):
            assert (
                repaired.point(sales_table.decode_cell(cell))
                == point_query(tree, cell)
            )

    def test_scan_empty_cover_is_none(self, repaired):
        # S1, P1, f — not a real combination
        assert repaired.point(("S1", "P1", "f")) is None


class TestDegradedMode:
    """A failed :meth:`verify` repairs the store: no second read mode."""

    SCHEMA = Schema(dimensions=("Store", "Product", "Season"),
                    measures=("Sale",))
    RECORDS = [
        ("S1", "P1", "s", 6.0),
        ("S1", "P2", "s", 12.0),
        ("S2", "P1", "f", 9.0),
    ]

    def corrupt(self, wh):
        victim = next(
            n for n in range(len(wh.tree.node_dim))
            if wh.tree.state[n] is not None and n != wh.tree.root
        )
        wh.tree.set_state(victim, (123456.0, 1))

    def test_verify_flips_degraded_and_scan_answers(self):
        wh = QCWarehouse.from_records(self.RECORDS, self.SCHEMA,
                                      aggregate=("avg", "Sale"))
        fresh = QCWarehouse.from_records(self.RECORDS, self.SCHEMA,
                                         aggregate=("avg", "Sale"))
        self.corrupt(wh)
        report = wh.verify()
        assert not report.ok
        stats = wh.stats()
        assert "degraded" not in stats
        assert stats["serving"] == "frozen"
        assert isinstance(wh.serving_tree, FrozenQCTree)
        assert "degraded" not in repr(wh)
        # The rebuilt tree answers every family like a fresh build.
        for cell in all_cells(wh.table):
            raw = wh.table.decode_cell(cell)
            assert wh.point(raw) == fresh.point(raw)
            assert wh.range(raw) == fresh.range(raw)
        assert wh.iceberg(100000) == fresh.iceberg(100000) == []
        assert wh.point(("S9", "*", "*")) is None  # unknown label: NULL
        assert wh.verify().ok

    def test_rebuild_recovers(self):
        wh = QCWarehouse.from_records(self.RECORDS, self.SCHEMA,
                                      aggregate=("avg", "Sale"))
        self.corrupt(wh)
        wh.rebuild()
        assert wh.verify().ok
        assert wh.point(("S2", "*", "f")) == 9.0

    def test_clean_verify_clears_degraded(self):
        """A clean verify rebuilds nothing: the stamp stays and cached
        answers keep serving."""
        wh = QCWarehouse.from_records(self.RECORDS, self.SCHEMA)
        wh.point(("S1", "*", "*"))
        stamp, tree = wh.serving_stamp(), wh.tree
        assert wh.verify().ok
        assert wh.serving_stamp() == stamp and wh.tree is tree
        wh.point(("S1", "*", "*"))
        assert wh.stats()["query_cache"]["hits"] == 1


def _store(kind, records):
    """A store over ``records``: a :class:`QCWarehouse` (one piece), or
    a :class:`SegmentedWarehouse` whose sealed first piece holds the
    first eight and whose head the rest."""
    if kind == "monolithic":
        return QCWarehouse.from_records(records, model.SCHEMA,
                                        model.AGGREGATE)
    seg = SegmentedWarehouse.from_records(records[:8], model.SCHEMA,
                                          model.AGGREGATE, seal_rows=8)
    seg.insert(records[8:])
    assert len(seg.pieces()) == 2 and seg.pieces()[1].n_rows
    return seg


class TestVerifyRepairs:
    """A failed verify rebuilds the corrupt piece from its table: every
    family then answers like a fresh build, cached cells included."""

    @pytest.mark.parametrize("kind", ["monolithic", "segmented"])
    def test_every_family_answers_like_a_fresh_build(self, kind):
        rng = random.Random(0)
        records = [model.gen_record(rng) for _ in range(12)]
        fresh = QCWarehouse.from_records(records, model.SCHEMA,
                                         model.AGGREGATE)
        expected = [
            (op, args, model.answer(model.asker(fresh), op, *args))
            for op, args in model.queries(model.Reference(records))
            if op in ("point", "range", "iceberg", "rollup")
        ]
        assert {op for op, _, _ in expected} == {
            "point", "range", "iceberg", "rollup"}
        with _store(kind, records) as wh:
            ask = model.asker(wh)
            model.assert_answers(ask, expected)  # fills the cache
            corrupt_served_state(wh.pieces()[0],
                                 plus(123456.0))
            report = wh.verify()
            assert not report.ok
            assert wh.stats()["serving"] in ("frozen", "segmented")
            model.assert_answers(ask, expected)
            assert wh.verify().ok
