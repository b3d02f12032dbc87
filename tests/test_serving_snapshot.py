"""ServingSnapshot: frozen/dict parity for queries and exploration.

The serving subsystem answers every operation from a
:class:`~repro.serving.snapshot.ServingSnapshot` over the frozen tree.
These tests pin that the exploration API (``rollup``, ``rollups``,
``drilldowns``, ``open_class``, ``rollup_exceptions``) answers alike
whether the snapshot wraps the frozen view or the mutable dict tree.
On random tables both are asked from every cell against the model's
lattice (``tests/model.py``); under random programs that is the
model's machine (``tests/test_stateful.py``).
"""

from __future__ import annotations

import pytest

from repro.core.cells import ALL
from repro.core.warehouse import QCWarehouse
from repro.errors import QueryError
from tests import model
from tests.conftest import dict_view

ROWS = [
    ("S1", "P1", "s", 6.0),
    ("S1", "P2", "s", 12.0),
    ("S2", "P1", "f", 9.0),
]


def warehouse_pair(table, aggregate="avg(Sale)"):
    """A (frozen-serving) warehouse and the same data answered from its
    dict tree."""
    frozen = QCWarehouse(table, aggregate=aggregate)
    return frozen, dict_view(frozen)


@pytest.fixture
def pair(sales_table):
    return warehouse_pair(sales_table)


class TestExplorationParity:
    """Every exploration op, frozen view vs dict tree."""

    def test_paper_example_all_ops(self, pair):
        frozen, dicty = pair
        cell = ("S2", "P1", "f")
        assert frozen.rollup(cell) == dicty.rollup(cell)
        assert frozen.rollup_exceptions(cell) == dicty.rollup_exceptions(cell)
        assert frozen.rollups(cell) == dicty.rollups(cell)
        assert frozen.drilldowns(cell) == dicty.drilldowns(cell)
        assert frozen.class_of(cell) == dicty.class_of(cell)
        assert frozen.open_class(cell) == dicty.open_class(cell)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_tables_every_nonempty_cell(self, seed):
        """Every snapshot op from every cell of a random table — members
        that are not closed as well as upper bounds, and the empty cells
        — on both engines, against the lattice."""
        records = model.make_program(seed, 2, n_rows=8)[2]
        expected = model.expectations(records, every_cell=True)
        for wh in warehouse_pair(model.table_of(records), model.AGGREGATE):
            model.assert_answers(model.asker(wh), expected)

    def test_missing_cell_rejected_on_both_engines(self, pair):
        frozen, dicty = pair
        for wh in (frozen, dicty):
            with pytest.raises(QueryError):
                wh.rollup(("S1", "P1", "f"))  # encodable but empty

    def test_parity_survives_maintenance(self, pair):
        frozen, dicty = pair
        batch = [("S3", "P1", "s", 3.0), ("S3", "P2", "f", 7.0)]
        frozen.insert(batch)
        frozen.delete([ROWS[0]])
        dicty = dict_view(frozen)
        for cell in (("S3", "*", "*"), ("*", "P2", "*"), ("*", "*", "*")):
            assert frozen.rollup(cell) == dicty.rollup(cell)
            assert frozen.open_class(cell) == dicty.open_class(cell)
            assert frozen.drilldowns(cell) == dicty.drilldowns(cell)


class TestSnapshotObject:
    def test_snapshot_view_is_frozen_and_stamped(self, pair):
        frozen, _ = pair
        snap = frozen.snapshot_view()
        assert snap.describe()["frozen"] is True
        assert snap.stamp == frozen.serving_stamp()

    def test_snapshot_is_stable_across_mutation(self, pair):
        """A pinned snapshot keeps answering from its own version while
        the warehouse moves on — the linearizable-read building block."""
        frozen, _ = pair
        before = frozen.snapshot_view()
        assert before.point(("S3", "P1", "s")) is None
        frozen.insert([("S3", "P1", "s", 5.0)])
        after = frozen.snapshot_view()
        assert before.point(("S3", "P1", "s")) is None
        assert after.point(("S3", "P1", "s")) == 5.0
        assert before.stamp != after.stamp

    def test_view_caches_until_mutation(self, pair):
        frozen, _ = pair
        first = frozen.view
        assert frozen.view is first
        frozen.insert([("S4", "P1", "s", 1.0)])
        assert frozen.view is not first

    def test_describe_fields(self, pair):
        frozen, _ = pair
        info = frozen.snapshot_view().describe()
        assert set(info) == {"lsn", "epoch", "frozen", "n_rows",
                             "classes", "nodes"}
        assert info["n_rows"] == 3

    def test_query_parity_point_range_iceberg(self, pair):
        frozen, dicty = pair
        assert frozen.point(("S2", "*", "f")) == dicty.point(("S2", "*", "f"))
        spec = (["S1", "S2"], "*", "s")
        assert frozen.range(spec) == dicty.range(spec)
        assert frozen.iceberg(9.0) == dicty.iceberg(9.0)
        assert (frozen.iceberg_in_range(("*", "*", ALL), 6.0, op=">")
                == dicty.iceberg_in_range(("*", "*", ALL), 6.0, op=">"))


class TestWarehouseStatsStamp:
    """Satellite 3: stats() exposes the serving stamp and cache health."""

    def test_stats_serving_stamp(self, sales_table):
        wh = QCWarehouse(sales_table, aggregate="avg(Sale)")
        stamp = wh.stats()["serving_stamp"]
        assert stamp == {"lsn": 0, "epoch": 0}
        wh.insert([("S3", "P1", "s", 5.0)])
        wh.point(("S3", "P1", "s"))  # force refreeze of the view
        stamp = wh.stats()["serving_stamp"]
        assert stamp["epoch"] == 1

    def test_stats_cache_counters(self, sales_table):
        wh = QCWarehouse(sales_table, aggregate="avg(Sale)", cache_size=64)
        wh.point(("S2", "*", "f"))
        wh.point(("S2", "*", "f"))
        cache = wh.stats()["query_cache"]
        assert cache["hits"] == 1
        assert cache["misses"] == 1
        assert cache["evictions"] == 0
