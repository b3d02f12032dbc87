"""Tests for the QCWarehouse façade."""

import pytest

from repro.core.construct import build_qctree
from repro.core.warehouse import QCWarehouse
from repro.errors import MaintenanceError, SchemaError


@pytest.fixture
def warehouse(sales_schema):
    return QCWarehouse.from_records(
        [
            ("S1", "P1", "s", 6.0),
            ("S1", "P2", "s", 12.0),
            ("S2", "P1", "f", 9.0),
        ],
        sales_schema,
        aggregate=("avg", "Sale"),
    )


class TestQueries:
    def test_point(self, warehouse):
        assert warehouse.point(("S2", "*", "f")) == 9.0
        assert warehouse.point(("S2", "*", "s")) is None
        assert warehouse.point(("NOPE", "*", "*")) is None

    def test_range(self, warehouse):
        result = warehouse.range((["S1", "S2"], "*", "*"))
        assert result == {
            ("S1", "*", "*"): 9.0,
            ("S2", "*", "*"): 9.0,
        }

    def test_iceberg(self, warehouse):
        result = dict(warehouse.iceberg(10))
        assert result == {("S1", "P2", "s"): 12.0}

    def test_iceberg_in_range_strategies_agree(self, warehouse):
        spec = (["S1", "S2"], "*", "*")
        a = warehouse.iceberg_in_range(spec, 9)
        b = warehouse.iceberg_in_range(spec, 9, strategy="mark")
        assert a == b == {("S1", "*", "*"): 9.0, ("S2", "*", "*"): 9.0}

    def test_iceberg_in_range_unknown_values(self, warehouse):
        assert warehouse.iceberg_in_range((["ZZ"], "*", "*"), 0) == {}

    def test_stats(self, warehouse):
        stats = warehouse.stats()
        assert stats["classes"] == 6
        assert stats["n_rows"] == 3
        assert stats["aggregate"] == "avg(Sale)"


class TestMaintenance:
    def test_insert_updates_queries(self, warehouse):
        warehouse.insert([("S2", "P2", "f", 4.0)])
        assert warehouse.point(("S2", "*", "f")) == pytest.approx(6.5)
        assert warehouse.table.n_rows == 4

    def test_insert_matches_rebuild(self, warehouse):
        warehouse.insert([("S3", "P1", "w", 2.0), ("S1", "P1", "s", 4.0)])
        rebuilt = build_qctree(warehouse.table, warehouse.aggregate)
        assert warehouse.tree.equivalent_to(rebuilt)

    def test_delete_matches_rebuild(self, warehouse):
        warehouse.delete([("S1", "P2", "s", 0.0)])
        rebuilt = build_qctree(warehouse.table, warehouse.aggregate)
        assert warehouse.tree.equivalent_to(rebuilt)
        assert warehouse.point(("*", "P2", "*")) is None

    def test_delete_missing_rejected(self, warehouse):
        with pytest.raises(MaintenanceError):
            warehouse.delete([("S9", "P1", "s", 0.0)])

    def test_index_invalidated_after_update(self, warehouse):
        before = warehouse.index
        warehouse.insert([("S2", "P2", "f", 100.0)])
        after = warehouse.index
        assert after is not before
        # The insert split (*,P2,*) and (S2,*,f) off their old classes;
        # both now average above 50 alongside the new tuple's class.
        assert dict(warehouse.iceberg(50)) == {
            ("S2", "P2", "f"): 100.0,
            ("*", "P2", "*"): 56.0,
            ("S2", "*", "f"): 54.5,
        }


class TestExploration:
    def test_class_of(self, warehouse):
        assert warehouse.class_of(("S1", "*", "*")) == (("S1", "*", "s"), 9.0)
        assert warehouse.class_of(("S2", "*", "s")) is None

    def test_rollup(self, warehouse):
        contexts = warehouse.rollup(("S2", "P1", "f"))
        assert contexts[0] == (("*", "*", "*"), 9.0)

    def test_rollup_exceptions(self, warehouse):
        assert warehouse.rollup_exceptions(("S2", "P1", "f")) == [
            (("*", "P1", "*"), 7.5)
        ]

    def test_drilldowns(self, warehouse):
        results = dict(warehouse.drilldowns(("*", "*", "*")))
        assert results[("*", "P1", "*")] == 7.5

    def test_rollups(self, warehouse):
        results = dict(warehouse.rollups(("S1", "P1", "s")))
        assert set(results) == {("S1", "*", "s"), ("*", "P1", "*")}

    def test_open_class(self, warehouse):
        opened = warehouse.open_class(("S2", "*", "f"))
        assert opened["upper_bound"] == ("S2", "P1", "f")
        assert len(opened["members"]) == 6


class TestPersistence:
    def test_save_load_roundtrip(self, warehouse, sales_schema, tmp_path):
        warehouse.checkpoint(tmp_path / "ckpt")
        loaded = QCWarehouse.recover(tmp_path / "ckpt", tmp_path / "wal",
                                     sales_schema)
        assert loaded.point(("S2", "*", "f")) == 9.0
        assert loaded.tree.equivalent_to(warehouse.tree)
        # And the restored warehouse stays maintainable.
        loaded.insert([("S1", "P1", "f", 3.0)])
        rebuilt = build_qctree(loaded.table, loaded.aggregate)
        assert loaded.tree.equivalent_to(rebuilt)


class TestValidation:
    def test_wrong_arity_query(self, warehouse):
        with pytest.raises(SchemaError):
            warehouse.class_of(("S1",))

    def test_multi_measure_warehouse(self, sales_schema):
        wh = QCWarehouse.from_records(
            [("S1", "P1", "s", 6.0), ("S2", "P1", "f", 9.0)],
            sales_schema,
            aggregate=[("sum", "Sale"), "count"],
            index_key=lambda value: value[0],
        )
        assert wh.point(("*", "P1", "*")) == (15.0, 2)
        # Both records share P1, so the root class's bound is (*, P1, *).
        assert dict(wh.iceberg(10)) == {("*", "P1", "*"): (15.0, 2)}
