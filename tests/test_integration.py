"""End-to-end integration tests: realistic pipelines across modules."""

import random

import pytest

from repro.core.construct import build_qctree
from repro.core.iceberg import MeasureIndex, pure_iceberg
from repro.core.point_query import point_query
from repro.core.range_query import range_query
from repro.core.warehouse import QCWarehouse
from repro.cube.buc import buc
from repro.cube.schema import Schema
from repro.data.synthetic import zipf_table
from repro.data.weather import weather_table
from repro.data.workloads import point_query_workload, range_query_workload
from repro.dwarf.build import build_dwarf
from repro.dwarf.query import dwarf_point_query, dwarf_range_query
from repro.storage import compression_report


class TestThreeStructuresAgree:
    """QC-tree, Dwarf, and BUC must answer every workload identically."""

    @pytest.fixture(scope="class")
    def setup(self):
        table = zipf_table(400, 4, 10, seed=11)
        agg = ("sum", "M0")
        return {
            "table": table,
            "tree": build_qctree(table, agg),
            "dwarf": build_dwarf(table, agg),
            "cube": buc(table, agg),
        }

    def test_point_workload(self, setup):
        queries = point_query_workload(setup["table"], 300, seed=1)
        for q in queries:
            a = point_query(setup["tree"], q)
            b = dwarf_point_query(setup["dwarf"], q)
            c = setup["cube"].get(q)
            assert a == b and a == c, q

    def test_range_workload(self, setup):
        specs = range_query_workload(setup["table"], 40, seed=2)
        for spec in specs:
            a = range_query(setup["tree"], spec)
            b = dwarf_range_query(setup["dwarf"], spec)
            assert set(a) == set(b)
            for cell in a:
                assert a[cell] == b[cell]

    def test_iceberg_against_cube_scan(self, setup):
        index = MeasureIndex(setup["tree"])
        threshold = 500.0
        classes = dict(pure_iceberg(setup["tree"], threshold, index=index))
        # Every cube cell clearing the threshold maps into a returned class.
        from repro.cube.lattice import closure

        for cell, value in setup["cube"].items():
            if value >= threshold:
                ub = closure(setup["table"], cell)
                assert ub in classes
                assert classes[ub] == value


class TestWeatherPipeline:
    def test_full_lifecycle_on_weather_data(self):
        table = weather_table(250, scale=0.01, seed=4, n_dims=5)
        wh = QCWarehouse(table, aggregate=("avg", "temperature"))
        # Query, update, query, delete, and stay rebuild-consistent.
        first_station = table.decode_value(0, table.rows[0][0])
        before = wh.point((first_station, "*", "*", "*", "*"))
        assert before is not None
        new_records = [
            rec for rec in list(table.iter_records())[:5]
        ]
        wh.insert(new_records)
        wh.delete(new_records)
        rebuilt = build_qctree(wh.table, wh.aggregate)
        assert wh.tree.equivalent_to(rebuilt)

    def test_compression_report_shapes(self):
        """Directional sanity on Figure 12's headline claim: quotient
        structures compress the cube, and the QC-tree's overhead over the
        QC-table is bounded (nodes + links vs flat bound rows)."""
        table = zipf_table(600, 5, 15, seed=3)
        report = compression_report(table, "count")
        assert report["qc_table_ratio_pct"] < 100.0
        assert report["qctree_ratio_pct"] < 100.0
        assert report["dwarf_ratio_pct"] < 100.0


class TestDailyLoadScenario:
    def test_week_of_daily_batches(self):
        """A warehouse absorbing daily inserts plus corrections stays
        identical to nightly rebuilds."""
        rng = random.Random(0)
        schema = Schema(
            dimensions=("store", "product", "day"), measures=("sales",)
        )
        stores = [f"S{i}" for i in range(4)]
        products = [f"P{i}" for i in range(5)]

        def day_batch(day):
            return [
                (rng.choice(stores), rng.choice(products), f"D{day}",
                 float(rng.randint(1, 50)))
                for _ in range(rng.randint(3, 8))
            ]

        wh = QCWarehouse.from_records(day_batch(0), schema,
                                      aggregate=("sum", "sales"))
        for day in range(1, 7):
            batch = day_batch(day)
            wh.insert(batch)
            # A correction: retract one record from the batch.
            wh.delete([batch[0]])
            rebuilt = build_qctree(wh.table, wh.aggregate)
            assert wh.tree.equivalent_to(rebuilt), f"day {day}"
        assert wh.point(("*", "*", "*")) is not None
