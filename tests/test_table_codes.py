"""A base table stores its rows once, as the code matrix ``codes``.

``BaseTable.rows`` is a list built from ``codes`` on each access, left
for tests and the brute-force reference oracles.  Every engine path —
build, maintenance, serving, seal and compaction, checkpoint and
recovery, the packed blob and the shard fleet, the workload generators
— reads columns: with ``rows`` made to raise, all of them still run.
An attached table views the blob's row section in place.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.warehouse import QCWarehouse
from repro.cube.table import BaseTable
from repro.data.synthetic import zipf_table
from repro.data.workloads import point_query_workload, range_query_workload
from repro.segments import SegmentedWarehouse
from repro.shard import ShardServer, created_segments
from repro.shard.pack import attach_packed, pack_snapshot_bytes

SUM = ("sum", "M0")


@pytest.fixture
def no_rows(monkeypatch):
    """``BaseTable.rows`` raises for the duration of the test."""
    def refuse(self):
        raise AssertionError("an engine path read BaseTable.rows")

    monkeypatch.setattr(BaseTable, "rows", property(refuse))
    with pytest.raises(AssertionError):
        zipf_table(3, 2, 2).rows


def _records(n: int, seed: int) -> list:
    return list(zipf_table(n, 4, 6, seed=seed).iter_records())


def _ops(view, cell) -> None:
    """Every snapshot op once on ``cell`` (a cell of the store)."""
    assert view.point(cell) is not None
    view.range(tuple([v] if v != "*" else "*" for v in cell))
    view.iceberg(0.0)
    view.open_class(cell)
    view.drilldowns(cell)


class TestNoEnginePathReadsRows:
    def test_a_store_never_reads_rows(self, no_rows, tmp_path):
        table = zipf_table(300, 4, 6, seed=1)
        inserts, deletes = _records(40, 2), _records(300, 1)[:25]
        wh = QCWarehouse(table, SUM)
        wh.maintain(inserts=inserts)
        wh.maintain(deletes=deletes)
        wh.serving_tree
        cell = table.decode_cell(table.encode_cell(
            next(table.iter_records())[:3] + ("*",)))
        _ops(wh.snapshot_view(), cell)
        wh.checkpoint(tmp_path / "ckpt")
        back = QCWarehouse.recover(tmp_path / "ckpt", tmp_path / "wal.log",
                                   table.schema)
        assert back.point(cell) == wh.point(cell)

        blob = pack_snapshot_bytes(wh.serving_tree, wh.table)
        attached = attach_packed(blob)
        assert attached.serving_snapshot().point(cell) == wh.point(cell)
        attached.release()

        point_query_workload(wh.table, 50, seed=1)
        range_query_workload(wh.table, 10, seed=1)

    def test_a_segmented_store_never_reads_rows(self, no_rows, tmp_path):
        table = zipf_table(200, 4, 6, seed=3)
        wh = SegmentedWarehouse(table, SUM, seal_rows=64,
                                compact_min_segments=2)
        first = _records(100, 4)
        wh.maintain(inserts=first)
        wh.seal()
        wh.maintain(inserts=_records(80, 5))
        wh.seal()
        # The first records went to a piece sealed since: routed there.
        wh.maintain(deletes=first[:5] + list(table.iter_records())[:5])
        assert wh.last_maintenance["segment_rewrites"] >= 1
        cell = first[10][:2] + ("*", "*")
        _ops(wh.snapshot_view(), cell)
        assert wh.compact_once()
        wh.checkpoint(tmp_path / "ckpt")
        back = SegmentedWarehouse.recover(
            tmp_path / "ckpt", tmp_path / "wal.log", table.schema,
            seal_rows=64, compact_min_segments=2)
        assert back.point(cell) == wh.point(cell)

    def test_a_shard_fleet_never_reads_rows(self, no_rows):
        table = zipf_table(300, 4, 6, seed=1)
        wh = QCWarehouse(table, SUM)
        cells = [table.decode_cell(c)
                 for c in point_query_workload(table, 20, seed=2)]
        with ShardServer(wh, processes=1, cache_size=0) as server:
            server.write(inserts=_records(30, 6))
            answers = server.map_query("point", [(c,) for c in cells])
            assert answers == [wh.point(c) for c in cells]
        assert created_segments() == []


class TestCodes:
    def test_codes_are_a_read_only_int32_matrix(self):
        table = zipf_table(50, 3, 5, seed=1)
        assert table.codes.dtype == np.int32
        assert table.codes.shape == (50, 3)
        assert table.codes.flags.c_contiguous
        assert not table.codes.flags.writeable
        assert table.rows == list(map(tuple, table.codes.tolist()))

    def test_the_caller_keeps_its_own_array_writable(self, sales_table):
        codes = np.array(sales_table.codes)
        BaseTable(sales_table.schema, codes, sales_table.measures,
                  sales_table._decoders, sales_table._encoders)
        assert codes.flags.writeable

    def test_rows_is_built_on_every_access(self, sales_table):
        assert sales_table.rows == sales_table.rows
        assert sales_table.rows is not sales_table.rows
        assert all(type(v) is int for row in sales_table.rows for v in row)

    def test_an_attached_table_views_the_blob(self):
        table = zipf_table(200, 4, 6, seed=2)
        wh = QCWarehouse(table, SUM)
        blob = pack_snapshot_bytes(wh.serving_tree, table)
        attached = attach_packed(blob)
        codes = attached.table.codes
        assert codes.dtype == np.dtype("<i8")
        assert np.shares_memory(codes, np.frombuffer(blob, np.uint8))
        assert np.array_equal(codes, table.codes)
        del codes
        attached.release()
