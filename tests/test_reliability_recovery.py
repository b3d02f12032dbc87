"""End-to-end crash recovery: snapshot + WAL replay == fresh rebuild.

These tests simulate the crash windows the durability design must cover:

* crash at any I/O step during a checkpoint save (atomic snapshot);
* crash between the WAL append and the in-memory tree mutation;
* crash after mutation but before the next checkpoint;

and assert that ``QCWarehouse.recover`` restores a warehouse whose
point, range, and iceberg answers match a tree built from scratch on the
true final table.
"""

import pytest

from repro.core.construct import build_qctree
from repro.core.warehouse import QCWarehouse
from repro.cube.schema import Schema
from repro.reliability.faults import InjectedCrash, count_io, crash_on_io
from repro.reliability.wal import WriteAheadLog
from tests.conftest import all_cells, approx_equal


SCHEMA = Schema(dimensions=("Store", "Product", "Season"),
                measures=("Sale",))
BASE = [
    ("S1", "P1", "s", 6.0),
    ("S1", "P2", "s", 12.0),
    ("S2", "P1", "f", 9.0),
]
INSERT_1 = [("S2", "P2", "f", 4.0), ("S3", "P1", "w", 2.0)]
DELETE_1 = [("S1", "P2", "s", 0.0)]
INSERT_2 = [("S1", "P3", "w", 7.0)]


@pytest.fixture
def paths(tmp_path):
    return (str(tmp_path / "tree.qct"), str(tmp_path / "wh.wal"),
            str(tmp_path / "table.csv"))


def fresh_warehouse(paths, aggregate=("avg", "Sale")):
    """A checkpointed warehouse with an attached WAL."""
    tree_path, wal_path, table_path = paths
    wh = QCWarehouse.from_records(BASE, SCHEMA, aggregate=aggregate)
    wh.attach_wal(wal_path)
    wh.checkpoint(tree_path, table_path)
    return wh


def assert_equivalent_answers(recovered, reference_wh):
    """Point/range/iceberg equality against a from-scratch warehouse."""
    table = reference_wh.table
    for cell in all_cells(table):
        raw = table.decode_cell(cell)
        assert approx_equal(recovered.point(raw), reference_wh.point(raw))
    spec = (["S1", "S2", "S3"], "*", "*")
    got, want = recovered.range(spec), reference_wh.range(spec)
    assert got.keys() == want.keys()
    assert all(approx_equal(got[c], want[c]) for c in want)
    got_ice = sorted(recovered.iceberg(5))
    want_ice = sorted(reference_wh.iceberg(5))
    assert [ub for ub, _ in got_ice] == [ub for ub, _ in want_ice]
    assert all(approx_equal(gv, wv) for (_, gv), (_, wv)
               in zip(got_ice, want_ice))
    assert recovered.tree.equivalent_to(
        build_qctree(reference_wh.table, reference_wh.aggregate))


def reference_after(batches, aggregate=("avg", "Sale")):
    """A warehouse built fresh by applying ``batches`` to the base data."""
    wh = QCWarehouse.from_records(BASE, SCHEMA, aggregate=aggregate)
    for op, records in batches:
        getattr(wh, op)(records)
    # Rebuild from the final table so the reference is maintenance-free.
    return QCWarehouse(wh.table, aggregate=aggregate)


class TestRecoverReplaysBatches:
    def test_recover_after_unclean_shutdown(self, paths):
        tree_path, wal_path, table_path = paths
        wh = fresh_warehouse(paths)
        wh.insert(INSERT_1)
        wh.delete(DELETE_1)
        wh.insert(INSERT_2)
        del wh  # crash: no checkpoint after the three batches

        recovered = QCWarehouse.recover(tree_path, wal_path, table_path,
                                        SCHEMA)
        assert recovered.last_recovery["replayed"] == 3
        assert recovered.last_recovery["skipped"] == []
        reference = reference_after(
            [("insert", INSERT_1), ("delete", DELETE_1),
             ("insert", INSERT_2)])
        assert_equivalent_answers(recovered, reference)

    def test_recover_with_no_pending_batches(self, paths):
        tree_path, wal_path, table_path = paths
        wh = fresh_warehouse(paths)
        wh.insert(INSERT_1)
        wh.checkpoint(tree_path, table_path)
        del wh

        recovered = QCWarehouse.recover(tree_path, wal_path, table_path,
                                        SCHEMA)
        assert recovered.last_recovery["replayed"] == 0
        reference = reference_after([("insert", INSERT_1)])
        assert_equivalent_answers(recovered, reference)

    def test_recovered_warehouse_keeps_logging(self, paths):
        tree_path, wal_path, table_path = paths
        wh = fresh_warehouse(paths)
        wh.insert(INSERT_1)
        del wh

        recovered = QCWarehouse.recover(tree_path, wal_path, table_path,
                                        SCHEMA)
        recovered.insert(INSERT_2)
        del recovered  # crash again before any checkpoint

        twice = QCWarehouse.recover(tree_path, wal_path, table_path, SCHEMA)
        assert twice.last_recovery["replayed"] == 2
        reference = reference_after(
            [("insert", INSERT_1), ("insert", INSERT_2)])
        assert_equivalent_answers(twice, reference)

    def test_failed_batch_is_skipped_not_wedged(self, paths):
        tree_path, wal_path, table_path = paths
        wh = fresh_warehouse(paths)
        from repro.errors import MaintenanceError

        with pytest.raises(MaintenanceError):
            wh.delete([("S9", "P9", "x", 0.0)])  # logged, then refused
        wh.insert(INSERT_1)
        del wh

        recovered = QCWarehouse.recover(tree_path, wal_path, table_path,
                                        SCHEMA)
        assert recovered.last_recovery["replayed"] == 1
        assert len(recovered.last_recovery["skipped"]) == 1
        reference = reference_after([("insert", INSERT_1)])
        assert_equivalent_answers(recovered, reference)


    def test_non_numeric_measure_is_refused_then_skipped(self, paths):
        """``float("x")`` used to leave the table encoder as a bare
        ``ValueError``: the live insert escaped the ``MaintenanceError``
        contract and — logged before it failed — the record wedged
        ``recover()``, taking every later batch with it."""
        tree_path, wal_path, table_path = paths
        wh = fresh_warehouse(paths)
        from repro.errors import MaintenanceError

        before = wh.tree.signature(), list(wh.table.iter_records())
        with pytest.raises(MaintenanceError, match="non-numeric measure"):
            wh.insert([("S1", "P1", "s", "x")])  # logged, then refused
        assert (wh.tree.signature(), list(wh.table.iter_records())) == before
        wh.insert(INSERT_1)
        del wh

        recovered = QCWarehouse.recover(tree_path, wal_path, table_path,
                                        SCHEMA)
        assert recovered.last_recovery["replayed"] == 1
        (lsn, reason), = recovered.last_recovery["skipped"]
        assert "non-numeric measure" in reason
        reference = reference_after([("insert", INSERT_1)])
        assert_equivalent_answers(recovered, reference)


class TestCrashWindows:
    def test_crash_between_wal_append_and_mutation(self, paths):
        tree_path, wal_path, table_path = paths
        wh = fresh_warehouse(paths)
        # The append committed but the process died before the tree (or
        # any later state) changed — exactly what WAL-before-mutate
        # protects.
        wh.wal.append("insert", INSERT_1)
        del wh

        recovered = QCWarehouse.recover(tree_path, wal_path, table_path,
                                        SCHEMA)
        assert recovered.last_recovery["replayed"] == 1
        reference = reference_after([("insert", INSERT_1)])
        assert_equivalent_answers(recovered, reference)

    def test_crash_mid_wal_append_drops_uncommitted_batch(self, paths):
        tree_path, wal_path, table_path = paths
        wh = fresh_warehouse(paths)
        wh.insert(INSERT_1)

        log_bytes = open(wal_path, "rb").read()
        total = count_io(
            lambda: WriteAheadLog(wal_path).append("insert", INSERT_2),
        )
        with open(wal_path, "wb") as fp:  # undo the counting run's append
            fp.write(log_bytes)

        for fail_after in range(total):
            w = WriteAheadLog(wal_path)
            with crash_on_io(fail_after):
                with pytest.raises(InjectedCrash):
                    w.append("insert", INSERT_2)
            recovered = QCWarehouse.recover(
                tree_path, wal_path, table_path, SCHEMA)
            # Either the batch committed (replayed) or it did not
            # (dropped); both recover to a consistent warehouse.
            expect = [("insert", INSERT_1)]
            if recovered.last_recovery["replayed"] == 2:
                expect.append(("insert", INSERT_2))
            assert_equivalent_answers(recovered, reference_after(expect))
            with open(wal_path, "wb") as fp:
                fp.write(log_bytes)

    def test_crash_at_every_io_step_of_checkpoint(self, paths):
        tree_path, wal_path, table_path = paths
        wh = fresh_warehouse(paths)
        wh.insert(INSERT_1)
        wh.delete(DELETE_1)
        reference = reference_after(
            [("insert", INSERT_1), ("delete", DELETE_1)])

        snapshot_state = {
            p: open(p, "rb").read() for p in (tree_path, wal_path, table_path)
        }

        def restore_disk():
            for p, data in snapshot_state.items():
                with open(p, "wb") as fp:
                    fp.write(data)

        total = count_io(lambda: wh.checkpoint(tree_path, table_path))
        restore_disk()
        for fail_after in range(total):
            with crash_on_io(fail_after):
                with pytest.raises(InjectedCrash):
                    wh.checkpoint(tree_path, table_path)
            recovered = QCWarehouse.recover(
                tree_path, wal_path, table_path, SCHEMA)
            assert_equivalent_answers(recovered, reference)
            restore_disk()

    def test_torn_snapshot_is_rejected_loudly(self, paths):
        from repro.errors import SerializationError
        from repro.reliability.faults import torn_write

        tree_path, wal_path, table_path = paths
        wh = fresh_warehouse(paths)
        wh.insert(INSERT_1)
        wh.checkpoint(tree_path, table_path)
        torn_write(tree_path, keep_fraction=0.6)
        with pytest.raises(SerializationError, match="tree.qct"):
            QCWarehouse.recover(tree_path, wal_path, table_path, SCHEMA)


class TestCheckpointTruncatesWal:
    def test_log_empty_after_checkpoint(self, paths):
        tree_path, wal_path, table_path = paths
        wh = fresh_warehouse(paths)
        wh.insert(INSERT_1)
        assert len(WriteAheadLog(wal_path)) == 1
        wh.checkpoint(tree_path, table_path)
        assert len(WriteAheadLog(wal_path)) == 0

    def test_count_aggregate_roundtrip(self, paths):
        tree_path, wal_path, table_path = paths
        wh = fresh_warehouse(paths, aggregate="count")
        wh.insert(INSERT_1)
        del wh
        recovered = QCWarehouse.recover(tree_path, wal_path, table_path,
                                        SCHEMA)
        reference = reference_after([("insert", INSERT_1)],
                                    aggregate="count")
        assert_equivalent_answers(recovered, reference)
