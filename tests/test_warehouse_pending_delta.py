"""Warehouse-level batched maintenance: pending-delta accumulation,
empty/duplicate batch hygiene, and recovery-replay parity.

The warehouse keeps the stale frozen view across writes and accumulates
each batch's :class:`~repro.core.maintenance.delta.MaintenanceDelta`
into one pending merge, patched on the next read.  These tests drive
the awkward interleavings: insert and delete batches with no read in
between, a delete that empties a class an earlier *pending* insert
created, batches that must be strict no-ops, and a crash/recover cycle
that must converge on the same serving tree as the live path.
"""

from __future__ import annotations

from unittest import mock

import pytest

from repro.core.construct import build_qctree
from repro.core.warehouse import QCWarehouse
from repro.errors import MaintenanceError
from tests import model
from tests.conftest import refreeze_ratios
from tests.faults import InjectedCrash

SCHEMA, AGG = model.SCHEMA, model.AGGREGATE
BASE = [
    ("S1", "P1", "s", 6.0),
    ("S1", "P2", "s", 12.0),
    ("S2", "P1", "f", 9.0),
    ("S2", "P2", "f", 4.0),
]


def _warehouse(**kwargs):
    kwargs.setdefault("cache_size", 0)
    return QCWarehouse.from_records(BASE, SCHEMA, aggregate=AGG, **kwargs)


def _assert_serves_like_rebuild(wh):
    """The tree is Theorem 2's build of its table, and the (possibly
    patched) serving state answers what the model does over it."""
    assert wh.tree.signature() == build_qctree(wh.table, AGG).signature()
    model.assert_answers(model.asker(wh),
                         model.expectations(list(wh.table.iter_records())))


class TestPendingDeltaAccumulation:
    @pytest.mark.usefixtures("maintained")
    def test_interleaved_batches_patch_once(self):
        """Insert, delete, and mixed batches with no read in between
        still fold into ONE pending delta and one incremental patch."""
        wh = _warehouse()
        wh.view  # compile the initial frozen view
        wh.insert([("S3", "P1", "w", 2.0), ("S3", "P2", "w", 5.0)])
        wh.delete([("S1", "P2", "s", 0.0)])
        wh.maintain(inserts=[("S1", "P3", "f", 8.0)],
                    deletes=[("S3", "P1", "w", 0.0)])
        assert wh.pieces()[0].pending_delta is not None  # nothing read yet
        with refreeze_ratios(full=1.0):  # always patch, never rebuild
            _assert_serves_like_rebuild(wh)
        assert wh.pieces()[0].pending_delta is None  # consumed by the one patch
        assert wh.last_refreeze["mode"] in ("patched", "compacted")

    def test_delete_empties_class_created_by_pending_insert(self):
        """A class born in one pending batch and killed by the next must
        vanish cleanly from the patched view (dirty-id overlap case)."""
        wh = _warehouse()
        wh.view
        fresh = ("S9", "P9", "x", 3.0)
        wh.insert([fresh])      # creates brand-new path + class nodes
        wh.delete([fresh])      # prunes them while still pending
        _assert_serves_like_rebuild(wh)
        # Net effect is zero: same classes as an untouched warehouse.
        untouched = _warehouse()
        assert wh.tree.equivalent_to(untouched.tree)

    def test_pending_survives_failed_batch(self):
        """A batch that validates-and-fails must not corrupt the pending
        delta accumulated by earlier successful batches."""
        wh = _warehouse()
        wh.view
        wh.insert([("S4", "P1", "s", 1.0)])
        with pytest.raises(MaintenanceError):
            wh.delete([("missing", "missing", "missing", 0.0)])
        _assert_serves_like_rebuild(wh)

    def test_mixed_batch_is_one_epoch_bump(self):
        wh = _warehouse()
        _, epoch_before = wh.serving_stamp()
        wh.maintain(inserts=[("S5", "P1", "s", 2.0)],
                    deletes=[("S2", "P2", "f", 0.0)])
        _, epoch_after = wh.serving_stamp()
        assert epoch_after == epoch_before + 1
        assert wh.stats()["maintain_batched"] == 1


class TestEmptyAndDuplicateBatches:
    def test_empty_batches_are_true_noops(self, tmp_path):
        """No WAL record, no epoch bump, no cache flush, no tree churn."""
        wh = _warehouse(cache_size=64)
        wal = wh.attach_wal(str(tmp_path / "wh.wal"))
        wh.point(("S1", "*", "*"))  # fill one cache entry
        stamp = wh.serving_stamp()
        lsn = wal.last_lsn
        signature = wh.tree.signature()
        wh.insert([])
        wh.delete([])
        wh.maintain()
        wh.maintain(inserts=[], deletes=[])
        assert wh.serving_stamp() == stamp
        assert wal.last_lsn == lsn
        assert len(wal.records()) == 0
        assert wh.tree.signature() == signature
        hits_before = wh.stats()["query_cache"]["hits"]
        wh.point(("S1", "*", "*"))  # stamp unchanged => still a hit
        assert wh.stats()["query_cache"]["hits"] == hits_before + 1

    def test_duplicate_tuple_insert_batch(self):
        """k copies in one batch contribute k times, like k single calls."""
        record = ("S1", "P1", "s", 6.0)
        batched = _warehouse()
        batched.insert([record, record])
        sequential = _warehouse()
        sequential.insert([record])
        sequential.insert([record])
        assert batched.tree.equivalent_to(sequential.tree)
        _assert_serves_like_rebuild(batched)

    def test_duplicate_tuple_delete_batch(self):
        record = ("S1", "P1", "s", 6.0)
        wh = _warehouse()
        wh.insert([record])  # now two matching rows
        wh.delete([record, record])
        _assert_serves_like_rebuild(wh)
        assert wh.table.n_rows == len(BASE) - 1

    def test_overdraft_duplicate_delete_fails_whole_batch(self):
        """Deleting more copies than exist rejects the batch atomically."""
        wh = _warehouse()
        before = wh.tree.signature()
        with pytest.raises(MaintenanceError):
            wh.delete([("S1", "P1", "s", 0.0)] * 2)  # only one copy exists
        assert wh.tree.signature() == before
        assert wh.table.n_rows == len(BASE)

    def test_modify_is_one_wal_record(self, tmp_path):
        """§3.3 modification == ONE tagged ``maintain`` record and one
        serving-version bump, not a delete/insert pair."""
        wh = _warehouse()
        wal = wh.attach_wal(str(tmp_path / "wh.wal"))
        _, epoch_before = wh.serving_stamp()
        wh.modify([("S1", "P1", "s", 0.0)], [("S1", "P1", "w", 6.0)])
        records = wal.records()
        assert len(records) == 1
        assert records[0].op == "maintain"
        tags = {row[0] for row in records[0].records}
        assert tags == {"-", "+"}
        assert wh.serving_stamp()[1] == epoch_before + 1


class TestRecoveryReplayParity:
    def _paths(self, tmp_path):
        return str(tmp_path / "ckpt"), str(tmp_path / "wh.wal")

    def test_recover_replays_mixed_batches_like_live(self, tmp_path):
        """Snapshot + WAL replay of pure AND mixed batches converges on
        the live warehouse's serving tree and answers."""
        directory, wal_path = self._paths(tmp_path)
        live = _warehouse()
        live.attach_wal(wal_path)
        live.checkpoint(directory)
        live.insert([("S3", "P1", "w", 2.0)])
        live.modify([("S2", "P2", "f", 0.0)], [("S2", "P2", "w", 11.0)])
        live.delete([("S1", "P2", "s", 0.0)])

        recovered = QCWarehouse.recover(directory, wal_path, SCHEMA)
        assert recovered.last_recovery["replayed"] == 3
        assert recovered.last_recovery["skipped"] == []
        assert sorted(recovered.table.iter_records()) == \
            sorted(live.table.iter_records())
        _assert_serves_like_rebuild(recovered)

    def test_recover_skips_checkpointed_maintain_records(self, tmp_path):
        """A mixed batch folded into a later checkpoint is not replayed."""
        directory, wal_path = self._paths(tmp_path)
        live = _warehouse()
        live.attach_wal(wal_path)
        live.modify([("S1", "P1", "s", 0.0)], [("S1", "P1", "w", 6.0)])
        # The checkpoint includes the batch; the crash lands before the
        # log is truncated.
        with mock.patch.object(live.wal, "truncate",
                               side_effect=InjectedCrash):
            with pytest.raises(InjectedCrash):
                live.checkpoint(directory)
        live.insert([("S4", "P4", "s", 1.0)])

        recovered = QCWarehouse.recover(directory, wal_path, SCHEMA)
        assert recovered.last_recovery["replayed"] == 1  # only the insert
        assert sorted(recovered.table.iter_records()) == \
            sorted(live.table.iter_records())
        _assert_serves_like_rebuild(recovered)

    def test_recovered_warehouse_keeps_batching(self, tmp_path):
        """Post-recovery writes keep flowing through the batched engine
        (same WAL, counters fresh, mixed batches still one record)."""
        directory, wal_path = self._paths(tmp_path)
        live = _warehouse()
        live.attach_wal(wal_path)
        live.checkpoint(directory)
        live.insert([("S3", "P1", "w", 2.0)])

        recovered = QCWarehouse.recover(directory, wal_path, SCHEMA)
        lsn_before = recovered.wal.last_lsn
        recovered.maintain(inserts=[("S5", "P5", "s", 4.0)],
                           deletes=[("S3", "P1", "w", 0.0)])
        assert recovered.wal.last_lsn == lsn_before + 1
        assert recovered.wal.records()[-1].op == "maintain"
        assert recovered.stats()["maintain_batched"] == 1
        _assert_serves_like_rebuild(recovered)
