"""The head's crossover rule (``QCWarehouse.REBUILD_RATIO``).

A head batch whose inserts plus head deletes reach ρ of the head's
post-batch rows is rebuilt from the post-batch table; a smaller one is
maintained by Algorithms 5–7.  Both paths take their table from one
function (``maintenance.batch.batch_tables``), so they leave the same
table — rows, order, label codes: the same piece file — and a store
recovered from its log holds the live store's pieces whichever path
each replayed batch takes.
"""

from __future__ import annotations

import random

import pytest

from repro.core.piece import piece_bytes
from repro.core.warehouse import QCWarehouse
from repro.data.synthetic import zipf_table
from repro.segments import SegmentedWarehouse
from repro.serving import QCServer
from tests import model
from tests.conftest import PATHS, rebuild_ratio

SCHEMA, AGG = model.SCHEMA, model.AGGREGATE


def _pieces(store) -> list:
    return [piece_bytes(piece.table) for piece in store.pieces()]


def _program(seed, n_batches=12):
    """A seeded program of mixed batches: base records, batches."""
    rng = random.Random(seed)
    base = [model.gen_record(rng) for _ in range(rng.randint(0, 10))]
    live, batches = list(base), []
    for _ in range(n_batches):
        inserts, deletes = model.next_batch(rng, live)
        model.remove_rows(live, deletes)
        live.extend(inserts)
        batches.append((inserts, deletes))
    return base, batches


class TestWhenTheRuleFires:
    def test_a_batch_large_against_the_head_is_rebuilt(self):
        """``ingest_seg``'s shape: a 32-row batch on a 256-row head."""
        table = zipf_table(256 + 32, 6, 30, zipf=2.0, seed=1)
        records = list(table.iter_records())
        wh = QCWarehouse(table.subset(range(256)), ("sum", "M0"))
        wh.insert(records[256:])
        done = wh.last_maintenance
        assert done["path"] == "rebuilt" and done["inserted"] == 32
        assert "build_s" in done and "partition_s" not in done
        # A rebuilt head holds what a fresh build holds, nothing more.
        head = wh.pieces()[0]
        assert head._tree is None and head.live_cover_index is None
        assert head.pending_delta is None and head.frozen_ready
        wh.insert(records[:1])  # 1 row < ρ × 289
        assert wh.last_maintenance["path"] == "maintained"

    def test_the_benchmark_scale_keeps_maintaining(self):
        """The table of the monolithic benchmark workloads: their 1- and
        32-row inserts and deletes stay below ρ, so every one of them
        runs Algorithms 5–7."""
        table = zipf_table(20000, 6, 30, zipf=2.0, seed=1)
        records = list(table.subset(range(32)).iter_records())
        wh = QCWarehouse(table, ("sum", "M0"), cache_size=0)
        for batch in (records, records[:1]):
            wh.insert(batch)
            assert wh.last_maintenance["path"] == "maintained"
            wh.delete(batch)
            assert wh.last_maintenance["path"] == "maintained"


class TestBothPathsLeaveOneTable:
    @pytest.mark.parametrize("seed", range(6))
    def test_piece_bytes_agree_after_every_batch(self, seed):
        base, batches = _program(seed)
        stores = {}
        for path, ratio in PATHS.items():
            with rebuild_ratio(ratio):
                stores[path] = [
                    QCWarehouse.from_records(base, SCHEMA, AGG),
                    SegmentedWarehouse.from_records(
                        base, SCHEMA, AGG, seal_rows=8,
                        compact_min_segments=1),
                ]
        for inserts, deletes in batches:
            for path, ratio in PATHS.items():
                with rebuild_ratio(ratio):
                    for store in stores[path]:
                        store.maintain(inserts=inserts, deletes=deletes)
                        assert store.last_maintenance["path"] == path
            for maintained, rebuilt in zip(*stores.values()):
                assert _pieces(maintained) == _pieces(rebuilt)
        for store in stores["maintained"] + stores["rebuilt"]:
            store.close()

    @pytest.mark.parametrize("path", sorted(PATHS))
    def test_recover_reproduces_the_live_pieces(self, path, tmp_path):
        """A WAL'd segmented store, written on one path, recovered under
        the store's own rule: the same piece files, sealed and head."""
        base, batches = _program(7, n_batches=16)
        options = dict(seal_rows=8, compact_min_segments=1)
        ckpt, wal = tmp_path / "ckpt", tmp_path / "seg.wal"
        with rebuild_ratio(PATHS[path]):
            live = SegmentedWarehouse.from_records(base, SCHEMA, AGG,
                                                   **options)
            live.attach_wal(wal)
            live.checkpoint(ckpt)
            for inserts, deletes in batches:
                live.maintain(inserts=inserts, deletes=deletes)
        assert live.segment_health()["seals"] > 0
        recovered = SegmentedWarehouse.recover(ckpt, wal, SCHEMA, **options)
        assert recovered.last_recovery["replayed"] == len(batches)
        assert _pieces(recovered) == _pieces(live)
        live.close()
        recovered.close()


class TestServerPhases:
    def test_write_phases_follow_the_path(self, sales_table, head_path):
        """The server observes the sub-phases the batch ran: a rebuilt
        write is one ``rebuild`` observation, a maintained one the three
        maintain sub-phases."""
        with QCServer(QCWarehouse(sales_table, "avg(Sale)"),
                      workers=1) as server:
            server.insert([("S3", "P1", "s", 5.0)])
            phases = server.stats()["write_phases"]
        subphases = {"maintain_partition", "maintain_merge",
                     "maintain_index"}
        if head_path == "rebuilt":
            assert phases["rebuild"]["count"] == 1
            assert subphases.isdisjoint(phases)
        else:
            assert "rebuild" not in phases
            assert all(phases[name]["count"] == 1 for name in subphases)
        assert phases["maintain"]["count"] == 1
