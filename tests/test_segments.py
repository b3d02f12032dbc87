"""Unit tests for the segmented-ingest subsystem's moving parts.

The differential oracle (``test_segments_oracle``) proves end-to-end
answer parity; these tests pin the individual mechanisms — seal
thresholds, delete routing across segments, the generation-stamped
query cache, manifest atomicity and corruption handling, checkpoint
GC, compactor lifecycle, the serving-layer surface, and the
label-dictionary persistence fix that keeps loaded trees paired with
re-encoded tables.
"""

from __future__ import annotations

import json
import os
import threading
import time

import pytest

from repro.core.manifest import (
    find_orphans,
    load_manifest,
    manifest_schema,
    save_manifest,
)
from repro.core.warehouse import QCWarehouse
from repro.cube.schema import Schema
from repro.errors import MaintenanceError, RecoveryError
from repro.segments import SegmentedWarehouse
from tests.conftest import corrupt_served_state, plus, refreeze_ratios

SCHEMA = Schema(dimensions=("A", "B", "C"), measures=("m",))


def _record(i: int, card: int = 4):
    codes = (i % card, (i // card) % card, (i // card // card) % card)
    measure = float((3 * codes[0] + 5 * codes[1] + 7 * codes[2]) % 10 + 1)
    return tuple(f"x{c}" for c in codes) + (measure,)


def _records(n: int, start: int = 0, card: int = 4):
    return [_record(i, card) for i in range(start, start + n)]


@pytest.fixture(autouse=True)
def seal_batches(monkeypatch):
    """Seal after 4 batches here (``SEAL_BATCHES`` is a class constant)."""
    monkeypatch.setattr(SegmentedWarehouse, "SEAL_BATCHES", 4)


@pytest.fixture
def fast_compactor(monkeypatch):
    monkeypatch.setattr(SegmentedWarehouse, "COMPACT_INTERVAL", 0.01)


def _warehouse(n_rows=0, **options):
    options.setdefault("seal_rows", 8)
    options.setdefault("compact_min_segments", 2)
    return SegmentedWarehouse.from_records(
        _records(n_rows), SCHEMA, ("sum", "m"), **options
    )


class TestSealing:
    def test_bootstrap_larger_than_threshold_seals_immediately(self):
        wh = _warehouse(n_rows=30, seal_rows=8)
        health = wh.segment_health()
        assert health["segments_live"] == 1
        assert health["head_rows"] == 0
        assert health["seals"] == 1

    def test_row_threshold(self):
        wh = _warehouse(n_rows=0, seal_rows=8)
        wh.maintain(inserts=_records(5))
        assert wh.segment_health() == dict(
            wh.segment_health(), segments_live=0, head_rows=5
        )
        wh.maintain(inserts=_records(5, start=5))
        health = wh.segment_health()
        assert health["segments_live"] == 1 and health["head_rows"] == 0

    def test_batch_threshold(self, monkeypatch):
        monkeypatch.setattr(SegmentedWarehouse, "SEAL_BATCHES", 3)
        wh = _warehouse(n_rows=0, seal_rows=10_000)
        for i in range(3):
            wh.maintain(inserts=[_record(i)])
        health = wh.segment_health()
        assert health["segments_live"] == 1 and health["head_rows"] == 0

    def test_empty_head_never_seals(self):
        wh = _warehouse(n_rows=0)
        assert wh.seal() is None
        assert wh.segment_health()["segments_live"] == 0

    def test_explicit_seal(self):
        wh = _warehouse(n_rows=0)
        wh.maintain(inserts=_records(3))
        segment = wh.seal()
        assert segment is not None and segment.n_rows == 3
        assert wh.last_seal["rows"] == 3
        assert wh.segment_health()["head_rows"] == 0

    def test_row_order_matches_monolithic(self):
        """Segment rows ++ head rows must equal the monolithic row order
        (batches are sorted identically by both engines) — the invariant
        delete-match parity rests on."""
        wh = _warehouse(n_rows=5, seal_rows=4)
        mono = QCWarehouse.from_records(_records(5), SCHEMA, ("sum", "m"))
        wh.maintain(inserts=_records(7, start=5))
        mono.maintain(inserts=_records(7, start=5))
        flat = []
        for segment in wh._segments:
            flat.extend(segment.table.iter_records())
        flat.extend(wh.table.iter_records())
        assert flat == list(mono.table.iter_records())


class TestDeleteRouting:
    def test_delete_from_sealed_segment(self):
        wh = _warehouse(n_rows=10, seal_rows=4)
        victim = _record(2)
        before = wh.point(victim[:3])
        wh.maintain(deletes=[victim])
        assert wh.point(victim[:3]) != before
        assert wh.n_rows == 9

    def test_sealed_delete_answers_like_a_fresh_build(self):
        """A delete that hits a sealed piece rebuilds it from its rows,
        so the big value leaves no rounding behind: incremental
        maintenance read 0.0 here, (0.1 + 1e17 + 0.2) - 1e17."""
        schema = Schema(dimensions=("D1", "D2"), measures=("M",))
        rows = [("a", "x", 0.1), ("a", "y", 1e17), ("a", "z", 0.2),
                ("b", "x", 0.5)]
        wh = SegmentedWarehouse.from_records(rows, schema, ("sum", "M"),
                                             seal_rows=4)
        try:
            assert wh.segment_health()["segments_live"] == 1
            wh.maintain(deletes=[("a", "y", 0)])
            fresh = QCWarehouse.from_records(
                [r for r in rows if r[1] != "y"], schema, ("sum", "M"))
            for cell in [("a", "*"), ("*", "*")]:
                assert wh.point(cell) == fresh.point(cell)
        finally:
            wh.close()

    def test_duplicates_spread_across_segments(self):
        """Three copies living in different segments: deleting all three
        must consume one per location, oldest first."""
        record = _record(1)
        wh = _warehouse(n_rows=0, seal_rows=2)
        for _ in range(3):
            wh.maintain(inserts=[record, _record(7)])  # seals each batch
        assert wh.segment_health()["segments_live"] == 3
        wh.maintain(deletes=[record] * 3)
        assert wh.point(record[:3]) is None
        with pytest.raises(MaintenanceError):
            wh.maintain(deletes=[record])

    def test_emptied_segment_is_dropped(self):
        wh = _warehouse(n_rows=0, seal_rows=2)
        wh.maintain(inserts=[_record(1), _record(2)])  # seals
        wh.maintain(inserts=[_record(3)])
        assert wh.segment_health()["segments_live"] == 1
        wh.maintain(deletes=[_record(1), _record(2)])
        assert wh.segment_health()["segments_live"] == 0
        assert wh.n_rows == 1

    def test_failed_batch_leaves_segments_untouched(self):
        wh = _warehouse(n_rows=10, seal_rows=4)
        generation = wh.segment_health()["generation"]
        rows = wh.n_rows
        with pytest.raises(MaintenanceError):
            wh.maintain(inserts=[_record(3)],
                        deletes=[("zz", "zz", "zz", 1.0)])
        assert wh.n_rows == rows
        assert wh.segment_health()["generation"] == generation


class TestGenerationAndCache:
    """Satellite: the query cache must re-key when the segment set
    changes, even though seal/compaction don't advance the LSN."""

    def test_seal_bumps_generation(self):
        wh = _warehouse(n_rows=0, seal_rows=4)
        g0 = wh.segment_health()["generation"]
        wh.maintain(inserts=_records(4))
        assert wh.segment_health()["generation"] > g0

    def test_compaction_bumps_generation_and_epoch(self):
        wh = _warehouse(n_rows=0, seal_rows=2, compact_min_segments=1)
        wh.maintain(inserts=_records(2))
        wh.maintain(inserts=_records(2, start=2))
        g0 = wh.segment_health()["generation"]
        _, e0 = wh.serving_stamp()
        assert wh.compact_once()
        assert wh.segment_health()["generation"] == g0 + 1
        assert wh.serving_stamp()[1] == e0 + 1

    def test_cached_answer_survives_compaction_correctly(self):
        """Regression: a pre-compaction cached answer must not be served
        for a post-compaction store under a stale key; answers must stay
        right whether the entry is re-keyed or recomputed."""
        wh = _warehouse(n_rows=0, seal_rows=2, compact_min_segments=1,
                        cache_size=32)
        wh.maintain(inserts=_records(6))
        cell = _record(1)[:3]
        spec = ("*", "*", "*")
        before_point = wh.point(cell)
        before_range = wh.range(spec)
        before_iceberg = wh.iceberg(1.0)
        wh.compact_now()
        assert wh.point(cell) == before_point
        assert wh.range(spec) == before_range
        assert sorted(wh.iceberg(1.0), key=repr) == \
            sorted(before_iceberg, key=repr)
        # ...and a genuinely different post-compaction state is not
        # masked by the old entries.
        wh.maintain(deletes=[_record(1)])
        assert wh.point(cell) != before_point

    def test_cache_keys_include_generation(self):
        wh = _warehouse(n_rows=0, seal_rows=100, cache_size=32)
        wh.maintain(inserts=_records(4))
        wh.point(("*", "*", "*"))
        stats = wh.stats()["query_cache"]
        assert stats["size"] >= 1
        generation = wh.segment_health()["generation"]
        wh.seal()
        assert wh.segment_health()["generation"] == generation + 1
        # Same question, new generation: must be a miss, then a hit.
        misses_before = wh.stats()["query_cache"]["misses"]
        wh.point(("*", "*", "*"))
        assert wh.stats()["query_cache"]["misses"] == misses_before + 1
        hits_before = wh.stats()["query_cache"]["hits"]
        wh.point(("*", "*", "*"))
        assert wh.stats()["query_cache"]["hits"] == hits_before + 1


class TestCompactor:
    def test_compact_now_drains_backlog(self):
        wh = _warehouse(n_rows=0, seal_rows=2, compact_min_segments=2)
        for i in range(5):
            wh.maintain(inserts=_records(2, start=2 * i))
        assert wh.compaction_backlog > 0
        wh.compact_now()
        assert wh.compaction_backlog == 0
        assert wh.segment_health()["compactions"] >= 1
        assert wh.last_compaction is not None

    def test_background_compactor_lifecycle(self, fast_compactor):
        wh = _warehouse(n_rows=0, seal_rows=2, compact_min_segments=2)
        before = threading.active_count()
        wh.start_compactor()
        wh.start_compactor()  # idempotent
        assert threading.active_count() == before + 1
        for i in range(6):
            wh.maintain(inserts=_records(2, start=2 * i))
        deadline = time.monotonic() + 5.0
        while wh.compaction_backlog > 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert wh.compaction_backlog == 0
        wh.close()
        assert threading.active_count() == before
        assert not wh.segment_health()["compactor_running"]

    def test_context_manager_joins_compactor(self, fast_compactor):
        before = threading.active_count()
        with _warehouse(n_rows=0) as wh:
            wh.start_compactor()
            wh.maintain(inserts=_records(3))
        assert threading.active_count() == before

    def test_compaction_preserves_arrival_order(self):
        wh = _warehouse(n_rows=0, seal_rows=3, compact_min_segments=1)
        wh.maintain(inserts=_records(3))
        wh.maintain(inserts=_records(3, start=3))
        before = [list(s.table.iter_records()) for s in wh._segments]
        assert len(before) == 2
        assert wh.compact_once()
        assert list(wh._segments[0].table.iter_records()) == \
            before[0] + before[1]


class TestSealedPiecesShareTheLifecycle:
    @pytest.mark.parametrize("ratio, modes", [
        (0.0, ("full",)), (1.0, ("patched", "compacted")),
    ])
    @pytest.mark.usefixtures("maintained")
    def test_sealed_piece_refreezes_with_the_warehouse_ratio(self, ratio,
                                                             modes):
        wh = _warehouse(n_rows=0, seal_rows=100)
        wh.maintain(inserts=_records(6))
        wh.view  # compile the head's frozen view
        with refreeze_ratios(full=ratio):
            wh.maintain(inserts=_records(2, start=6))
            assert wh.serving_tree.patch_stats["mode"] in modes  # the head
            wh.maintain(inserts=_records(2, start=8))
            sealed = wh.seal()  # handed over with its unread delta
            assert sealed.pending_delta is not None
            # The delta keeps the dict tree until the view consumes it.
            assert sealed._tree is not None
            assert sealed.frozen_view().patch_stats["mode"] in modes
            assert sealed._tree is None
            # A replacement of it is rebuilt: born as its fresh view.
            wh.maintain(deletes=[_record(0)])
            replaced = wh._segments[0]
            assert replaced is not sealed and replaced.frozen_ready
            assert replaced._tree is None
            assert replaced.frozen_view().patch_stats["mode"] == "fresh"


class TestManifest:
    def _payload(self):
        return dict(
            lsn=7, generation=3, aggregate_spec="count", schema=SCHEMA,
            label_types=("str", "int", None),
            segments=[{"id": 1, "rows": 5, "table": "segment-00000001.csv",
                       "crc32": "0badf00d"}],
            head={"rows": 2, "table": "head-00000001.csv",
                  "crc32": "0badf00d", "seq": 1},
            next_segment_id=2,
        )

    def test_round_trip(self, tmp_path):
        save_manifest(tmp_path, **self._payload())
        payload = load_manifest(tmp_path)
        assert payload["lsn"] == 7
        assert payload["segments"][0]["id"] == 1
        assert payload["head"]["seq"] == 1
        assert manifest_schema(payload, tmp_path) == SCHEMA
        assert payload["schema"]["label_types"] == ["str", "int", None]

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(RecoveryError, match="no segment manifest"):
            load_manifest(tmp_path)

    def test_corrupt_body_fails_checksum(self, tmp_path):
        save_manifest(tmp_path, **self._payload())
        path = tmp_path / "MANIFEST.json"
        document = json.loads(path.read_text())
        document["manifest"]["lsn"] = 99  # tamper
        path.write_text(json.dumps(document))
        with pytest.raises(RecoveryError, match="checksum mismatch"):
            load_manifest(tmp_path)

    def test_truncated_manifest(self, tmp_path):
        save_manifest(tmp_path, **self._payload())
        path = tmp_path / "MANIFEST.json"
        path.write_text(path.read_text()[:40])
        with pytest.raises(RecoveryError, match="unreadable"):
            load_manifest(tmp_path)

    def test_find_orphans(self, tmp_path):
        save_manifest(tmp_path, **self._payload())
        for name in ("segment-00000001.csv", "head-00000001.csv",
                     "segment-00000009.csv", "head-00000000.csv",
                     # a tree file of the layout that stored trees
                     "head-00000001.qct",
                     "unrelated.txt", "MANIFEST.json.tmp",
                     "MANIFEST.json.tmp.123",
                     # a hard crash's leftover of an atomic file write
                     "segment-00000001.csv.tmp.123"):
            (tmp_path / name).write_text("x")
        payload = load_manifest(tmp_path)
        assert find_orphans(tmp_path, payload) == [
            "head-00000000.csv", "head-00000001.qct",
            "segment-00000001.csv.tmp.123", "segment-00000009.csv",
        ]


class TestCheckpointRecover:
    def _grown(self, tmp_path, n_batches=5):
        wh = _warehouse(n_rows=6, seal_rows=4)
        wh.attach_wal(tmp_path / "wal")
        for i in range(n_batches):
            wh.maintain(inserts=_records(3, start=6 + 3 * i))
        return wh

    def test_checkpoint_truncates_wal_and_gcs(self, tmp_path):
        wh = self._grown(tmp_path)
        wh.checkpoint(tmp_path / "ckpt")
        wh.maintain(inserts=_records(2, start=50))
        # What a hard crash in the middle of a file write leaves behind.
        for name in ("segment-00000001.csv.tmp.999", "head-00000009.csv.tmp.9"):
            (tmp_path / "ckpt" / name).write_text("x")
        wh.checkpoint(tmp_path / "ckpt")
        names = sorted(os.listdir(tmp_path / "ckpt"))
        payload = load_manifest(tmp_path / "ckpt")
        # GC: exactly the manifest's files remain (no stale head tables,
        # no temporary files).
        assert set(names) == {"MANIFEST.json", payload["head"]["table"]} \
            | {e["table"] for e in payload["segments"]}
        assert payload["head"]["seq"] == 2
        recovered = SegmentedWarehouse.recover(
            tmp_path / "ckpt", tmp_path / "wal", SCHEMA, seal_rows=4
        )
        assert recovered.last_recovery["replayed"] == 0
        assert recovered.n_rows == wh.n_rows

    def test_corrupt_segment_tree_rebuilt_from_csv(self, tmp_path):
        """A tree file beside a segment's table — what the layout that
        stored trees left — is never read, however corrupt: the segment
        is built from its table, and the next checkpoint deletes it."""
        wh = self._grown(tmp_path)
        wh.checkpoint(tmp_path / "ckpt")
        payload = load_manifest(tmp_path / "ckpt")
        table = payload["segments"][0]["table"]
        tree_file = tmp_path / "ckpt" / (os.path.splitext(table)[0] + ".qct")
        tree_file.write_text("garbage")
        recovered = SegmentedWarehouse.recover(
            tmp_path / "ckpt", tmp_path / "wal", SCHEMA, seal_rows=4
        )
        assert recovered.n_rows == wh.n_rows
        for cell in (("x1", "*", "*"), ("*", "x2", "*")):
            assert recovered.point(cell) == wh.point(cell)
        report = recovered.verify(deep=True)
        assert report.ok, report.issues
        assert recovered.last_recovery["orphans"] == [tree_file.name]
        recovered.checkpoint(tmp_path / "ckpt")
        assert not tree_file.exists()

    def test_second_checkpoint_skips_its_own_segment_files(self, tmp_path):
        wh = self._grown(tmp_path)
        wh.checkpoint(tmp_path / "ckpt")
        payload = load_manifest(tmp_path / "ckpt")
        files = [tmp_path / "ckpt" / entry["table"]
                 for entry in payload["segments"]]
        assert files
        before = [os.stat(f).st_mtime_ns for f in files]
        time.sleep(0.01)
        wh.checkpoint(tmp_path / "ckpt")
        assert [os.stat(f).st_mtime_ns for f in files] == before
        # ... and so does a warehouse recovered from that directory.
        recovered = SegmentedWarehouse.recover(
            tmp_path / "ckpt", tmp_path / "wal", SCHEMA, seal_rows=4
        )
        recovered.checkpoint(tmp_path / "ckpt")
        assert [os.stat(f).st_mtime_ns for f in files] == before

    def test_checkpoint_directory_of_another_run(self, tmp_path):
        """A fresh warehouse whose segment ids collide with files an
        earlier run left in the directory (each store mints its own ids,
        from 1) must overwrite them, not adopt them by name."""

        def run(start):
            wh = _warehouse(n_rows=0, seal_rows=4)
            wh.maintain(inserts=_records(9, start=start))
            wh.checkpoint(tmp_path / "ckpt")
            return wh

        stale, live = run(0), run(20)
        assert ({s.segment_id for s in stale._segments}
                == {s.segment_id for s in live._segments})
        recovered = SegmentedWarehouse.recover(
            tmp_path / "ckpt", tmp_path / "wal", SCHEMA, seal_rows=4
        )
        assert recovered.n_rows == live.n_rows == 9
        everything = ("*", "*", "*")
        assert recovered.point(everything) == live.point(everything)
        assert live.point(everything) != stale.point(everything)
        spec = (["x0", "x1", "x2", "x3"], "*", "*")
        assert recovered.range(spec) == live.range(spec)
        assert recovered.iceberg(0.0) == live.iceberg(0.0)

    def test_orphans_reported_not_fatal(self, tmp_path):
        wh = self._grown(tmp_path)
        wh.checkpoint(tmp_path / "ckpt")
        (tmp_path / "ckpt" / "segment-00000099.qct").write_text("junk")
        recovered = SegmentedWarehouse.recover(
            tmp_path / "ckpt", tmp_path / "wal", SCHEMA, seal_rows=4
        )
        assert recovered.last_recovery["orphans"] == [
            "segment-00000099.qct"
        ]

    def test_recover_seals_a_head_over_its_threshold(self, tmp_path):
        """A head checkpointed by a store that never seals is over a
        segmented store's threshold: recovery seals it the way a fresh
        store seals its bootstrap table."""
        rows = _records(50)
        QCWarehouse.from_records(rows, SCHEMA, ("sum", "m")).checkpoint(
            tmp_path / "ckpt")
        recovered = SegmentedWarehouse.recover(
            tmp_path / "ckpt", tmp_path / "wal", SCHEMA, seal_rows=8)
        fresh = _warehouse(n_rows=50, seal_rows=8)
        for store in (recovered, fresh):
            health = store.segment_health()
            assert (health["seals"], health["head_rows"]) == (1, 0)
        everything = ("*", "*", "*")
        assert recovered.point(everything) == fresh.point(everything)

    def test_recovered_ids_do_not_collide(self, tmp_path):
        """Fresh seals after recovery must not reuse manifest segment
        ids (file names would silently collide at the next checkpoint)."""
        wh = self._grown(tmp_path)
        wh.checkpoint(tmp_path / "ckpt")
        taken = {s.segment_id for s in wh._segments}
        recovered = SegmentedWarehouse.recover(
            tmp_path / "ckpt", tmp_path / "wal", SCHEMA, seal_rows=2
        )
        recovered.maintain(inserts=_records(4, start=90))
        new_ids = {s.segment_id for s in recovered._segments} - taken
        assert new_ids and min(new_ids) > max(taken)


class TestLabelDictionaryPersistence:
    """A store whose labels were minted incrementally (per batch, in
    append order) answers the same after a checkpoint round trip, whose
    CSV re-encode mints codes in globally sorted order: the tree is
    built from the table it is read with."""

    def _drifted_warehouse(self):
        # Insert labels in an order that diverges from sorted order, then
        # delete some rows so stale labels linger in the encoders.
        wh = QCWarehouse.from_records(
            [("zz", "b", "c", 1.0)], SCHEMA, ("sum", "m")
        )
        wh.maintain(inserts=[("aa", "b", "c", 2.0), ("mm", "b", "c", 3.0)])
        wh.maintain(deletes=[("zz", "b", "c", 1.0)])
        return wh

    def test_monolithic_save_load_round_trip(self, tmp_path):
        wh = self._drifted_warehouse()
        expected = {cell: wh.point(cell) for cell in
                    [("aa", "*", "*"), ("mm", "*", "*"), ("*", "b", "*")]}
        wh.checkpoint(tmp_path / "ckpt")
        loaded = QCWarehouse.recover(tmp_path / "ckpt", tmp_path / "wal",
                                     SCHEMA)
        for cell, value in expected.items():
            assert loaded.point(cell) == value, cell
        # The loaded pair must also keep *maintaining* correctly.
        loaded.maintain(deletes=[("aa", "b", "c", 2.0)])
        assert loaded.point(("aa", "*", "*")) is None
        report = loaded.verify(deep=True)
        assert report.ok, report.issues

    def test_segment_round_trip_preserves_drifted_codes(self, tmp_path):
        wh = _warehouse(n_rows=0, seal_rows=100)
        wh.maintain(inserts=[("zz", "b", "c", 1.0)])
        wh.maintain(inserts=[("aa", "b", "c", 2.0)])
        wh.maintain(deletes=[("zz", "b", "c", 1.0)])
        wh.attach_wal(tmp_path / "wal")
        wh.seal()
        wh.checkpoint(tmp_path / "ckpt")
        recovered = SegmentedWarehouse.recover(
            tmp_path / "ckpt", tmp_path / "wal", SCHEMA
        )
        assert recovered.point(("aa", "*", "*")) == 2.0
        recovered.maintain(deletes=[("aa", "b", "c", 2.0)])
        assert recovered.point(("aa", "*", "*")) is None


class TestServingSurface:
    def test_snapshot_is_immutable_under_writes(self):
        wh = _warehouse(n_rows=6, seal_rows=4)
        snap = wh.snapshot_view()
        before = snap.point(("x1", "*", "*"))
        wh.maintain(inserts=_records(6, start=6))
        assert snap.point(("x1", "*", "*")) == before
        assert snap.describe()["generation"] <= \
            wh.segment_health()["generation"]

    def test_describe_shape(self):
        wh = _warehouse(n_rows=10, seal_rows=4)
        described = wh.snapshot_view().describe()
        assert described["frozen"] is True
        assert described["n_rows"] == 10
        assert described["segments"] >= 1
        assert "head_rows" in described and "generation" in described

    def test_stats_fields(self):
        wh = _warehouse(n_rows=10, seal_rows=4)
        stats = wh.stats()
        assert stats["serving"] == "segmented"
        for key in ("segments_live", "head_rows", "head_batches", "seals",
                    "compactions", "compaction_backlog", "segment_rewrites",
                    "compactor_running", "segment_rows"):
            assert key in stats, key
        assert stats["serving_stamp"]["generation"] == \
            wh.segment_health()["generation"]

    def test_server_health_and_write_phases(self, fast_compactor):
        from repro.serving.server import QCServer

        wh = _warehouse(n_rows=0, seal_rows=4, compact_min_segments=2)
        wh.start_compactor()
        server = QCServer(wh, workers=2)
        try:
            for i in range(6):
                server.write(inserts=_records(2, start=2 * i))
            health = server.health()
            assert health["segments"]["seals"] >= 1
            stats = server.stats()
            assert "seal" in stats["write_phases"]
            assert stats["segments"]["segments_live"] == \
                wh.segment_health()["segments_live"]
        finally:
            server.close()
        assert not wh.segment_health()["compactor_running"]

    def test_degraded_falls_back_to_scan(self):
        """A sealed piece that fails verify is rebuilt from its table in
        place: same segment id, same answers."""
        wh = _warehouse(n_rows=10, seal_rows=4)
        expected = wh.point(("x1", "*", "*"))
        sealed = wh.pieces()[0]
        segment_id = sealed.segment_id
        corrupt_served_state(sealed, plus(1000.0))
        assert not wh.verify().ok
        assert wh.pieces()[0].segment_id == segment_id
        assert wh.point(("x1", "*", "*")) == expected
        assert wh.verify().ok
