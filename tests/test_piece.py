"""The piece lifecycle, tested on the piece itself.

Both warehouses, every sealed segment and the CLI hold their data as
:class:`~repro.core.piece.Piece` objects, so the refreeze decision, the
cover-index lifecycle, derive and the on-disk table are pinned here once
— against the random mutation programs of the maintenance oracle —
instead of per store.
"""

from __future__ import annotations

import random
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.construct import build_qctree
from repro.core.maintenance import maintain_batch
from repro.core.piece import Piece
from repro.core.point_query import point_query
from repro.core.qctree import QCTree
from repro.core.warehouse import QCWarehouse
from repro.cube.table import BaseTable
from repro.errors import MaintenanceError
from repro.segments import SegmentedWarehouse
from repro.shard.pack import pack_snapshot_bytes
from tests.conftest import refreeze_ratios, write_csv
from tests.model import (
    SCHEMA,
    gen_record,
    make_program,
    record,
    remove_rows,
    table_of,
)

AGG = ("sum", "m")


def _state(piece):
    """Everything a reader of the piece can observe without making it
    do refreeze work."""
    return (piece.tree.signature(), piece.table.rows,
            piece.table.measures.tolist(), piece.pending_delta,
            piece.frozen_view() if piece.frozen_ready else None)


def _assert_view_current(piece):
    """The (possibly patched) view vs a from-scratch compile."""
    view, full = piece.frozen_view(), piece.tree.freeze()
    assert view.signature() == full.signature()
    assert (view.n_nodes, view.n_links, view.n_classes) == \
        (full.n_nodes, full.n_links, full.n_classes)


class TestRefreeze:
    @settings(max_examples=25)
    @given(seed=st.integers(0, 10_000), n_batches=st.integers(1, 5),
           read_every=st.integers(1, 3), ratio=st.sampled_from([0.25, 1.0]))
    def test_view_equals_fresh_freeze_after_any_apply_sequence(
            self, seed, n_batches, read_every, ratio):
        table, batches, _ = make_program(seed, n_batches)
        piece = Piece.build(table, AGG)
        piece.frozen_view()
        with refreeze_ratios(full=ratio):
            for step, (inserts, deletes) in enumerate(batches, start=1):
                piece.apply(inserts, deletes)
                assert piece.pending_delta is not None
                assert not piece.frozen_ready
                if step % read_every:
                    continue  # deltas merge while unread
                view = piece.frozen_view()
                assert piece.pending_delta is None and piece.frozen_ready
                assert piece.frozen_view() is view  # consumed exactly once
                _assert_view_current(piece)
            _assert_view_current(piece)
        assert piece.tree.equivalent_to(build_qctree(piece.table, AGG))

    def test_no_view_no_pending(self):
        """A rebuild leaves no view, no delta and no dict tree: the next
        read builds the view fresh, and the next write thaws it."""
        table, batches, _ = make_program(3, 2)
        piece = Piece.build(table, AGG)
        piece.apply(*batches[0])
        assert piece.pending_delta is not None
        piece.rebuild()
        assert piece.pending_delta is None and piece._tree is None
        assert piece.frozen_view().patch_stats["mode"] == "fresh"
        piece.apply(*batches[1])
        assert piece.pending_delta is not None
        _assert_view_current(piece)

    def test_ratio_zero_always_recompiles(self):
        table, batches, _ = make_program(5, 1, n_rows=8)
        piece = Piece.build(table, AGG)
        piece.frozen_view()
        piece.apply(*batches[0])
        with refreeze_ratios(full=0.0):
            assert piece.frozen_view().patch_stats["mode"] == "full"


class TestFailedBatch:
    def test_leaves_tree_table_view_and_drops_the_index(self):
        table, batches, _ = make_program(7, 1, n_rows=6)
        piece = Piece.build(table, AGG)
        piece.frozen_view()
        piece.apply(*batches[0])
        assert piece.live_cover_index is not None
        before = _state(piece)
        with pytest.raises(MaintenanceError):
            piece.apply(inserts=[record((0, 0, 0))],
                        deletes=[record((99, 99, 99))])
        assert _state(piece) == before
        assert piece.live_cover_index is None
        _assert_view_current(piece)
        piece.apply(inserts=[record((0, 0, 0))])  # rebuilt lazily
        assert piece.cover_stats()["rebuilt"] == 2
        assert piece.tree.equivalent_to(build_qctree(piece.table, AGG))


class TestOneTreeCopy:
    def test_no_write_path_copies_the_tree(self, monkeypatch):
        """A write costs its delta, and ``derive`` builds its tree from
        the updated table: no path copies a tree."""
        copies = []
        copy = QCTree.copy
        monkeypatch.setattr(
            QCTree, "copy", lambda tree: copies.append(tree) or copy(tree))
        table, batches, _ = make_program(5, 3, n_rows=8)
        piece = Piece.build(table, AGG)
        piece.frozen_view()
        piece.apply(*batches[0])
        maintain_batch(build_qctree(table, AGG), table, *batches[0])
        with pytest.raises(MaintenanceError):
            piece.apply(deletes=[record((99, 99, 99))])
        assert copies == []
        piece.derive(*batches[1])
        assert copies == []


class TestDerive:
    @settings(max_examples=25)
    @given(seed=st.integers(0, 10_000), ready=st.booleans())
    def test_never_changes_the_parent(self, seed, ready):
        table, batches, _ = make_program(seed, 2, n_rows=6)
        parent = Piece.build(table, AGG)
        parent.apply(*batches[0])
        if ready:
            parent.frozen_view()
        before = _state(parent)
        child = parent.derive(*batches[1], segment_id=7)
        assert _state(parent) == before
        # Born as its columns: a view and no dict tree.
        assert child.segment_id == 7 and child.frozen_ready
        assert child._tree is None
        assert child.tree.equivalent_to(build_qctree(child.table, AGG))
        _assert_view_current(child)

    def test_failing_derive_leaves_the_parent(self):
        table, _, _ = make_program(11, 1, n_rows=6)
        parent = Piece.build(table, AGG)
        parent.frozen_view()
        before = _state(parent)
        with pytest.raises(MaintenanceError):
            parent.derive(deletes=[record((99, 99, 99))])
        assert _state(parent) == before


class TestOnDiskTwin:
    """On disk a piece is its table's piece file (an earlier layout's
    CSV still loads); loading builds the tree from it (Theorem 2), so no
    file a tree was once stored in is read."""

    def _piece(self, seed=13):
        """A piece whose label codes drifted from sorted order."""
        _, batches, _ = make_program(seed, 3, n_rows=5)
        piece = Piece.build(
            BaseTable.from_records([("v9", "v1", "v1", 2.0)], SCHEMA), AGG)
        for inserts, _ in batches:
            if inserts:
                piece.apply(inserts)
        return piece

    def test_round_trip(self, tmp_path):
        piece = self._piece()
        crc = piece.save(tmp_path / "p.csv")
        assert crc == f"{zlib.crc32((tmp_path / 'p.csv').read_bytes()):08x}"
        loaded = Piece.load(tmp_path / "p.csv", SCHEMA, AGG, crc32=crc,
                            rows=piece.n_rows)
        assert list(loaded.table.iter_records()) == \
            list(piece.table.iter_records())
        assert loaded.tree.equivalent_to(build_qctree(loaded.table, AGG))
        for cell in {r[:3] for r in piece.table.iter_records()}:
            assert point_query(loaded.frozen_view(),
                               loaded.table.encode_cell(cell)) == \
                point_query(piece.frozen_view(), piece.table.encode_cell(cell))

    def _assert_rebuilt(self, piece, tmp_path):
        loaded = Piece.load(tmp_path / "p.csv", SCHEMA, AGG)
        assert sorted(loaded.table.iter_records()) == \
            sorted(piece.table.iter_records())
        assert loaded.tree.equivalent_to(build_qctree(loaded.table, AGG))

    def test_table_stamped_ahead_of_tree_rebuilds(self, tmp_path):
        """A table of the older layout, stamped with the WAL position on
        a comment line and newer than its tree, loads from the table."""
        piece = self._piece()
        piece.save(tmp_path / "p.csv")
        (tmp_path / "p.qct").write_text("QCTREE/2 behind its table")
        piece.apply([("v0", "v0", "v0", 1.0)])
        write_csv(piece.table, tmp_path / "p.csv")
        text = (tmp_path / "p.csv").read_text()
        (tmp_path / "p.csv").write_text("# wal_lsn=4\n" + text)
        self._assert_rebuilt(piece, tmp_path)

    def test_file_without_label_dictionaries_rebuilds(self, tmp_path):
        """The file holds the labels in sorted order, not the drifted
        codes."""
        piece = self._piece()
        piece.save(tmp_path / "p.csv")
        self._assert_rebuilt(piece, tmp_path)
        loaded = Piece.load(tmp_path / "p.csv", SCHEMA, AGG)
        assert loaded.table._decoders != piece.table._decoders

    def test_corrupt_tree_rebuilds(self, tmp_path):
        piece = self._piece()
        piece.save(tmp_path / "p.csv")
        (tmp_path / "p.qct").write_text("garbage")
        self._assert_rebuilt(piece, tmp_path)

    def test_missing_tree_rebuilds(self, tmp_path):
        piece = self._piece()
        write_csv(piece.table, tmp_path / "p.csv")
        self._assert_rebuilt(piece, tmp_path)

    def test_sealed_piece_skips_only_its_own_files(self, tmp_path):
        piece = self._piece()
        table_path = tmp_path / "p.csv"
        table_path.write_text("someone else's")
        piece.seal(1)
        crc = piece.save(table_path)  # overwrites the stranger
        written = table_path.read_bytes()
        table_path.write_text("marker")
        assert piece.save(table_path) == crc  # its own: skipped
        assert table_path.read_text() == "marker"
        table_path.unlink()
        piece.save(table_path)  # ... unless it is gone
        assert table_path.read_bytes() == written
        piece.save(tmp_path / "q.csv")  # elsewhere
        assert (tmp_path / "q.csv").read_bytes() == written
        loaded = Piece.load(tmp_path / "q.csv", SCHEMA, AGG, crc32=crc)
        loaded.seal(1)
        (tmp_path / "q.csv").write_text("marker")
        loaded.save(tmp_path / "q.csv")  # loaded from
        assert (tmp_path / "q.csv").read_text() == "marker"


def _fresh_twin(table):
    """``(table, its packed blob)`` built afresh from ``table``'s records:
    what Theorem 1 says any reload of the same rows must give."""
    fresh = BaseTable.from_records(table.iter_records(), table.schema)
    return fresh, pack_snapshot_bytes(Piece.build(fresh, AGG).frozen_view(),
                                      fresh)


def _laps(rng, live, n_laps=4):
    """``n_laps`` batches: inserts with fresh labels (one sorting before
    every label, one after), and deletes of every row carrying one D0
    label, which orphans it in the dictionary."""
    for lap in range(n_laps):
        inserts = [gen_record(rng, fresh=True) for _ in range(4)]
        inserts.append((f"a{lap}", f"z{lap}", "v0", 1.5))
        victim = rng.choice(live)[0]
        deletes = [r for r in live if r[0] == victim]
        remove_rows(live, deletes)
        live.extend(inserts)
        yield inserts, deletes


class TestTheoremOneOnReload:
    """A reloaded piece is the fresh build of its rows: the file holds
    the labels the rows use, in dictionary order, so whatever order a
    live table's dictionaries grew in, and whatever labels its deletes
    orphaned, the reload encodes — and packs — byte for byte as
    ``from_records(iter_records())`` does."""

    def test_a_live_piece_reloads_as_its_fresh_build(self, tmp_path):
        rng = random.Random(5)
        live = [gen_record(rng) for _ in range(12)]
        piece = Piece.build(table_of(live), AGG)
        drifted = False
        for lap, (inserts, deletes) in enumerate(_laps(rng, live)):
            piece.apply(inserts, deletes)
            path = tmp_path / f"lap{lap}.piece"
            crc = piece.save(path)
            loaded = Piece.load(path, SCHEMA, AGG, ("str",) * 3, crc32=crc,
                                rows=piece.n_rows)
            fresh, blob = _fresh_twin(piece.table)
            drifted |= piece.table._decoders != fresh._decoders
            assert loaded.table._decoders == fresh._decoders
            assert loaded.table.rows == fresh.rows
            assert loaded.table.measures.tolist() == fresh.measures.tolist()
            assert pack_snapshot_bytes(loaded.frozen_view(),
                                       loaded.table) == blob
        assert drifted  # the remap, not luck, made them equal

    def test_a_segmented_checkpoint_recovers_as_fresh_builds(self, tmp_path):
        rng = random.Random(6)
        live = [gen_record(rng) for _ in range(12)]
        directory = tmp_path / "ckpt"
        with SegmentedWarehouse.from_records(live, SCHEMA, AGG, seal_rows=6,
                                             compact_min_segments=2) as seg:
            for inserts, deletes in _laps(rng, live):
                seg.maintain(inserts=inserts, deletes=deletes)
                seg.checkpoint(directory)
                with SegmentedWarehouse.recover(directory, tmp_path / "wal",
                                                SCHEMA, seal_rows=6) as again:
                    assert len(again.pieces()) == len(seg.pieces())
                    for mine, back in zip(seg.pieces(), again.pieces()):
                        fresh, blob = _fresh_twin(mine.table)
                        assert back.table._decoders == fresh._decoders
                        assert back.table.rows == fresh.rows
                        assert pack_snapshot_bytes(back.frozen_view(),
                                                   back.table) == blob


@pytest.mark.usefixtures("maintained")
class TestBornAsColumns:
    """A piece is born as its columns: a dict tree exists only on a live
    piece, from its first maintained write on, and no sealed piece keeps
    one."""

    def test_no_sealed_piece_holds_a_dict_tree(self, thaws):
        rng = random.Random(0)
        records = [gen_record(rng) for _ in range(40)]
        with SegmentedWarehouse.from_records(
                records[:30], SCHEMA, AGG, seal_rows=8,
                compact_min_segments=1) as seg:

            def settled():
                """A read brings every view current; then only the head
                may hold a dict tree."""
                seg.point(records[0][:3])
                assert all(p._tree is None for p in seg.pieces()[:-1])

            settled()  # the bootstrap table sealed at once
            assert thaws == []
            seg.insert(records[30:34])  # a write thaws the head
            assert len(thaws) == 1 and seg.pieces()[-1]._tree is not None
            settled()
            seg.seal()
            settled()
            seg.insert(records[34:36])
            seg.delete([records[0]])  # rewrites the first sealed piece
            settled()
            assert seg.compact_once()
            settled()
            assert len(thaws) == 2  # each head's first write
            # fsck compares what a sealed piece serves with a rebuild,
            # as it is: no thaw.
            assert seg.verify().ok
            settled()
            assert len(thaws) == 2

    @pytest.mark.parametrize("segmented", [False, True])
    def test_a_recovered_store_reads_without_thawing(self, segmented,
                                                     tmp_path, thaws):
        rng = random.Random(1)
        records = [gen_record(rng) for _ in range(24)]
        store = (SegmentedWarehouse.from_records(records, SCHEMA, AGG,
                                                 seal_rows=10)
                 if segmented else
                 QCWarehouse.from_records(records, SCHEMA, AGG))
        with store:
            store.checkpoint(tmp_path / "ckpt")
        options = {"seal_rows": 10} if segmented else {}
        cls = SegmentedWarehouse if segmented else QCWarehouse
        with cls.recover(tmp_path / "ckpt", tmp_path / "wal", SCHEMA,
                         **options) as wh:
            cell = records[0][:3]
            del thaws[:]
            assert wh.point(cell) == store.point(cell)
            assert wh.range(("*",) + cell[1:]) == \
                store.range(("*",) + cell[1:])
            assert wh.iceberg(1.0) == store.iceberg(1.0)
            assert wh.stats()["n_rows"] == 24
            for piece in wh.pieces():
                piece.frozen_view().dump(piece.table.decode_value)
            assert thaws == []
            wh.insert([records[1]])
            wh.insert([records[2]])
            assert len(thaws) == 1
            fresh = QCWarehouse.from_records(records + records[1:3], SCHEMA,
                                             AGG)
            assert wh.point(cell) == fresh.point(cell)
