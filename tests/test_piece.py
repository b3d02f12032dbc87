"""The ``(dict tree, table)`` lifecycle, tested on the piece itself.

Both warehouses, every sealed segment and the CLI hold their data as
:class:`~repro.core.piece.Piece` objects, so the refreeze decision, the
cover-index lifecycle, derive and the on-disk twin are pinned here once
— against the random mutation programs of the maintenance oracle —
instead of per store.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.construct import build_qctree
from repro.core.maintenance import maintain_batch
from repro.core.piece import Piece
from repro.core.qctree import QCTree
from repro.core.serialize import save_qctree
from repro.core.warehouse import QCWarehouse
from repro.cube.table import BaseTable
from repro.errors import MaintenanceError
from tests.conftest import refreeze_ratios
from tests.model import SCHEMA, make_program, record

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
        """Nothing accumulates until a view exists to patch."""
        table, batches, _ = make_program(3, 2)
        piece = Piece.build(table, AGG)
        for inserts, deletes in batches:
            piece.apply(inserts, deletes)
        assert piece.pending_delta is None
        assert piece.frozen_view().patch_stats["mode"] == "fresh"

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


class TestPreview:
    @settings(max_examples=25)
    @given(seed=st.integers(0, 10_000), ready=st.booleans())
    def test_reads_the_batch_and_keeps_nothing(self, seed, ready):
        table, batches, _ = make_program(seed, 2, n_rows=6)
        piece = Piece.build(table, AGG)
        piece.apply(*batches[0])
        if ready:
            piece.frozen_view()
        state, index = _state(piece), piece.live_cover_index
        before, after = piece.preview(*batches[1])
        assert _state(piece) == state and piece.live_cover_index is index
        assert before == {
            piece.table.decode_cell(ub): value
            for ub, value in piece.tree.class_upper_bounds().items()
        }
        piece.apply(*batches[1])
        assert after == piece.preview()[0]
        _assert_view_current(piece)


class TestOneTreeCopy:
    def test_only_derive_copies_the_tree(self, monkeypatch):
        """A write costs its delta: no path copies the tree but
        ``derive``, whose contract is a second tree — once."""
        copies = []
        copy = QCTree.copy
        monkeypatch.setattr(
            QCTree, "copy", lambda tree: copies.append(tree) or copy(tree))
        table, batches, _ = make_program(5, 3, n_rows=8)
        piece = Piece.build(table, AGG)
        piece.frozen_view()
        piece.apply(*batches[0])
        maintain_batch(build_qctree(table, AGG), table, *batches[0])
        wh = QCWarehouse(table, AGG)
        wh.what_if(insertions=batches[0][0], deletions=batches[0][1])
        with pytest.raises(MaintenanceError):
            piece.apply(deletes=[record((99, 99, 99))])
        assert copies == []
        piece.derive(*batches[1])
        assert len(copies) == 1


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
        assert child.segment_id == 7 and child.frozen_ready == ready
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
        tree_path, table_path = tmp_path / "p.qct", tmp_path / "p.csv"
        piece.save(tree_path, table_path, meta={"wal_lsn": 5})
        loaded, lsn, rebuilt = Piece.load(tree_path, table_path, SCHEMA, AGG)
        assert (lsn, rebuilt) == (5, False)
        assert loaded.tree.signature() == piece.tree.signature()
        assert loaded.table.rows == piece.table.rows
        assert loaded.table._decoders == piece.table._decoders

    def _assert_rebuilt(self, piece, tmp_path):
        loaded, lsn, rebuilt = Piece.load(
            tmp_path / "p.qct", tmp_path / "p.csv", SCHEMA, AGG)
        assert rebuilt
        assert sorted(loaded.table.iter_records()) == \
            sorted(piece.table.iter_records())
        assert loaded.tree.equivalent_to(build_qctree(loaded.table, AGG))
        return lsn

    def test_table_stamped_ahead_of_tree_rebuilds(self, tmp_path):
        piece = self._piece()
        piece.save(tmp_path / "p.qct", tmp_path / "p.csv",
                   meta={"wal_lsn": 3})
        piece.apply([("v0", "v0", "v0", 1.0)])
        piece.table.to_csv(tmp_path / "p.csv", comment="wal_lsn=4")
        assert self._assert_rebuilt(piece, tmp_path) == 4

    def test_file_without_label_dictionaries_rebuilds(self, tmp_path):
        piece = self._piece()
        piece.table.to_csv(tmp_path / "p.csv")
        save_qctree(piece.tree, tmp_path / "p.qct")
        self._assert_rebuilt(piece, tmp_path)

    def test_corrupt_tree_rebuilds(self, tmp_path):
        piece = self._piece()
        piece.save(tmp_path / "p.qct", tmp_path / "p.csv")
        (tmp_path / "p.qct").write_text("garbage")
        self._assert_rebuilt(piece, tmp_path)

    def test_missing_tree_rebuilds(self, tmp_path):
        piece = self._piece()
        piece.table.to_csv(tmp_path / "p.csv")
        self._assert_rebuilt(piece, tmp_path)

    def test_sealed_piece_skips_only_its_own_files(self, tmp_path):
        piece = self._piece()
        tree_path, table_path = tmp_path / "p.qct", tmp_path / "p.csv"
        tree_path.write_text("someone else's")
        table_path.write_text("someone else's")
        piece.seal(1)
        piece.save(tree_path, table_path)  # overwrites the strangers
        written = tree_path.read_bytes(), table_path.read_bytes()
        tree_path.write_text("marker")
        piece.save(tree_path, table_path)  # its own: skipped
        assert tree_path.read_text() == "marker"
        tree_path.unlink()
        piece.save(tree_path, table_path)  # ... unless it is gone
        assert tree_path.read_bytes() == written[0]
        piece.save(tmp_path / "q.qct", tmp_path / "q.csv")  # elsewhere
        assert (tmp_path / "q.qct").read_bytes() == written[0]
        loaded, _, _ = Piece.load(tmp_path / "q.qct", tmp_path / "q.csv",
                                  SCHEMA, AGG)
        loaded.seal(1)
        (tmp_path / "q.qct").write_text("marker")
        loaded.save(tmp_path / "q.qct", tmp_path / "q.csv")  # loaded from
        assert (tmp_path / "q.qct").read_text() == "marker"
