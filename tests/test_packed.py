"""QCTREE/3 packed-snapshot codec: zero-copy attach ≡ frozen tree.

The contract under test: ``pack_snapshot_bytes`` of a frozen serving
snapshot, attached via ``attach_packed`` from bytes, shared memory or an
mmap'd file, answers every traversal-protocol and fast-path question
identically to the :class:`FrozenQCTree` it was packed from — and the
blob's own table rebuilds the mutable tree (Theorem 2).
"""

from __future__ import annotations

import mmap
from itertools import product
from multiprocessing import shared_memory

import pytest

from repro.core.cells import ALL
from repro.core.construct import build_qctree
from repro.core.frozen import FrozenQCTree
from repro.core.point_query import point_query, point_query_raw
from repro.core.qctree import QCTree
from repro.core.warehouse import QCWarehouse
from repro.errors import QueryError, SerializationError
from repro.shard.pack import attach_packed, pack_snapshot_bytes
from repro.shard.worker import _BATCH_MIN, _answer_chunk

from .conftest import all_cells, approx_equal, dict_view, make_random_table


@pytest.fixture
def snapshot(sales_table):
    return QCWarehouse(sales_table, aggregate="avg(Sale)").snapshot_view()


@pytest.fixture
def attached(snapshot):
    payload = pack_snapshot_bytes(
        snapshot.tree, snapshot.table, stamp=(3, 7)
    )
    att = attach_packed(payload)
    yield att
    att.release()


def assert_trees_equivalent(packed, frozen, table):
    """Full query-surface parity between a packed and a frozen tree."""
    assert packed.signature() == frozen.signature()
    for cell in all_cells(table):
        assert approx_equal(
            point_query(packed, cell), point_query(frozen, cell)
        ), cell


class TestPackAttachParity:
    def test_attached_is_packed_tree(self, attached):
        assert type(attached.tree) is FrozenQCTree
        assert attached.stamp == (3, 7)
        assert attached.nbytes > 0

    def test_point_parity_every_cell(self, attached, snapshot):
        assert_trees_equivalent(
            attached.tree, snapshot.tree, snapshot.table
        )

    def test_structural_stats_match(self, attached, snapshot):
        packed, frozen = attached.tree.stats(), snapshot.tree.stats()
        for key in ("nodes", "links", "classes"):
            assert packed[key] == frozen[key]

    def test_traversal_protocol_matches(self, attached, snapshot):
        packed, frozen = attached.tree, snapshot.tree
        assert sorted(packed.iter_nodes()) == sorted(
            range(len(list(frozen.iter_nodes())))
        )
        assert len(list(packed.iter_links())) == len(
            list(frozen.iter_links())
        )
        assert len(list(packed.iter_class_nodes())) == len(
            list(frozen.iter_class_nodes())
        )

    def test_upper_bounds_match(self, attached, snapshot):
        packed, frozen = attached.tree, snapshot.tree
        packed_ubs = sorted(
            (packed.upper_bound_of(n) for n in packed.iter_class_nodes()),
            key=repr,
        )
        frozen_ubs = sorted(
            (frozen.upper_bound_of(n) for n in frozen.iter_class_nodes()),
            key=repr,
        )
        assert packed_ubs == frozen_ubs

    def test_table_round_trips(self, attached, snapshot):
        table = attached.table
        assert table.n_rows == snapshot.table.n_rows
        assert list(table.rows) == list(snapshot.table.rows)
        assert table.decode_value(0, 0) == snapshot.table.decode_value(0, 0)
        for i in range(table.n_rows):
            assert approx_equal(
                tuple(table.measures[i]), tuple(snapshot.table.measures[i])
            )

    def test_attached_measures_are_read_only(self, attached):
        with pytest.raises(ValueError):
            attached.table.measures[0, 0] = 99.0

    @pytest.mark.parametrize("seed", [1, 7, 23, 61])
    def test_random_tables_parity(self, seed):
        table = make_random_table(seed, n_rows=30)
        snapshot = QCWarehouse(table, aggregate="sum(m)").snapshot_view()
        payload = pack_snapshot_bytes(snapshot.tree, snapshot.table)
        att = attach_packed(payload)
        try:
            assert_trees_equivalent(att.tree, snapshot.tree, table)
        finally:
            att.release()

    def test_release_drops_buffer_exports(self, snapshot):
        payload = bytearray(
            pack_snapshot_bytes(snapshot.tree, snapshot.table)
        )
        att = attach_packed(payload)
        point_query(att.tree, (ALL,) * snapshot.table.n_dims)
        att.release()
        del att
        # A writable source buffer can only be resized once every
        # exported view is gone — the hygiene property shm close needs.
        payload += b"x"

    def test_release_lets_shared_memory_close(self, snapshot):
        """After release() no export pins the segment — including the
        row slices the lazy decodes took — so the handle closes."""
        payload = pack_snapshot_bytes(snapshot.tree, snapshot.table)
        shm = shared_memory.SharedMemory(create=True, size=len(payload))
        try:
            shm.buf[:len(payload)] = payload
            att = attach_packed(shm.buf)
            assert att.tree.signature() == snapshot.tree.signature()
            assert list(att.tree.state) == list(snapshot.tree.state)
            att.release()
            shm.close()  # BufferError while any export is alive
        finally:
            shm.unlink()

    def test_mutable_rebuild_is_equivalent(self, attached, snapshot):
        """Theorem 2: the blob's table determines the tree."""
        rebuilt = build_qctree(attached.table, attached.tree.aggregate)
        assert rebuilt.equivalent_to(snapshot.tree)


class TestV3Format:
    def test_header_magic(self, snapshot):
        payload = pack_snapshot_bytes(snapshot.tree, snapshot.table)
        assert payload.startswith(b"QCTREE/3 crc32=")

    def test_deterministic_bytes(self, snapshot):
        one = pack_snapshot_bytes(snapshot.tree, snapshot.table)
        two = pack_snapshot_bytes(snapshot.tree, snapshot.table)
        assert one == two

    def test_save_load_frozen_mode(self, snapshot, tmp_path):
        path = tmp_path / "packed.qct3"
        path.write_bytes(pack_snapshot_bytes(snapshot.tree, snapshot.table))
        att = attach_packed(path.read_bytes(), verify=True)
        try:
            assert type(att.tree) is FrozenQCTree
            assert att.tree.signature() == snapshot.tree.signature()
        finally:
            att.release()

    def test_save_load_mutable_mode(self, snapshot, tmp_path):
        """A mutable tree comes back from a blob's table, not its tree."""
        path = tmp_path / "packed.qct3"
        path.write_bytes(pack_snapshot_bytes(snapshot.tree, snapshot.table))
        att = attach_packed(path.read_bytes(), verify=True)
        try:
            tree = build_qctree(att.table, att.tree.aggregate)
        finally:
            att.release()
        assert type(tree) is QCTree
        assert tree.equivalent_to(snapshot.tree)

    def test_attach_packed_file_mmap(self, snapshot, tmp_path):
        path = tmp_path / "packed.qct3"
        path.write_bytes(pack_snapshot_bytes(snapshot.tree, snapshot.table))
        with open(path, "rb") as fp:
            with mmap.mmap(fp.fileno(), 0, access=mmap.ACCESS_READ) as mm:
                att = attach_packed(mm, verify=True)
                try:
                    assert_trees_equivalent(
                        att.tree, snapshot.tree, snapshot.table
                    )
                finally:
                    att.release()

    def test_crc_detects_corruption(self, snapshot):
        blob = bytearray(pack_snapshot_bytes(snapshot.tree, snapshot.table))
        blob[-3] ^= 0xFF  # flip a bit deep in the body
        with pytest.raises(SerializationError, match="checksum"):
            attach_packed(bytes(blob), verify=True)

    def test_truncated_header_rejected(self):
        with pytest.raises(SerializationError):
            attach_packed(b"QCTREE/3 crc32=deadbeef")
        with pytest.raises(SerializationError):
            attach_packed(b"\x00" * 64)

    def test_attach_from_mmap_object(self, snapshot, tmp_path):
        path = tmp_path / "packed.qct3"
        path.write_bytes(pack_snapshot_bytes(snapshot.tree, snapshot.table))
        with open(path, "rb") as fp:
            with mmap.mmap(fp.fileno(), 0, access=mmap.ACCESS_READ) as mm:
                att = attach_packed(mm, verify=True)
                try:
                    cell = (ALL,) * snapshot.table.n_dims
                    assert approx_equal(
                        point_query(att.tree, cell),
                        point_query(snapshot.tree, cell),
                    )
                finally:
                    att.release()


class TestServingSnapshotBridge:
    def test_serving_snapshot_answers(self, attached, snapshot):
        serving = attached.serving_snapshot()
        n = snapshot.table.n_dims
        assert approx_equal(
            serving.point((ALL,) * n), snapshot.point((ALL,) * n)
        )
        assert serving.stamp == (3, 7)

    def test_describe_says_frozen_on_every_array_storage(
            self, attached, snapshot, sales_table):
        """What a shard worker serves (the attached tree) is as frozen
        as the heap view; only the mutable dict tree is not."""
        assert attached.serving_snapshot().describe()["frozen"] is True
        assert snapshot.describe()["frozen"] is True
        mutable = QCWarehouse(sales_table, aggregate="avg(Sale)")
        assert dict_view(mutable).describe()["frozen"] is False

    def test_writes_not_supported_on_packed(self, attached):
        # The packed view is immutable by construction: it has no
        # mutation surface at all.
        assert not hasattr(attached.tree, "insert")
        assert not hasattr(attached.tree, "set_state")


def _attach(table, aggregate="avg(Sale)"):
    snapshot = QCWarehouse(table, aggregate=aggregate).snapshot_view()
    return attach_packed(pack_snapshot_bytes(snapshot.tree, snapshot.table))


def assert_batch_is_scalar(att, cells):
    """The batch kernel answers every cell as ``point_query_raw`` does:
    the same value, of the same type."""
    values = att.tree._point_query_batch(att.table, cells)
    assert len(values) == len(cells)
    for cell, got in zip(cells, values):
        want = point_query_raw(att.tree, att.table, cell)
        assert got == want and type(got) is type(want), cell


class TestBatchKernel:
    """``FrozenQCTree._point_query_batch`` (the shard worker's answer to
    a ``map_query`` point chunk) against the scalar kernel, case by
    case."""

    def test_every_cell_of_random_tables(self):
        for seed in range(12):
            table = make_random_table(seed, n_rows=20)
            att = _attach(table, "sum(m)")
            try:
                labels = [["*"] + list(range(table.cardinality(j)))
                          for j in range(table.n_dims)]
                assert_batch_is_scalar(att, list(product(*labels)))
            finally:
                att.release()

    def test_absent_label(self, attached):
        # (*, P9, *) must not walk as if its code were a real one: a
        # code just below the next dimension's would read (S1, *, *).
        assert_batch_is_scalar(attached, [
            ("*", "P9", "*"), ("S9", "*", "*"), ("*", "*", "w"),
            ("S1", "P9", "s"), ("S1", "*", "*"),
        ])

    def test_three_all_spellings(self, attached):
        cells = [("*", "P1", "*"), (None, "P1", None), (ALL, "P1", ALL),
                 ("S2", None, "f"), (ALL, "*", None)]
        assert_batch_is_scalar(attached, cells)
        values = attached.tree._point_query_batch(attached.table, cells)
        assert values[:3] == [7.5] * 3

    def test_code_past_the_stride_is_absent(self, extended_sales_table):
        """The table keeps ``P3``'s code (2) after its only row goes, but
        the packed tree's stride is 2: that code is no label of the
        tree, not a neighbouring code or the next dimension's."""
        table = extended_sales_table.without_rows([4])
        att = _attach(table)
        try:
            assert att.tree._stride == 2
            assert table.encode_value(1, "P3") == 2
            cells = [("*", "P3", "*"), ("S2", "P3", "*"), ("*", "P3", "f"),
                     ("*", "P2", "*")]
            assert_batch_is_scalar(att, cells)
            values = att.tree._point_query_batch(att.table, cells)
            assert values == [None, None, None, 8.0]
        finally:
            att.release()

    def test_wrong_arity_in_the_middle_of_a_chunk(self, attached):
        """A shard worker's chunk with a wrong-arity call: that call
        fails as ``point_query_raw`` fails it, every other is
        answered."""
        calls = [(("S1", "*", "*"),), (("S2", "*", "f"),)] * _BATCH_MIN
        calls[5:5] = [(("S1", "P1"),)]
        calls[9:9] = [(("S1", "P1", "s", "x"),)]
        values, errors = _answer_chunk(
            attached.serving_snapshot(), "point", calls)
        assert sorted(errors) == [5, 9]
        for i in (5, 9):
            with pytest.raises(QueryError) as want:
                point_query_raw(attached.tree, attached.table, calls[i][0])
            assert str(errors[i]) == str(want.value)
        assert values == [None if i in errors else 9.0
                          for i in range(len(calls))]

    def test_empty_chunk(self, attached):
        assert attached.tree._point_query_batch(attached.table, []) == []

    @pytest.mark.parametrize("aggregate", [
        "count", "avg(Sale)", "sum(Sale)", [("sum", "Sale"), "count"],
    ], ids=["count", "avg", "sum", "sum-and-count"])
    def test_value_types_per_aggregate(self, sales_table, aggregate):
        att = _attach(sales_table, aggregate)
        try:
            labels = [["*"] + sales_table._decoders[j]
                      for j in range(sales_table.n_dims)]
            assert_batch_is_scalar(att, list(product(*labels)))
        finally:
            att.release()

    def test_release_after_a_batch_lets_shared_memory_close(self, snapshot):
        payload = pack_snapshot_bytes(snapshot.tree, snapshot.table)
        shm = shared_memory.SharedMemory(create=True, size=len(payload))
        try:
            shm.buf[:len(payload)] = payload
            att = attach_packed(shm.buf)
            assert att.tree._point_query_batch(
                att.table, [("S2", "*", "f")]) == [9.0]
            att.release()
            shm.close()  # BufferError while any export is alive
        finally:
            shm.unlink()


class TestPackedRowsView:
    def test_slice_negative_and_iter(self, attached):
        rows = attached.table.rows
        assert len(rows) == 3
        assert rows[-1] == rows[2]
        assert list(rows[1:]) == [rows[1], rows[2]]
        assert [r for r in rows] == [rows[0], rows[1], rows[2]]
