"""Persistence of a store: its checkpointed tables round-trip, and a
damaged checkpoint fails loudly.

A checkpoint holds each piece's base table and no tree; ``recover``
builds the tree again from the table (Theorem 2).  So a round trip must
give the tree of the same rows, and every way the manifest or a table
can be damaged must raise :class:`RecoveryError` (or, for an aggregate
spec the registry does not know, :class:`SchemaError`) rather than
answer from what survived.
"""

import json
import os
import random
import zlib

import pytest

from repro.core.construct import build_qctree
from repro.core.manifest import load_manifest, manifest_schema
from repro.core.piece import Piece
from repro.core.warehouse import QCWarehouse
from repro.cube.table import BaseTable
from repro.errors import RecoveryError, SchemaError
from tests.conftest import all_cells, make_random_table, write_csv


def checkpointed(tmp_path, table, aggregate, name="ckpt"):
    """``(store, directory)``: a store over ``table`` checkpointed."""
    store = QCWarehouse(table, aggregate)
    directory = tmp_path / name
    store.checkpoint(directory)
    return store, directory


def recover(directory, schema):
    return QCWarehouse.recover(directory, directory / "wal.log", schema)


def same_rows(table):
    """``table`` as its CSV holds it: the rows' labels only, none of the
    unused codes ``from_encoded`` reserves."""
    return BaseTable.from_records(table.iter_records(), table.schema)


def rewrite_manifest(directory, edit):
    """Apply ``edit`` to the manifest payload and re-sign it."""
    path = directory / "MANIFEST.json"
    payload = json.loads(path.read_text())["manifest"]
    edit(payload)
    body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    crc = zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF
    path.write_text(json.dumps({"crc32": f"{crc:08x}", "manifest": payload}))


def head_table(directory):
    return directory / load_manifest(directory)["head"]["table"]


def unchecked(directory):
    """Rewrite the head as the CSV table the layout before checksums
    wrote, and drop its entry's ``crc32``: what the CSV reader and the
    row count catch alone."""
    schema = manifest_schema(load_manifest(directory), directory)
    write_csv(recover(directory, schema).table, head_table(directory))
    rewrite_manifest(directory, lambda payload: payload["head"].pop("crc32"))


class TestRoundTrip:
    @pytest.mark.parametrize("seed", range(10))
    def test_structure_preserved(self, seed, tmp_path):
        table = make_random_table(seed)
        _, directory = checkpointed(tmp_path, table, ("sum", "m"))
        clone = recover(directory, table.schema).tree
        tree = build_qctree(same_rows(table), ("sum", "m"))
        assert clone.signature() == tree.signature()
        assert clone.equivalent_to(tree)

    @pytest.mark.parametrize("seed", range(5))
    def test_queries_survive_roundtrip(self, seed, tmp_path):
        table = make_random_table(seed)
        store, directory = checkpointed(tmp_path, table, ("sum", "m"))
        clone = recover(directory, table.schema)
        for cell in all_cells(table):
            raw = table.decode_cell(cell)
            assert store.point(raw) == clone.point(raw), raw

    def test_metadata_preserved(self, sales_table, tmp_path):
        _, directory = checkpointed(tmp_path, sales_table, ("avg", "Sale"))
        clone = recover(directory, sales_table.schema).tree
        assert clone.n_dims == 3
        assert clone.dim_names == ("Store", "Product", "Season")
        assert clone.aggregate.name == "avg(Sale)"

    def test_multi_aggregate_roundtrip(self, sales_table, tmp_path):
        store, directory = checkpointed(tmp_path, sales_table,
                                        [("sum", "Sale"), "count"])
        assert load_manifest(directory)["aggregate"] == ["sum(Sale)", "count"]
        clone = recover(directory, sales_table.schema).tree
        assert clone.equivalent_to(store.tree)
        assert clone.aggregate.name == store.tree.aggregate.name

    def test_file_roundtrip(self, sales_table, tmp_path):
        piece = Piece.build(sales_table, ("avg", "Sale"))
        path = tmp_path / "table.csv"
        crc = piece.save(path)
        loaded = Piece.load(path, sales_table.schema, ("avg", "Sale"),
                            crc32=crc)
        assert loaded.tree.equivalent_to(piece.tree)

    def test_empty_tree_roundtrip(self, tmp_path):
        table = make_random_table(0, n_rows=1).without_rows([0])
        _, directory = checkpointed(tmp_path, table, "count")
        clone = recover(directory, table.schema).tree
        assert clone.n_classes == 0 and clone.n_nodes == 1

    def test_pruned_slots_compacted(self, sales_table, tmp_path):
        store = QCWarehouse(sales_table, ("avg", "Sale"))
        store.insert([("S3", "P3", "w", 1.0)])
        store.delete([("S3", "P3", "w", 0.0)])
        store.checkpoint(tmp_path / "ckpt")
        clone = recover(tmp_path / "ckpt", sales_table.schema)
        assert clone.tree.equivalent_to(store.tree)
        assert len(clone.tree.node_dim) == clone.tree.n_nodes  # no free slot
        assert clone.table.cardinalities() == (2, 2, 2)  # no S3, P3 or w


class TestFailureInjection:
    @pytest.fixture
    def directory(self, tmp_path, sales_table):
        return checkpointed(tmp_path, sales_table, ("avg", "Sale"))[1]

    def test_bad_magic(self, directory, sales_schema):
        rewrite_manifest(directory,
                         lambda payload: payload.update(format="NOTATREE"))
        with pytest.raises(RecoveryError, match="unknown format"):
            recover(directory, sales_schema)

    def test_truncated_payload(self, directory, sales_schema):
        table = head_table(directory)
        data = table.read_bytes()
        table.write_bytes(data[:len(data) // 2])
        with pytest.raises(RecoveryError, match="checksum mismatch"):
            recover(directory, sales_schema)

    def test_malformed_json(self, directory, sales_schema):
        (directory / "MANIFEST.json").write_text("{not json")
        with pytest.raises(RecoveryError, match="unreadable"):
            recover(directory, sales_schema)

    def test_missing_keys(self, directory, sales_schema):
        (directory / "MANIFEST.json").write_text(json.dumps({"n_dims": 2}))
        with pytest.raises(RecoveryError, match="malformed"):
            recover(directory, sales_schema)

    def test_empty_node_table(self, directory, sales_schema):
        """An empty table file (not even a header)."""
        unchecked(directory)
        head_table(directory).write_text("")
        with pytest.raises(RecoveryError, match="header"):
            recover(directory, sales_schema)

    def test_first_node_not_root(self, directory, sales_schema):
        """A table whose first line is a record, not the header."""
        unchecked(directory)
        table = head_table(directory)
        table.write_text("\n".join(table.read_text().splitlines()[1:]))
        with pytest.raises(RecoveryError, match="header"):
            recover(directory, sales_schema)

    def test_dangling_parent(self, directory, sales_schema):
        """A table holding fewer rows than its manifest entry names."""
        unchecked(directory)
        table = head_table(directory)
        table.write_text("\n".join(table.read_text().splitlines()[:-1]))
        with pytest.raises(RecoveryError, match="rows"):
            recover(directory, sales_schema)

    def test_dangling_link(self, directory, sales_schema):
        """A record one field short."""
        unchecked(directory)
        table = head_table(directory)
        table.write_text(table.read_text() + "S9,P9,9.0\n")
        with pytest.raises(RecoveryError, match="fields"):
            recover(directory, sales_schema)

    def test_unknown_aggregate_spec(self, directory, sales_schema):
        rewrite_manifest(directory,
                         lambda payload: payload.update(aggregate="median(x)"))
        with pytest.raises(SchemaError, match="median"):
            recover(directory, sales_schema)


class TestFuzzing:
    """Random corruption of a table must raise RecoveryError, never
    answer from the damaged rows."""

    @pytest.mark.parametrize("seed", range(20))
    def test_random_byte_flips(self, sales_table, tmp_path, seed):
        rng = random.Random(seed)
        store, directory = checkpointed(tmp_path, sales_table,
                                        ("avg", "Sale"))
        table = head_table(directory)
        data = table.read_bytes()
        chars = bytearray(data)
        for _ in range(rng.randint(1, 6)):
            chars[rng.randrange(len(chars))] = ord(rng.choice('",:019acSP*'))
        table.write_bytes(bytes(chars))
        if bytes(chars) == data:  # every flip rewrote the same byte
            clone = recover(directory, sales_table.schema)
            assert clone.tree.equivalent_to(store.tree)
            return
        with pytest.raises(RecoveryError, match=os.path.basename(table)):
            recover(directory, sales_table.schema)
