"""The table file of a checkpoint: the CRC32 and row count its manifest
entry records, atomic writes, :meth:`Piece.load`'s error contract, and
directories written by the layouts that stored a tree next to each
table (the pinned ``QCTREE/1`` document below is such a tree)."""

import json
import os
import random
import struct
import zlib

import pytest

from repro.core.construct import build_qctree
from repro.core.manifest import load_manifest
from repro.core.piece import MAGIC, Piece, piece_bytes
from repro.core.point_query import point_query
from repro.cube.schema import Schema
from repro.cube.table import BaseTable
from repro.errors import RecoveryError
from tests.conftest import all_cells, make_random_table, write_csv
from tests.faults import InjectedCrash, count_io, crash_on_io
from tests.test_serialize import (
    checkpointed,
    head_table,
    recover,
    rewrite_manifest,
    same_rows,
)

# The exact QCTREE/1 bytes the pre-checksum code wrote for the paper's
# Figure 1 table under avg(Sale): a tree file a directory of that era
# holds next to its table.
V1_FIXTURE = (
    'QCTREE/1\n{"n_dims": 3, "dim_names": ["Store", "Product", "Season"], '
    '"aggregate": "avg(Sale)", "nodes": [[-1, null, -1, [27.0, 3]], '
    '[0, 0, 0, null], [1, 0, 1, null], [2, 1, 2, [6.0, 1]], '
    '[1, 1, 1, null], [2, 1, 4, [12.0, 1]], [2, 1, 1, [18.0, 2]], '
    '[0, 1, 0, null], [1, 0, 7, null], [2, 0, 8, [9.0, 1]], '
    '[1, 0, 0, [15.0, 2]]], "links": [[0, 2, 1, 6], [0, 2, 0, 9], '
    '[0, 1, 1, 4], [10, 2, 1, 3], [10, 2, 0, 9]]}'
)


def v1_directory(path, sales_table):
    """A checkpoint directory whose head tree is the pinned QCTREE/1
    file: the entry names it, and no entry carries a ``crc32``."""
    path.mkdir()
    (path / "head-00000001.qct").write_text(V1_FIXTURE)
    lines = ["Store,Product,Season,Sale"]
    lines += [",".join(map(str, r)) for r in sales_table.iter_records()]
    (path / "head-00000001.csv").write_text("\n".join(lines) + "\n")
    payload = {
        "format": "QCSEGSET/1", "lsn": 0, "generation": 0,
        "aggregate": "avg(Sale)",
        "schema": {"dimensions": ["Store", "Product", "Season"],
                   "measures": ["Sale"]},
        "next_segment_id": 1, "segments": [],
        "head": {"rows": 3, "tree": "head-00000001.qct",
                 "table": "head-00000001.csv", "seq": 1},
    }
    body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    crc = zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF
    (path / "MANIFEST.json").write_text(
        json.dumps({"crc32": f"{crc:08x}", "manifest": payload}))
    return path


def resign_head(directory, data):
    """Write ``data`` as the head table and re-sign its entry, as a
    writer that produced those bytes would have."""
    head_table(directory).write_bytes(data)
    rewrite_manifest(directory, lambda payload: payload["head"].update(
        crc32=f"{zlib.crc32(data):08x}"))


class TestFormatV2:
    @pytest.fixture
    def directory(self, tmp_path, sales_table):
        return checkpointed(tmp_path, sales_table, ("avg", "Sale"))[1]

    def test_header_carries_crc_and_counts(self, directory, sales_table):
        entry = load_manifest(directory)["head"]
        data = (directory / entry["table"]).read_bytes()
        assert entry["crc32"] == f"{zlib.crc32(data):08x}"
        assert entry["rows"] == sales_table.n_rows
        assert "tree" not in entry

    def test_single_character_corruption_detected(self, directory,
                                                  sales_schema):
        table = head_table(directory)
        data = table.read_bytes()
        # Rewrite one measure: 9.0 -> 8.0, a silent corruption.
        mutated = data.replace(struct.pack("<d", 9.0), struct.pack("<d", 8.0))
        assert mutated != data and len(mutated) == len(data)
        table.write_bytes(mutated)
        with pytest.raises(RecoveryError, match="checksum mismatch") as info:
            recover(directory, sales_schema)
        # The message names the file.
        assert str(table) in str(info.value)

    def test_truncation_detected(self, directory, sales_schema):
        table = head_table(directory)
        data = table.read_bytes()
        for cut in (len(data) // 2, len(data) - 1):
            table.write_bytes(data[:cut])
            with pytest.raises(RecoveryError):
                recover(directory, sales_schema)

    def test_missing_payload_reports_offset(self, directory, sales_schema):
        """Only the header line survived: the file is named."""
        table = head_table(directory)
        table.write_bytes(table.read_bytes().split(b"\n")[0] + b"\n")
        with pytest.raises(RecoveryError, match=table.name):
            recover(directory, sales_schema)

    def test_count_mismatch_detected(self, directory, sales_schema):
        rewrite_manifest(directory,
                         lambda payload: payload["head"].update(rows=9))
        with pytest.raises(RecoveryError, match="rows"):
            recover(directory, sales_schema)

    def test_malformed_header_rejected(self, directory, sales_schema):
        data = head_table(directory).read_bytes()
        resign_head(directory, data.replace(b"Season", b"Saison", 1))
        with pytest.raises(RecoveryError, match="header"):
            recover(directory, sales_schema)

    def test_consistent_resigned_corruption_caught_by_loader(
            self, directory, sales_table, sales_schema):
        # A forged checksum over a broken table must still fail (a CSV
        # table of an earlier layout, whose measures are text).
        write_csv(sales_table, head_table(directory))
        data = head_table(directory).read_bytes()
        resign_head(directory, data.replace(b"9.0", b"x.0"))
        with pytest.raises(RecoveryError, match="non-numeric"):
            recover(directory, sales_schema)


class TestLoadFromPathContract:
    """Piece.load must raise RecoveryError naming the path — never leak
    a csv, Unicode or schema error."""

    def load(self, path, sales_schema, crc32=None):
        return Piece.load(path, sales_schema, ("avg", "Sale"), crc32=crc32)

    def test_empty_file(self, tmp_path, sales_schema):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(RecoveryError, match="empty.csv"):
            self.load(path, sales_schema)

    def test_truncated_file(self, tmp_path, sales_table, sales_schema):
        path = tmp_path / "torn.csv"
        crc = write_csv(sales_table, path)
        path.write_bytes(path.read_bytes()[:20])
        with pytest.raises(RecoveryError, match="torn.csv"):
            self.load(path, sales_schema, crc32=crc)

    def test_non_json_file(self, tmp_path, sales_schema):
        path = tmp_path / "notcsv.csv"
        path.write_text("this is not a table\n")
        with pytest.raises(RecoveryError, match="notcsv.csv"):
            self.load(path, sales_schema)

    def test_binary_garbage(self, tmp_path, sales_schema):
        path = tmp_path / "binary.csv"
        path.write_bytes(b"\x00\xff\xfe\x01QCTREE\x80\x81")
        with pytest.raises(RecoveryError, match="binary.csv"):
            self.load(path, sales_schema)

    def test_missing_keys_named_path(self, tmp_path, sales_schema):
        path = tmp_path / "keys.csv"
        path.write_text("Store,Product,Sale\nS1,P1,6.0\n")
        with pytest.raises(RecoveryError, match="keys.csv"):
            self.load(path, sales_schema)

    def test_missing_file_is_oserror(self, tmp_path, sales_schema):
        with pytest.raises(OSError):
            self.load(tmp_path / "nope.csv", sales_schema)


def forge(table, edit=None, body=None) -> bytes:
    """A piece file of ``table`` with its header changed by ``edit`` (and
    padded again) or its body replaced by ``body``."""
    data = piece_bytes(table)
    end = data.index(b"\n", len(MAGIC))
    header = json.loads(data[len(MAGIC):end])
    if edit is not None:
        edit(header)
    head = MAGIC + json.dumps(header).encode("ascii")
    return (head + b" " * (-(len(head) + 1) % 8) + b"\n"
            + (data[end + 1:] if body is None else body))


class TestPieceFileContract:
    """Every way a piece file can be damaged raises
    :class:`RecoveryError` naming the file, here with no manifest
    checksum to catch it first."""

    def load(self, tmp_path, data, sales_schema, types=("str",) * 3):
        path = tmp_path / "bad.piece"
        path.write_bytes(data)
        with pytest.raises(RecoveryError, match="bad.piece") as info:
            Piece.load(path, sales_schema, ("avg", "Sale"),
                       label_types=types)
        return str(info.value)

    def test_forge_without_edits_loads(self, tmp_path, sales_table):
        path = tmp_path / "good.piece"
        path.write_bytes(forge(sales_table))
        loaded = Piece.load(path, sales_table.schema, ("avg", "Sale"),
                            label_types=("str",) * 3)
        assert list(loaded.table.iter_records()) == \
            list(sales_table.iter_records())

    def test_empty_file(self, tmp_path, sales_schema):
        self.load(tmp_path, b"", sales_schema)

    def test_magic_line_alone(self, tmp_path, sales_schema):
        assert "no end" in self.load(tmp_path, MAGIC, sales_schema)

    def test_truncated_body(self, tmp_path, sales_table, sales_schema):
        def more_rows(header):
            header["rows"] += 1
        message = self.load(tmp_path, forge(sales_table, more_rows),
                            sales_schema)
        assert "promises 4 rows" in message
        data = forge(sales_table)
        assert "promises 3 rows" in self.load(tmp_path, data[:-1],
                                              sales_schema)

    def test_header_not_json(self, tmp_path, sales_schema):
        self.load(tmp_path, MAGIC + b"{not json}\n" + bytes(16),
                  sales_schema)

    def test_another_schemas_names(self, tmp_path, sales_table,
                                   sales_schema):
        def rename(header):
            header["dimensions"] = ["Shop", "Product", "Season"]
        assert "header names" in self.load(
            tmp_path, forge(sales_table, rename), sales_schema)

    def test_a_code_past_its_dictionary(self, tmp_path, sales_table,
                                        sales_schema):
        def drop_a_label(header):
            header["labels"][0].pop()
        assert "past its 1 labels" in self.load(
            tmp_path, forge(sales_table, drop_a_label), sales_schema)

    def test_a_label_not_of_the_manifests_type(self, tmp_path, sales_table,
                                               sales_schema):
        assert "not of type int" in self.load(
            tmp_path, forge(sales_table), sales_schema,
            types=("int", "str", "str"))

        def null_label(header):
            header["labels"][2][0] = None
        self.load(tmp_path, forge(sales_table, null_label), sales_schema,
                  types=None)


class TestV1BackwardCompatibility:
    """A directory whose head tree is a QCTREE/1 file opens: the tree is
    ignored and built again from the table beside it."""

    def test_pinned_v1_fixture_loads(self, tmp_path, sales_table):
        store = recover(v1_directory(tmp_path / "v1", sales_table),
                        sales_table.schema)
        tree = store.tree
        assert tree.dim_names == ("Store", "Product", "Season")
        assert tree.aggregate.name == "avg(Sale)"
        fresh = build_qctree(sales_table, ("avg", "Sale"))
        assert tree.equivalent_to(fresh)

    def test_pinned_v1_fixture_answers_queries(self, tmp_path, sales_table):
        tree = recover(v1_directory(tmp_path / "v1", sales_table),
                       sales_table.schema).tree
        fresh = build_qctree(sales_table, ("avg", "Sale"))
        for cell in all_cells(sales_table):
            assert point_query(tree, cell) == point_query(fresh, cell)

    def test_v1_file_loads_from_disk(self, tmp_path, sales_table):
        directory = v1_directory(tmp_path / "v1", sales_table)
        store = recover(directory, sales_table.schema)
        assert store.tree.n_classes == 6
        assert store.last_recovery["orphans"] == ["head-00000001.qct"]

    def test_resaving_v1_produces_v2(self, tmp_path, sales_table):
        """The next checkpoint writes the current layout: the tree file
        goes, the entry gains its table's checksum."""
        directory = v1_directory(tmp_path / "v1", sales_table)
        store = recover(directory, sales_table.schema)
        store.checkpoint(directory)
        assert sorted(os.listdir(directory)) == [
            "MANIFEST.json", "head-00000002.piece", "wal.log"]
        assert "crc32" in load_manifest(directory)["head"]
        assert recover(directory, sales_table.schema).tree.equivalent_to(
            store.tree)


class TestAtomicSave:
    def test_successful_save_is_loadable(self, tmp_path, sales_table):
        piece = Piece.build(sales_table, ("avg", "Sale"))
        path = tmp_path / "table.csv"
        crc = piece.save(path)
        loaded = Piece.load(path, sales_table.schema, ("avg", "Sale"),
                            crc32=crc)
        assert loaded.tree.equivalent_to(piece.tree)
        leftovers = [p for p in os.listdir(tmp_path) if ".tmp." in p]
        assert leftovers == []

    def test_crash_at_every_io_step_preserves_old_snapshot(
            self, tmp_path, sales_table):
        old = Piece.build(sales_table, "count")
        path = str(tmp_path / "table.csv")
        old_crc = old.save(path)
        old_bytes = open(path, "rb").read()
        new = old.derive(inserts=[("S3", "P3", "w", 5.0)])

        total_ops = count_io(lambda: new.save(path))
        assert total_ops >= 4  # open, write, flush/fsync, close, replace
        new_crc = new.save(path)
        for fail_after in range(total_ops):
            # Reset to the old table before each injected crash.
            with open(path, "wb") as fp:
                fp.write(old_bytes)
            with crash_on_io(fail_after) as clock:
                with pytest.raises(InjectedCrash):
                    new.save(path)
            on_disk = open(path, "rb").read()
            committed = any(
                label.startswith("replace:") for label in clock.trace
            )
            if committed:
                loaded = Piece.load(path, sales_table.schema, "count",
                                    crc32=new_crc)
                assert loaded.tree.equivalent_to(
                    build_qctree(same_rows(new.table), "count"))
            else:
                assert on_disk == old_bytes
                loaded = Piece.load(path, sales_table.schema, "count",
                                    crc32=old_crc)
                assert loaded.tree.equivalent_to(old.tree)

    def test_crash_on_first_save_leaves_no_file(self, tmp_path, sales_table):
        piece = Piece.build(sales_table, "count")
        path = str(tmp_path / "fresh.csv")
        with crash_on_io(1):
            with pytest.raises(InjectedCrash):
                piece.save(path)
        assert not os.path.exists(path)


AGGREGATE_SPECS = [
    "count",
    ("sum", "m"),
    ("min", "m"),
    ("max", "m"),
    ("avg", "m"),
    [("sum", "m"), "count"],
    [("avg", "m"), ("max", "m"), "count"],
]


class TestRoundTripProperty:
    """Checkpoint round trips over random tables: random dimensionality,
    cardinality, row counts, and every registry aggregate shape."""

    @pytest.mark.parametrize("seed", range(30))
    def test_random_tree_roundtrip(self, seed, tmp_path):
        rng = random.Random(seed * 7919)
        table = make_random_table(
            seed,
            n_dims=rng.randint(1, 5),
            cardinality=rng.randint(1, 6),
            n_rows=rng.randint(1, 25),
        )
        spec = rng.choice(AGGREGATE_SPECS)
        tree = build_qctree(same_rows(table), spec)
        _, directory = checkpointed(tmp_path, table, spec)
        clone = recover(directory, table.schema).tree
        assert clone.signature() == tree.signature()
        assert clone.aggregate.name == tree.aggregate.name
        assert clone.dim_names == tree.dim_names

    @pytest.mark.parametrize("seed", range(10))
    def test_random_tree_queries_survive(self, seed, tmp_path):
        rng = random.Random(seed + 424242)
        table = make_random_table(seed, n_dims=rng.randint(1, 3),
                                  cardinality=rng.randint(1, 4),
                                  n_rows=rng.randint(1, 15))
        spec = rng.choice(AGGREGATE_SPECS)
        store, directory = checkpointed(tmp_path, table, spec)
        clone = recover(directory, table.schema)
        for cell in all_cells(table):
            raw = table.decode_cell(cell)
            assert store.point(raw) == clone.point(raw), raw

    def test_string_labels_roundtrip(self, tmp_path):
        schema = Schema(dimensions=("City", "Kind"), measures=("v",))
        table = BaseTable.from_records(
            [("Oslo", "a", 1.0), ("Bergen", "b", 2.0), ("Oslo", "b", 3.0)],
            schema,
        )
        store, directory = checkpointed(tmp_path, table, ("sum", "v"))
        clone = recover(directory, schema)
        assert clone.tree.equivalent_to(store.tree)
        assert clone.table._decoders == [["Bergen", "Oslo"], ["a", "b"]]
