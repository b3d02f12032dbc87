"""A checkpoint is its tables.

``checkpoint`` writes each piece's base table as a piece file (label
dictionaries, code matrix, measures) plus a manifest recording every
file's CRC32 and each dimension's label type; ``recover`` checks and
reads the tables and builds every tree again (Theorem 2).  These tests
pin that layout, what a damaged table does to ``recover`` and ``fsck``,
that a directory in an older layout (CSV tables, a ``.qct`` tree next to
each, no checksums) still opens and loses its CSVs and trees at the next
checkpoint, and that labels keep their type across a restart.
"""

import json
import os
import zlib

import numpy as np
import pytest

from repro.__main__ import main
from repro.core.manifest import load_manifest, save_manifest
from repro.core.warehouse import QCWarehouse
from repro.cube.schema import Schema
from repro.data.weather import weather_table
from repro.errors import RecoveryError, SchemaError
from repro.reliability.wal import WriteAheadLog
from repro.segments import SegmentedWarehouse
from tests.conftest import write_csv

SCHEMA = Schema(dimensions=("Store", "Product", "Season"),
                measures=("Sale",))
RECORDS = [("S1", "P1", "s", 6.0), ("S1", "P2", "s", 12.0),
           ("S2", "P1", "f", 9.0), ("S2", "P2", "f", 4.0),
           ("S3", "P1", "w", 1.0)]
CELLS = [("S1", "*", "*"), ("S2", "*", "f"), ("*", "P1", "*"),
         ("*", "*", "*"), ("S3", "P1", "w"), ("S1", "P1", "f")]
YEARS = Schema(dimensions=("Year", "Kind"), measures=("M",))


def _entries(payload):
    return payload["segments"] + [payload["head"]]


def _flip_one_byte(path):
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x01
    path.write_bytes(bytes(data))


@pytest.mark.parametrize("kind", ["monolithic", "segmented"])
def test_checkpoint_holds_only_the_manifest_the_tables_and_the_log(
        tmp_path, kind):
    directory = tmp_path / "store.d"
    if kind == "segmented":
        wh = SegmentedWarehouse.from_records(RECORDS, SCHEMA, ("sum", "Sale"),
                                             seal_rows=2)
    else:
        wh = QCWarehouse.from_records(RECORDS, SCHEMA, ("sum", "Sale"))
    directory.mkdir()
    wh.attach_wal(directory / "wal.log")
    wh.insert([("S4", "P3", "s", 2.0)])
    wh.checkpoint(directory)
    wh.insert([("S4", "P1", "s", 3.0)])
    wh.checkpoint(directory)
    wh.close()

    payload = load_manifest(directory)
    tables = {entry["table"] for entry in _entries(payload)}
    assert sorted(os.listdir(directory)) == sorted(
        {"MANIFEST.json", "wal.log"} | tables)
    assert all(name.endswith(".piece") for name in tables)
    assert bool(payload["segments"]) == (kind == "segmented")
    for entry in _entries(payload):
        assert "tree" not in entry
        data = (directory / entry["table"]).read_bytes()
        assert entry["crc32"] == f"{zlib.crc32(data):08x}"


def test_a_flipped_byte_in_a_table_fails_recover_and_fsck(tmp_path,
                                                          capsys):
    directory = tmp_path / "store.d"
    QCWarehouse.from_records(RECORDS, SCHEMA, ("sum", "Sale")).checkpoint(
        directory)
    assert main(["fsck", str(directory)]) == 0
    capsys.readouterr()
    table = directory / load_manifest(directory)["head"]["table"]
    _flip_one_byte(table)

    with pytest.raises(RecoveryError, match="checksum mismatch") as info:
        QCWarehouse.recover(directory, directory / "wal.log", SCHEMA)
    assert str(table) in str(info.value)
    assert main(["fsck", str(directory)]) == 2
    out = capsys.readouterr().out
    assert table.name in out and "1 issue(s) found" in out


# A QCTREE/2 document of the parent layout: recover never reads it, so
# its content only has to look like what that layout held.
_PARENT_TREE = (
    "QCTREE/2 crc32=00000000 nodes=1 links=0\n"
    '{"n_dims": 3, "dim_names": ["Store", "Product", "Season"], '
    '"aggregate": "sum(Sale)", "nodes": [[-1, null, -1, 32.0]], '
    '"links": []}'
)


def _parent_layout(directory, segments, head, lsn=0, aggregate="sum(Sale)"):
    """A checkpoint directory as the layout before this one wrote it:
    each entry names a ``.qct`` tree beside its table, no entry has a
    ``crc32``, the schema has no ``label_types``, and each CSV starts
    with its ``# wal_lsn=N`` stamp."""
    os.makedirs(directory)
    entries = [dict(id=i, **_pair(directory, f"segment-{i:08d}", rows, lsn))
               for i, rows in enumerate(segments, start=1)]
    head_entry = dict(seq=1, **_pair(directory, "head-00000001", head, lsn))
    payload = {
        "format": "QCSEGSET/1", "lsn": lsn, "generation": 0,
        "aggregate": aggregate,
        "schema": {"dimensions": ["Store", "Product", "Season"],
                   "measures": ["Sale"]},
        "next_segment_id": len(segments) + 1,
        "segments": entries, "head": head_entry,
    }
    body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    crc = zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF
    (directory / "MANIFEST.json").write_text(
        json.dumps({"crc32": f"{crc:08x}", "manifest": payload}))


def _pair(directory, stem, records, lsn):
    lines = [f"# wal_lsn={lsn}", "Store,Product,Season,Sale"]
    lines += [",".join(map(str, record)) for record in records]
    (directory / f"{stem}.csv").write_text("\r\n".join(lines) + "\r\n")
    (directory / f"{stem}.qct").write_text(_PARENT_TREE)
    return {"rows": len(records), "tree": f"{stem}.qct",
            "table": f"{stem}.csv"}


@pytest.mark.parametrize("aggregate", ["sum(Sale)", "count", "max(Sale)"])
def test_a_non_finite_measure_of_an_earlier_checkpoint_is_named(
        tmp_path, aggregate):
    """Measures are finite since aggregate states are exact, for every
    aggregate: a checkpoint written before that rule with a NaN measure
    fails to open with a :class:`RecoveryError` naming its file and the
    record (the tables are CSV, so the row can be mended and rebuilt)."""
    directory = tmp_path / "old.d"
    _parent_layout(directory, [], RECORDS[:2] + [("S2", "P1", "f", "nan")],
                   aggregate=aggregate)
    with pytest.raises(RecoveryError, match=(
            r"head-00000001\.csv: record \('S2', 'P1', 'f', 'nan'\) has "
            r"the non-finite measure 'Sale': measures are finite")):
        QCWarehouse.recover(directory, directory / "wal.log", SCHEMA)


@pytest.mark.parametrize("kind", ["monolithic", "segmented"])
def test_a_directory_in_the_parent_layout_opens_and_loses_its_trees(
        tmp_path, kind):
    directory = tmp_path / "old.d"
    fresh = QCWarehouse.from_records(RECORDS, SCHEMA, ("sum", "Sale"))
    if kind == "segmented":
        _parent_layout(directory, [RECORDS[:3]], RECORDS[3:])
        store = SegmentedWarehouse.recover(directory, directory / "wal.log",
                                           SCHEMA, seal_rows=100)
    else:
        _parent_layout(directory, [], RECORDS)
        store = QCWarehouse.recover(directory, directory / "wal.log", SCHEMA)
    assert store.last_recovery["orphans"] == sorted(
        name for name in os.listdir(directory) if name.endswith(".qct"))
    for cell in CELLS:
        assert store.point(cell) == fresh.point(cell), cell
    assert store.verify(deep=True).ok

    store.checkpoint(directory)
    store.close()
    assert not [n for n in os.listdir(directory)
                if n.endswith((".qct", ".csv"))]
    payload = load_manifest(directory)
    assert all("crc32" in entry for entry in _entries(payload))
    again = type(store).recover(directory, directory / "wal.log", SCHEMA)
    for cell in CELLS:
        assert again.point(cell) == fresh.point(cell), cell
    again.close()


@pytest.mark.parametrize("kind", ["monolithic", "segmented"])
def test_a_csv_checkpoint_opens_and_its_next_checkpoint_holds_no_csv(
        tmp_path, kind):
    """A directory of the CSV layout — tables whose CRC32 and label types
    the manifest records — opens with its int labels as ints, and the
    next checkpoint rewrites every table as a piece file."""
    directory = tmp_path / "csv.d"
    directory.mkdir()
    records = [(2001, "a", 1.0), (2002, "a", 2.0), (2002, "b", 4.0),
               (2003, "b", 8.0)]
    parts = [records[:2], records[2:]] if kind == "segmented" else [records]
    fresh = QCWarehouse.from_records(records, YEARS, ("sum", "M"))

    def entry(name, rows):
        table = QCWarehouse.from_records(rows, YEARS, ("sum", "M")).table
        return {"rows": len(rows), "table": name,
                "crc32": write_csv(table, directory / name)}

    segments = [dict(entry(f"segment-{i:08d}.csv", rows), id=i)
                for i, rows in enumerate(parts[:-1], start=1)]
    save_manifest(directory, lsn=0, generation=0, aggregate_spec="sum(M)",
                  schema=YEARS, label_types=("int", "str"),
                  segments=segments,
                  head=dict(entry("head-00000001.csv", parts[-1]), seq=1),
                  next_segment_id=len(parts))
    store = (SegmentedWarehouse if kind == "segmented" else QCWarehouse)
    options = {"seal_rows": 100} if kind == "segmented" else {}
    wh = store.recover(directory, directory / "wal.log", YEARS, **options)
    cells = [(2002, "*"), ("*", "b"), (2003, "b"), ("*", "*")]
    assert [wh.point(c) for c in cells] == [fresh.point(c) for c in cells]
    wh.checkpoint(directory)
    wh.close()
    assert not [n for n in os.listdir(directory) if n.endswith(".csv")]
    again = store.recover(directory, directory / "wal.log", YEARS, **options)
    assert [again.point(c) for c in cells] == [fresh.point(c) for c in cells]
    again.close()


class TestLabelTypes:
    """Labels come back as the values they were written as."""

    def _store(self):
        return QCWarehouse.from_records(
            [(2001, "a", 1.0), (2002, "a", 2.0), (2002, "b", 4.0)],
            YEARS, ("sum", "M"))

    def test_integer_labels_answer_after_checkpoint_and_recover(
            self, tmp_path):
        wh = self._store()
        assert wh.point((2002, "*")) == 6.0
        wh.checkpoint(tmp_path / "ckpt")
        recovered = QCWarehouse.recover(tmp_path / "ckpt",
                                        tmp_path / "wal", YEARS)
        assert recovered.point((2002, "*")) == 6.0
        assert recovered.point(("2002", "*")) is None
        assert recovered.table._decoders[0] == [2001, 2002]
        payload = load_manifest(tmp_path / "ckpt")
        assert payload["schema"]["label_types"] == ["int", "str"]

    @pytest.mark.parametrize("segmented", [False, True])
    def test_a_dimension_of_mixed_label_types_is_refused(self, segmented,
                                                         tmp_path):
        """Its labels would be written as text and read back as one
        type: ``1`` would come back as ``"1"`` and ``point((1, "*"))``
        would read None after a restart.  Construction refuses it, as a
        write does."""
        store = SegmentedWarehouse if segmented else QCWarehouse
        options = {"seal_rows": 1} if segmented else {}
        records = [(1, "a", 1.0), ("x", "b", 2.0)]
        with pytest.raises(SchemaError, match="'Year' mixes"):
            store.from_records(records, YEARS, ("sum", "M"), **options)
        wh = store.from_records(records[:1], YEARS, ("sum", "M"), **options)
        with pytest.raises(SchemaError, match="Year"):
            wh.insert(records[1:])
        wh.checkpoint(tmp_path / "ckpt")
        wh.close()
        recovered = store.recover(tmp_path / "ckpt", tmp_path / "wal", YEARS,
                                  **options)
        assert recovered.point((1, "*")) == 1.0
        recovered.close()

    def test_a_logged_label_keeps_the_type_of_its_dimension(self, tmp_path):
        wh = self._store()
        wh.attach_wal(tmp_path / "wal")
        wh.checkpoint(tmp_path / "ckpt")
        wh.insert([(2003, "a", 8.0)])
        recovered = QCWarehouse.recover(tmp_path / "ckpt",
                                        tmp_path / "wal", YEARS)
        assert recovered.last_recovery["replayed"] == 1
        assert recovered.table._decoders[0] == [2001, 2002, 2003]
        assert recovered.point((2003, "*")) == 8.0
        assert recovered.point(("*", "a")) == 11.0
        # The log cannot mix them: another type is refused unlogged.
        with pytest.raises(SchemaError, match="Year"):
            recovered.insert([("2004", "a", 1.0)])
        with pytest.raises(SchemaError, match="Year"):
            recovered.delete([("2001", "a", 1.0)])
        assert len(WriteAheadLog(tmp_path / "wal")) == 1

    @pytest.mark.parametrize("segmented", [False, True])
    def test_numpy_scalars_are_logged_as_python_scalars(self, segmented,
                                                        tmp_path):
        """A NumPy label or measure is written through a WAL as the
        Python scalar it stands for, and reads the same after recovery
        as without a log."""
        store = SegmentedWarehouse if segmented else QCWarehouse
        options = {"seal_rows": 2} if segmented else {}
        records = [(2001, "a", 1.0), (2002, "a", 2.0), (2002, "b", 4.0)]
        writes = [[(np.int64(2099), "a", 1.0)],
                  [(2050, "a", np.float32(1.5))],
                  [(np.int32(2050), np.str_("b"), np.float64(2.5))]]
        cells = [(2099, "*"), (2050, "*"), (2050, "b"), ("*", "a"),
                 ("*", "*"), (2002, "*")]
        plain = store.from_records(records, YEARS, ("sum", "M"), **options)
        wh = store.from_records(records, YEARS, ("sum", "M"), **options)
        wh.attach_wal(tmp_path / "wal")
        wh.checkpoint(tmp_path / "ckpt")
        for batch in writes:
            plain.insert(batch)
            wh.insert(batch)
        want = [plain.point(cell) for cell in cells]
        assert want[:3] == [1.0, 4.0, 2.5]
        assert [wh.point(cell) for cell in cells] == want
        recovered = store.recover(tmp_path / "ckpt", tmp_path / "wal", YEARS,
                                  **options)
        assert recovered.last_recovery["replayed"] == len(writes)
        assert [recovered.point(cell) for cell in cells] == want
        for each in (plain, wh, recovered):
            each.close()

    @pytest.mark.parametrize("label", [b"2003", None, (2003,)])
    def test_a_label_no_checkpoint_spells_back_is_refused(
            self, tmp_path, label):
        """A label of no checkpointed type (bytes, None, a tuple) is
        refused before the log, and a table holding one is refused by
        the checkpoint rather than written as its ``str()``."""
        wh = self._store()
        wh.attach_wal(tmp_path / "wal")
        with pytest.raises(SchemaError, match="spell it back"):
            wh.insert([(2003, label, 1.0)])
        assert len(WriteAheadLog(tmp_path / "wal")) == 0
        assert wh.n_rows == 3
        odd = QCWarehouse.from_records([(2001, label, 1.0)], YEARS,
                                       ("sum", "M"))
        with pytest.raises(SchemaError, match="Kind"):
            odd.checkpoint(tmp_path / "ckpt")
        assert not (tmp_path / "ckpt" / "MANIFEST.json").exists()

    @pytest.mark.parametrize("segmented", [False, True])
    def test_a_lone_surrogate_label_survives_checkpoint_and_recover(
            self, tmp_path, segmented):
        """A str label may hold a lone surrogate (what ``surrogateescape``
        decodes a stray byte to).  The log takes it, so the checkpoint
        must spell it back too — and then truncate the log."""
        store = SegmentedWarehouse if segmented else QCWarehouse
        options = {"seal_rows": 1} if segmented else {}
        names = Schema(dimensions=("Name", "Kind"), measures=("M",))
        wh = store.from_records([("a", "b", 1.0)], names, ("sum", "M"),
                                **options)
        wh.attach_wal(tmp_path / "wal")
        wh.insert([("x\udcff", "b", 2.0)])
        wh.checkpoint(tmp_path / "ckpt")
        wh.close()
        assert len(WriteAheadLog(tmp_path / "wal")) == 0
        recovered = store.recover(tmp_path / "ckpt", tmp_path / "wal", names,
                                  **options)
        assert recovered.last_recovery["replayed"] == 0
        assert recovered.point(("x\udcff", "*")) == 2.0
        assert recovered.point(("*", "b")) == 3.0
        recovered.close()

    def test_a_dimension_without_labels_takes_its_first_writes_type(self):
        wh = QCWarehouse.from_records([], YEARS, ("sum", "M"))
        wh.insert([(1999, "z", 1.0)])
        with pytest.raises(SchemaError, match="Kind"):
            wh.insert([(2000, 7, 1.0)])
        assert wh.point((1999, "*")) == 1.0

    def test_a_recovered_dimension_takes_the_type_the_log_replayed(
            self, tmp_path):
        wh = QCWarehouse.from_records([], YEARS, ("sum", "M"))
        wh.attach_wal(tmp_path / "wal")
        wh.checkpoint(tmp_path / "ckpt")
        wh.insert([(1999, "z", 1.0)])
        recovered = QCWarehouse.recover(tmp_path / "ckpt",
                                        tmp_path / "wal", YEARS)
        with pytest.raises(SchemaError, match="Year"):
            recovered.insert([("2000", "z", 1.0)])
        recovered.checkpoint(tmp_path / "ckpt")
        again = QCWarehouse.recover(tmp_path / "ckpt", tmp_path / "wal",
                                    YEARS)
        assert again.point((1999, "*")) == 1.0

    def test_a_weather_store_answers_labelled_points_after_recover(
            self, tmp_path, capsys):
        table = weather_table(300, scale=0.01, seed=4, n_dims=6)
        wh = QCWarehouse(table, ("avg", "temperature"))
        station, *_, day = next(table.iter_records())[:6]
        cell = (station, "*", "*", "*", "*", day)
        expected = wh.point(cell)
        assert expected is not None
        directory = tmp_path / "weather.d"
        wh.checkpoint(directory)
        recovered = QCWarehouse.recover(directory, directory / "wal.log",
                                        table.schema)
        assert recovered.point(cell) == expected
        assert recovered.point(("*",) * 6) == wh.point(("*",) * 6)
        assert main(["fsck", str(directory)]) == 0
        assert "clean" in capsys.readouterr().out
