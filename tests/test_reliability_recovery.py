"""End-to-end crash recovery: checkpoint + WAL replay == fresh rebuild.

These tests simulate the crash windows the durability design must cover,
for a store that never seals and for a segmented one — both checkpoint
into the one manifest directory:

* crash at any I/O step during a checkpoint;
* crash between the WAL append and the in-memory mutation;
* crash after mutation but before the next checkpoint;
* a real process killed after its WAL appends;

and assert that ``recover`` restores a warehouse whose point, range, and
iceberg answers match a tree built from scratch on the true final table.
"""

import os
import subprocess
import sys

import pytest

import repro
from repro.core.construct import build_qctree
from repro.core.warehouse import QCWarehouse
from repro.cube.schema import Schema
from repro.errors import RecoveryError
from repro.reliability.faults import InjectedCrash, count_io, crash_on_io
from repro.reliability.wal import WriteAheadLog
from repro.segments import SegmentedWarehouse
from tests.conftest import all_cells, approx_equal


DIMS, MEASURES = ("Store", "Product", "Season"), ("Sale",)
SCHEMA = Schema(dimensions=DIMS, measures=MEASURES)
BASE = [
    ("S1", "P1", "s", 6.0),
    ("S1", "P2", "s", 12.0),
    ("S2", "P1", "f", 9.0),
]
INSERT_1 = [("S2", "P2", "f", 4.0), ("S3", "P1", "w", 2.0)]
DELETE_1 = [("S1", "P2", "s", 0.0)]
INSERT_2 = [("S1", "P3", "w", 7.0)]
INSERT_3 = [("S3", "P3", "s", 5.0), ("S2", "P3", "w", 1.0)]
#: A segmented store's thresholds: the 3 base rows seal at once.
SEGMENTED = dict(seal_rows=2, compact_min_segments=2)


@pytest.fixture
def paths(tmp_path):
    return str(tmp_path / "ckpt"), str(tmp_path / "wh.wal")


def fresh_warehouse(paths, aggregate=("avg", "Sale")):
    """A checkpointed warehouse with an attached WAL."""
    directory, wal_path = paths
    wh = QCWarehouse.from_records(BASE, SCHEMA, aggregate=aggregate)
    wh.attach_wal(wal_path)
    wh.checkpoint(directory)
    return wh


def recover(paths, kind=QCWarehouse, **options):
    directory, wal_path = paths
    return kind.recover(directory, wal_path, SCHEMA, **options)


def assert_equivalent_answers(recovered, reference_wh):
    """Point/range/iceberg equality against a from-scratch warehouse, and
    every recovered piece's tree is a fresh build of its table."""
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
    assert recovered.n_rows == table.n_rows
    for piece in recovered.pieces():
        assert piece.tree.equivalent_to(
            build_qctree(piece.table, recovered.aggregate))


def reference_after(batches, aggregate=("avg", "Sale")):
    """A warehouse built fresh by applying ``batches`` to the base data."""
    wh = QCWarehouse.from_records(BASE, SCHEMA, aggregate=aggregate)
    for op, records in batches:
        getattr(wh, op)(records)
    # Rebuild from the final table so the reference is maintenance-free.
    return QCWarehouse(wh.table, aggregate=aggregate)


class TestRecoverReplaysBatches:
    def test_recover_after_unclean_shutdown(self, paths):
        wh = fresh_warehouse(paths)
        wh.insert(INSERT_1)
        wh.delete(DELETE_1)
        wh.insert(INSERT_2)
        del wh  # crash: no checkpoint after the three batches

        recovered = recover(paths)
        assert recovered.last_recovery["replayed"] == 3
        assert recovered.last_recovery["skipped"] == []
        reference = reference_after(
            [("insert", INSERT_1), ("delete", DELETE_1),
             ("insert", INSERT_2)])
        assert_equivalent_answers(recovered, reference)

    def test_recover_with_no_pending_batches(self, paths):
        directory, _ = paths
        wh = fresh_warehouse(paths)
        wh.insert(INSERT_1)
        wh.checkpoint(directory)
        del wh

        recovered = recover(paths)
        assert recovered.last_recovery["replayed"] == 0
        reference = reference_after([("insert", INSERT_1)])
        assert_equivalent_answers(recovered, reference)

    def test_recovered_warehouse_keeps_logging(self, paths):
        wh = fresh_warehouse(paths)
        wh.insert(INSERT_1)
        del wh

        recovered = recover(paths)
        recovered.insert(INSERT_2)
        del recovered  # crash again before any checkpoint

        twice = recover(paths)
        assert twice.last_recovery["replayed"] == 2
        reference = reference_after(
            [("insert", INSERT_1), ("insert", INSERT_2)])
        assert_equivalent_answers(twice, reference)

    def test_failed_batch_is_skipped_not_wedged(self, paths):
        wh = fresh_warehouse(paths)
        from repro.errors import MaintenanceError

        with pytest.raises(MaintenanceError):
            wh.delete([("S9", "P9", "x", 0.0)])  # logged, then refused
        wh.insert(INSERT_1)
        del wh

        recovered = recover(paths)
        assert recovered.last_recovery["replayed"] == 1
        assert len(recovered.last_recovery["skipped"]) == 1
        reference = reference_after([("insert", INSERT_1)])
        assert_equivalent_answers(recovered, reference)


    def test_non_numeric_measure_is_refused_then_skipped(self, paths):
        """``float("x")`` used to leave the table encoder as a bare
        ``ValueError``: the live insert escaped the ``MaintenanceError``
        contract and — logged before it failed — the record wedged
        ``recover()``, taking every later batch with it."""
        wh = fresh_warehouse(paths)
        from repro.errors import MaintenanceError

        before = wh.tree.signature(), list(wh.table.iter_records())
        with pytest.raises(MaintenanceError, match="non-numeric measure"):
            wh.insert([("S1", "P1", "s", "x")])  # logged, then refused
        assert (wh.tree.signature(), list(wh.table.iter_records())) == before
        wh.insert(INSERT_1)
        del wh

        recovered = recover(paths)
        assert recovered.last_recovery["replayed"] == 1
        (lsn, reason), = recovered.last_recovery["skipped"]
        assert "non-numeric measure" in reason
        reference = reference_after([("insert", INSERT_1)])
        assert_equivalent_answers(recovered, reference)


def segmented_store(paths):
    """A checkpointed segmented store, then grown past its checkpoint:
    two sealed pieces and a head, one sealed piece rewritten by a
    delete and a compaction since — so its next checkpoint writes new
    segment files and garbage-collects old ones.  Returns the store and
    its batches."""
    directory, wal_path = paths
    wh = SegmentedWarehouse.from_records(BASE, SCHEMA, ("avg", "Sale"),
                                         **SEGMENTED)
    wh.attach_wal(wal_path)
    wh.checkpoint(directory)
    batches = [("insert", INSERT_1), ("delete", DELETE_1),
               ("insert", INSERT_3), ("insert", INSERT_2)]
    for op, records in batches[:3]:
        getattr(wh, op)(records)
    assert len(wh.pieces()) == 4
    assert wh.compact_once()
    getattr(wh, batches[3][0])(batches[3][1])
    health = wh.segment_health()
    assert health["segments_live"] == 2 and health["head_rows"] == 1
    return wh, batches


def monolithic_store(paths):
    """The same history on a store that never seals."""
    wh = fresh_warehouse(paths)
    batches = [("insert", INSERT_1), ("delete", DELETE_1)]
    for op, records in batches:
        getattr(wh, op)(records)
    return wh, batches


STORES = {
    "monolithic": (monolithic_store, QCWarehouse, {}),
    "segmented": (segmented_store, SegmentedWarehouse, SEGMENTED),
}


class TestCrashWindows:
    def test_crash_between_wal_append_and_mutation(self, paths):
        wh = fresh_warehouse(paths)
        # The append committed but the process died before the tree (or
        # any later state) changed — exactly what WAL-before-mutate
        # protects.
        wh.wal.append("insert", INSERT_1)
        del wh

        recovered = recover(paths)
        assert recovered.last_recovery["replayed"] == 1
        reference = reference_after([("insert", INSERT_1)])
        assert_equivalent_answers(recovered, reference)

    def test_crash_mid_wal_append_drops_uncommitted_batch(self, paths):
        _, wal_path = paths
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
            recovered = recover(paths)
            # Either the batch committed (replayed) or it did not
            # (dropped); both recover to a consistent warehouse.
            expect = [("insert", INSERT_1)]
            if recovered.last_recovery["replayed"] == 2:
                expect.append(("insert", INSERT_2))
            assert_equivalent_answers(recovered, reference_after(expect))
            with open(wal_path, "wb") as fp:
                fp.write(log_bytes)

    def test_crash_at_every_io_step_of_checkpoint(self, tmp_path):
        """For a one-piece store, and for a segmented one whose
        checkpoint writes new segment files and collects old ones."""
        for store in sorted(STORES):
            self.sweep_checkpoint(
                (str(tmp_path / store), str(tmp_path / f"{store}.wal")),
                *STORES[store])

    @staticmethod
    def sweep_checkpoint(paths, grow, kind, options):
        directory, wal_path = paths
        wh, batches = grow(paths)
        reference = reference_after(batches)

        def disk():
            files = [os.path.join(directory, name)
                     for name in os.listdir(directory)]
            return {p: open(p, "rb").read() for p in files + [wal_path]}

        before = disk()

        def restore_disk():
            for name in os.listdir(directory):
                if os.path.join(directory, name) not in before:
                    os.remove(os.path.join(directory, name))
            for p, data in before.items():
                with open(p, "wb") as fp:
                    fp.write(data)

        total = count_io(lambda: wh.checkpoint(directory))
        assert disk() != before
        restore_disk()
        for fail_after in range(total):
            with crash_on_io(fail_after):
                with pytest.raises(InjectedCrash):
                    wh.checkpoint(directory)
            recovered = recover(paths, kind, **options)
            assert_equivalent_answers(recovered, reference)
            recovered.close()
            restore_disk()

    def test_torn_snapshot_is_rejected_loudly(self, paths):
        """A torn tree file is not trusted: recovery rebuilds the tree
        from its CSV with the manifest's aggregate and says so in
        ``last_recovery["rebuilt"]`` — the rule every piece follows."""
        from repro.core.manifest import load_manifest
        from repro.reliability.faults import torn_write

        directory, _ = paths
        wh = fresh_warehouse(paths)
        wh.insert(INSERT_1)
        wh.checkpoint(directory)
        head = load_manifest(directory)["head"]
        tree_path = os.path.join(directory, head["tree"])
        torn_write(tree_path, keep_fraction=0.6)
        recovered = recover(paths)
        assert recovered.last_recovery["rebuilt"] == ["head"]
        assert_equivalent_answers(recovered,
                                  reference_after([("insert", INSERT_1)]))

    def test_one_piece_store_refuses_sealed_segments(self, paths):
        """A ``QCWarehouse`` is always one piece: it will not recover a
        checkpoint holding sealed segments; a segmented store will."""
        wh, batches = segmented_store(paths)
        wh.checkpoint(paths[0])
        with pytest.raises(RecoveryError, match="SegmentedWarehouse"):
            recover(paths)
        assert_equivalent_answers(
            recover(paths, SegmentedWarehouse, **SEGMENTED),
            reference_after(batches))


CHILD = """
import os, sys
from repro.core.warehouse import QCWarehouse
from repro.cube.schema import Schema
from repro.segments import SegmentedWarehouse
directory, wal_path, store = sys.argv[1:]
options = {options!r} if store == "segmented" else {{}}
kind = SegmentedWarehouse if store == "segmented" else QCWarehouse
wh = kind.from_records({base!r}, Schema({dims!r}, {measures!r}),
                       ("avg", "Sale"), **options)
wh.attach_wal(wal_path)
wh.checkpoint(directory)
for op, records in {batches!r}:
    getattr(wh, op)(records)
os._exit(137)
"""


@pytest.mark.parametrize("store", sorted(STORES))
def test_killed_process_recovers(paths, store):
    """A real crash: a child process checkpoints, appends WAL batches and
    dies with ``os._exit(137)`` — no cleanup, no flush beyond what the
    WAL made durable.  Recovery answers like a fresh build of the
    committed rows."""
    directory, wal_path = paths
    batches = [("insert", INSERT_1), ("delete", DELETE_1),
               ("insert", INSERT_3), ("insert", INSERT_2)]
    script = CHILD.format(
        options=SEGMENTED, base=BASE, dims=DIMS, measures=MEASURES,
        batches=batches)
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    child = subprocess.run(
        [sys.executable, "-c", script, directory, wal_path, store],
        env=env, capture_output=True, text=True, timeout=120)
    assert child.returncode == 137, child.stderr
    _, kind, options = STORES[store]
    recovered = recover(paths, kind, **options)
    assert recovered.last_recovery["replayed"] == len(batches)
    assert_equivalent_answers(recovered, reference_after(batches))
    recovered.close()


class TestCheckpointTruncatesWal:
    def test_log_empty_after_checkpoint(self, paths):
        directory, wal_path = paths
        wh = fresh_warehouse(paths)
        wh.insert(INSERT_1)
        assert len(WriteAheadLog(wal_path)) == 1
        wh.checkpoint(directory)
        assert len(WriteAheadLog(wal_path)) == 0

    def test_count_aggregate_roundtrip(self, paths):
        wh = fresh_warehouse(paths, aggregate="count")
        wh.insert(INSERT_1)
        del wh
        recovered = recover(paths)
        reference = reference_after([("insert", INSERT_1)],
                                    aggregate="count")
        assert_equivalent_answers(recovered, reference)


# -- every writer's rename is durable ------------------------------------------


def _writers(tmp_path):
    """``{name: (write the file, its directory)}`` for every durable file."""
    from repro.core.serialize import save_qctree, save_qctree_packed
    from repro.core.manifest import save_manifest

    wh = QCWarehouse.from_records(BASE, SCHEMA, aggregate=("sum", "Sale"))
    wal = WriteAheadLog(tmp_path / "log.wal")
    return {
        "save_qctree": lambda: save_qctree(wh.tree, tmp_path / "t.qct"),
        "save_qctree_packed": lambda: save_qctree_packed(
            wh.serving_tree, tmp_path / "t.qct3", table=wh.table),
        "to_csv": lambda: wh.table.to_csv(tmp_path / "t.csv"),
        "wal_create": lambda: WriteAheadLog(tmp_path / "new.wal"),
        "wal_truncate": wal.truncate,
        "save_manifest": lambda: save_manifest(
            tmp_path, lsn=0, generation=0, aggregate_spec="count",
            schema=SCHEMA, segments=[], head={"rows": 0, "tree": "h.qct", "table": "h.csv"},
            next_segment_id=1),
    }


@pytest.mark.parametrize("writer", [
    "save_qctree", "save_qctree_packed", "to_csv", "wal_create",
    "wal_truncate", "save_manifest",
])
def test_every_writer_syncs_its_directory_after_the_rename(
        writer, tmp_path, monkeypatch):
    """A rename is only durable once its directory is fsynced: each
    writer's trace has a directory fsync after its ``os.replace``.  A
    write that crashes leaves no temporary file behind."""
    import os
    import stat

    write = _writers(tmp_path)[writer]
    with crash_on_io(1), pytest.raises(InjectedCrash):
        write()
    assert not [p for p in os.listdir(tmp_path) if ".tmp" in p]
    trace = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        is_dir = stat.S_ISDIR(os.fstat(fd).st_mode)
        trace.append("fsync-dir" if is_dir else "fsync-file")
        return real_fsync(fd)

    def replace(src, dst):
        trace.append("replace")
        return real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    write()
    assert "replace" in trace, trace
    assert "fsync-dir" in trace[trace.index("replace"):], trace
    assert not [p for p in os.listdir(tmp_path) if ".tmp" in p]
