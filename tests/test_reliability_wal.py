"""Tests for the write-ahead log: durability, torn tails, corruption."""

import pytest

from repro.errors import RecoveryError
from repro.reliability.faults import (
    InjectedCrash,
    crash_on_io,
    partial_append,
    torn_write,
)
from repro.reliability.wal import WriteAheadLog


@pytest.fixture
def wal_path(tmp_path):
    return str(tmp_path / "maintenance.wal")


BATCH_A = [("S1", "P1", "s", 6.0), ("S2", "P1", "f", 9.0)]
BATCH_B = [("S1", "P2", "s", 12.0)]


class TestAppendReplay:
    def test_roundtrip(self, wal_path):
        wal = WriteAheadLog(wal_path)
        assert wal.append("insert", BATCH_A) == 1
        assert wal.append("delete", BATCH_B) == 2
        records = wal.records()
        assert [r.op for r in records] == ["insert", "delete"]
        assert [r.lsn for r in records] == [1, 2]
        assert records[0].records == (("S1", "P1", "s", 6.0),
                                      ("S2", "P1", "f", 9.0))

    def test_replay_from_fresh_handle(self, wal_path):
        wal = WriteAheadLog(wal_path)
        wal.append("insert", BATCH_A)
        reopened = WriteAheadLog(wal_path)
        assert len(reopened.records()) == 1
        # Appends continue the sequence across reopen.
        assert reopened.append("insert", BATCH_B) == 2

    def test_empty_log(self, wal_path):
        wal = WriteAheadLog(wal_path)
        assert wal.records() == []
        assert len(wal) == 0

    def test_truncate_drops_records_keeps_sequence(self, wal_path):
        wal = WriteAheadLog(wal_path)
        wal.append("insert", BATCH_A)
        wal.truncate()
        assert wal.records() == []
        # Sequence numbers are monotonic across truncation, so snapshots
        # stamped before it stay comparable with later log records.
        assert wal.append("insert", BATCH_B) == 2
        reopened = WriteAheadLog(wal_path)
        assert reopened.base_lsn == 1
        assert [r.lsn for r in reopened.records()] == [2]

    def test_unknown_op_rejected(self, wal_path):
        wal = WriteAheadLog(wal_path)
        with pytest.raises(RecoveryError):
            wal.append("upsert", BATCH_A)

    def test_append_is_fsynced_before_return(self, wal_path):
        wal = WriteAheadLog(wal_path)
        with crash_on_io(fail_after=None) as clock:
            wal.append("insert", BATCH_A)
        labels = [label.split(":")[0] for label in clock.trace]
        assert "fsync" in labels
        assert labels.index("write") < labels.index("fsync")


class TestTornTail:
    def test_partial_append_is_dropped(self, wal_path):
        wal = WriteAheadLog(wal_path)
        wal.append("insert", BATCH_A)
        partial_append(wal_path)
        reopened = WriteAheadLog(wal_path)
        records = reopened.records()
        assert len(records) == 1  # the committed batch survives
        assert reopened.tail_was_torn

    def test_torn_last_record_is_dropped(self, wal_path):
        wal = WriteAheadLog(wal_path)
        wal.append("insert", BATCH_A)
        size_after_one = len(open(wal_path, "rb").read())
        wal.append("delete", BATCH_B)
        # Cut mid-way through the second record.
        torn_write(wal_path, keep_bytes=size_after_one + 10)
        records = WriteAheadLog(wal_path).records()
        assert [r.op for r in records] == ["insert"]

    def test_append_after_torn_tail_recovers(self, wal_path):
        wal = WriteAheadLog(wal_path)
        wal.append("insert", BATCH_A)
        partial_append(wal_path, "ffffffff {\"broken")
        reopened = WriteAheadLog(wal_path)
        # The torn garbage has no trailing newline.  The next append cuts
        # it off instead of gluing onto it (a glued line would fail its
        # checksum and lose a batch that was acknowledged), and the lsn
        # chain continues from the last *committed* record.
        reopened.append("delete", BATCH_B)
        final = WriteAheadLog(wal_path)
        assert [(r.lsn, r.op) for r in final.records()] == [
            (1, "insert"), (2, "delete")]
        assert not final.tail_was_torn
        # ... and so do the appends after it.
        final.append("insert", BATCH_B)
        assert [r.lsn for r in WriteAheadLog(wal_path).records()] == [1, 2, 3]

    def test_append_after_unterminated_last_record(self, wal_path):
        """A crash can also stop an append after its record but before
        its newline: the record is whole, and the next one must still
        start a line of its own."""
        wal = WriteAheadLog(wal_path)
        wal.append("insert", BATCH_A)
        torn_write(wal_path, keep_bytes=len(open(wal_path, "rb").read()) - 1)
        reopened = WriteAheadLog(wal_path)
        assert [r.lsn for r in reopened.records()] == [1]
        reopened.append("delete", BATCH_B)
        assert [(r.lsn, r.op) for r in WriteAheadLog(wal_path).records()] == [
            (1, "insert"), (2, "delete")]

    def test_crash_during_append_never_loses_prior_records(self, wal_path):
        from repro.reliability.faults import count_io

        wal = WriteAheadLog(wal_path)
        wal.append("insert", BATCH_A)
        committed_bytes = open(wal_path, "rb").read()
        total = count_io(lambda: WriteAheadLog(wal_path).append(
            "delete", BATCH_B))
        for fail_after in range(total):
            with open(wal_path, "wb") as fp:
                fp.write(committed_bytes)
            w = WriteAheadLog(wal_path)
            with crash_on_io(fail_after):
                with pytest.raises(InjectedCrash):
                    w.append("delete", BATCH_B)
            survivors = WriteAheadLog(wal_path).records()
            # Batch A always survives; batch B is all-or-nothing.
            assert survivors[0].records == (("S1", "P1", "s", 6.0),
                                            ("S2", "P1", "f", 9.0))
            assert len(survivors) in (1, 2)


class TestRealCorruption:
    def test_corrupt_record_followed_by_valid_raises(self, wal_path):
        wal = WriteAheadLog(wal_path)
        wal.append("insert", BATCH_A)
        size_one = len(open(wal_path, "rb").read())
        wal.append("delete", BATCH_B)
        data = open(wal_path, "rb").read()
        # Flip a byte inside the FIRST record (keeping the line intact).
        pos = size_one - 20
        corrupted = data[:pos] + bytes([data[pos] ^ 0xFF]) + data[pos + 1:]
        with open(wal_path, "wb") as fp:
            fp.write(corrupted)
        with pytest.raises(RecoveryError, match="damaged"):
            WriteAheadLog(wal_path).records()

    def test_bad_magic_raises(self, wal_path):
        with open(wal_path, "w") as fp:
            fp.write("NOTAWAL\n")
        with pytest.raises(RecoveryError, match="magic"):
            WriteAheadLog(wal_path)

    def test_sequence_break_raises(self, wal_path):
        import json
        import zlib

        wal = WriteAheadLog(wal_path)
        wal.append("insert", BATCH_A)
        body = json.dumps({"lsn": 5, "op": "insert", "records": []})
        crc = zlib.crc32(body.encode()) & 0xFFFFFFFF
        with open(wal_path, "a") as fp:
            fp.write(f"{crc:08x} {body}\n")
        with pytest.raises(RecoveryError, match="sequence"):
            WriteAheadLog(wal_path).records()

    def test_empty_file_is_a_fresh_log(self, wal_path):
        open(wal_path, "w").close()
        wal = WriteAheadLog(wal_path)
        assert wal.records() == []
        wal.append("insert", BATCH_A)
        assert len(WriteAheadLog(wal_path).records()) == 1
