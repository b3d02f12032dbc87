"""Tests for the command-line interface (python -m repro).

Every verb but ``build`` opens the checkpoint directory ``build``
writes; ``serve`` logs each write to ``DIR/wal.log`` before answering
and checkpoints ``DIR`` on ``quit``.
"""

import json
import os
import signal
import struct
import subprocess
import sys
import threading
import zlib

import pytest

from repro.__main__ import main, parse_cell, parse_range
from repro.core.manifest import load_manifest
from repro.core.piece import Piece
from repro.core.warehouse import QCWarehouse
from repro.cube.schema import Schema
from repro.cube.table import BaseTable
from repro.errors import SchemaError
from repro.serving import AsyncServerThread, LineClient, QCServer, protocol
from tests.conftest import write_csv
from tests.test_construct import FIGURE_4_DUMP

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


@pytest.fixture
def sales_csv(tmp_path, sales_table):
    path = tmp_path / "sales.csv"
    write_csv(sales_table, path)
    return str(path)


def _build(csv, out, dims="Store,Product,Season", measures="Sale",
           aggregate="avg(Sale)"):
    return main(["build", csv, "--dims", dims, "--measures", measures,
                 "--aggregate", aggregate, "--out", out])


@pytest.fixture
def built_dir(tmp_path, sales_csv):
    out = str(tmp_path / "sales.d")
    assert _build(sales_csv, out) == 0
    return out


def _head_table(directory):
    return os.path.join(directory, load_manifest(directory)["head"]["table"])


def _rewrite_manifest(directory, edit):
    """Apply ``edit`` to the manifest payload and re-sign it, the way
    an older writer would have produced it."""
    path = os.path.join(directory, "MANIFEST.json")
    with open(path) as fp:
        payload = json.load(fp)["manifest"]
    edit(payload)
    body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    crc = zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF
    with open(path, "w") as fp:
        json.dump({"crc32": f"{crc:08x}", "manifest": payload}, fp)


class TestParsing:
    def test_parse_cell(self):
        assert parse_cell("S2, *, f") == ("S2", "*", "f")

    def test_parse_range(self):
        assert parse_range("S1|S2, *, f") == (["S1", "S2"], "*", "f")

    def test_parse_range_single_values(self):
        assert parse_range("S1,*") == ("S1", "*")


class TestCommands:
    def test_build_and_stats(self, built_dir, capsys):
        assert main(["stats", built_dir]) == 0
        out = capsys.readouterr().out
        assert "classes: 6" in out
        assert "avg(Sale)" in out
        assert "dimensions: Store, Product, Season" in out

    def test_build_writes_a_checkpoint_naming_its_schema(self, built_dir):
        payload = load_manifest(built_dir)
        assert payload["schema"] == {
            "dimensions": ["Store", "Product", "Season"],
            "measures": ["Sale"],
            "label_types": ["str", "str", "str"],
        }
        assert payload["segments"] == []

    def test_build_refuses_a_non_empty_directory(self, built_dir, sales_csv,
                                                 capsys):
        assert _build(sales_csv, built_dir) == 1
        assert capsys.readouterr().err.count("error:") == 1

    def test_point_hit(self, built_dir, capsys):
        assert main(["point", built_dir, "S2,*,f"]) == 0
        assert capsys.readouterr().out.strip() == "9.0"

    def test_point_null(self, built_dir, capsys):
        assert main(["point", built_dir, "S2,*,s"]) == 0
        assert capsys.readouterr().out.strip() == "NULL"

    def test_range(self, built_dir, capsys):
        assert main(["range", built_dir, "S1|S2,*,*"]) == 0
        out = capsys.readouterr().out
        assert "S1,*,*\t9.0" in out
        assert "S2,*,*\t9.0" in out

    def test_iceberg(self, built_dir, capsys):
        assert main(["iceberg", built_dir, "--threshold", "10"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out == ["S1,P2,s\t12.0"]

    def test_dump(self, built_dir, capsys):
        assert main(["dump", built_dir]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# head\n")
        assert "Root" in out and "Store=S1" in out

    def test_read_verbs_read_the_frozen_tree(self, built_dir, capsys,
                                             thaws):
        """No read-only verb thaws a dict tree: stats and dump render
        the frozen tree through the traversal protocol."""
        assert main(["stats", built_dir]) == 0
        assert capsys.readouterr().out.splitlines()[:4] == [
            "nodes: 11", "tree_edges: 10", "links: 5", "classes: 6"]
        assert main(["dump", built_dir]) == 0
        assert capsys.readouterr().out == "# head\n" + FIGURE_4_DUMP + "\n"
        for argv in (["point", built_dir, "S2,*,f"],
                     ["range", built_dir, "S1|S2,*,*"],
                     ["iceberg", built_dir, "--threshold", "10"]):
            assert main(argv) == 0
        assert thaws == []

    def test_saved_warehouse_answers_like_the_api(self, tmp_path,
                                                  monkeypatch, capsys):
        """Labels appended out of sorted order (``a`` after ``b`` and
        ``c``) survive build → serve insert → quit → point: the tree is
        built from the table the directory holds."""
        import io

        from repro import QCWarehouse, Schema

        csv = tmp_path / "t.csv"
        csv.write_text("A,B,m\nb,x,1.0\nc,y,2.0\n")
        directory = str(tmp_path / "t.d")
        assert _build(str(csv), directory, dims="A,B", measures="m",
                      aggregate="sum(m)") == 0
        monkeypatch.setattr("sys.stdin", io.StringIO("insert a,z,5.0\nquit\n"))
        assert main(["serve", directory, "--workers", "1"]) == 0
        capsys.readouterr()

        wh = QCWarehouse.from_records(
            [("b", "x", 1.0), ("c", "y", 2.0)],
            Schema(dimensions=("A", "B"), measures=("m",)), ("sum", "m"))
        wh.insert([("a", "z", 5.0)])
        for cell in ("a,*", "b,*", "c,*", "*,z"):
            assert main(["point", directory, cell]) == 0
            want = wh.point(tuple(cell.split(",")))
            assert capsys.readouterr().out.strip() == str(want), cell
        assert main(["range", directory, "a|b|c,*"]) == 0
        got = dict(line.split("\t")
                   for line in capsys.readouterr().out.splitlines())
        want = wh.range((["a", "b", "c"], "*"))
        assert got == {",".join(c): str(v) for c, v in want.items()}
        assert main(["fsck", directory]) == 0

    def test_built_tree_carries_its_label_dictionaries(self, built_dir,
                                                      sales_schema):
        """The built directory's table is the tree's label dictionary:
        every label, under the type the manifest records."""
        table = Piece.load(_head_table(built_dir), sales_schema,
                           "count").table
        assert list(table.iter_records()) == [
            ("S1", "P1", "s", 6.0), ("S1", "P2", "s", 12.0),
            ("S2", "P1", "f", 9.0)]
        assert table._decoders == [["S1", "S2"], ["P1", "P2"], ["f", "s"]]
        assert load_manifest(built_dir)["schema"]["label_types"] == \
            ["str", "str", "str"]
        assert not [n for n in os.listdir(built_dir) if n.endswith(".qct")]

    def test_missing_file_is_error_not_traceback(self, tmp_path, capsys):
        code = main(["stats", str(tmp_path / "nope")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_corrupt_tree_is_error(self, built_dir, capsys):
        manifest = os.path.join(built_dir, "MANIFEST.json")
        with open(manifest, "w") as fp:
            fp.write("garbage\n{}")
        assert main(["stats", built_dir]) == 1
        err = capsys.readouterr().err
        assert "error:" in err
        assert manifest in err  # the failing path is named

    def test_empty_tree_file_is_error(self, built_dir, capsys):
        open(os.path.join(built_dir, "MANIFEST.json"), "w").close()
        assert main(["stats", built_dir]) == 1
        assert "error:" in capsys.readouterr().err

    def test_manifest_without_schema_is_one_error_line(self, built_dir,
                                                       capsys):
        _rewrite_manifest(built_dir, lambda payload: payload.pop("schema"))
        for verb in (["point", built_dir, "S2,*,f"], ["fsck", built_dir]):
            assert main(verb) == 1
            err = capsys.readouterr().err
            assert err.count("error:") == 1
            assert "names no schema" in err

    def test_torn_head_tree_answers_from_its_csv(self, built_dir, capsys):
        """A head tree file the layout that stored trees left, torn: no
        verb reads it — ``point`` answers from the build of its table and
        ``fsck`` finds the store clean."""
        tree = os.path.splitext(_head_table(built_dir))[0] + ".qct"
        with open(tree, "w") as fp:
            fp.write("QCTREE/2 crc32=0000")
        _rewrite_manifest(built_dir, lambda payload: payload["head"].update(
            tree=os.path.basename(tree)))
        assert main(["point", built_dir, "S2,*,f"]) == 0
        assert capsys.readouterr().out.strip() == "9.0"
        assert main(["fsck", built_dir]) == 0
        assert "clean" in capsys.readouterr().out


class TestVersion:
    def test_version_flag(self, capsys):
        import repro

        with pytest.raises(SystemExit) as exc_info:
            main(["--version"])
        assert exc_info.value.code == 0
        assert repro.__version__ in capsys.readouterr().out


class TestServeCommand:
    def run_serve(self, built_dir, monkeypatch, capsys, script, extra=()):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(script))
        code = main(["serve", built_dir, "--workers", "2", *extra])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_point_range_and_quit(self, built_dir, monkeypatch, capsys):
        code, out, err = self.run_serve(
            built_dir, monkeypatch, capsys,
            "point S2,*,f\npoint S2,*,s\nrange S1|S2,*,*\nquit\n",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "9.0"
        assert lines[1] == "NULL"
        assert "S1,*,*\t9.0" in lines
        assert "# 2 cells" in lines
        assert "serving" in err  # banner goes to stderr, not the protocol

    def test_exploration_and_stats(self, built_dir, monkeypatch, capsys):
        code, out, _ = self.run_serve(
            built_dir, monkeypatch, capsys,
            "rollup S2,P1,f\nclass *,P1,*\nopen S2,P1,f\nstats\nquit\n",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert "*,*,*\t9.0" in lines
        assert "*,P1,*\t7.5" in lines
        stats = json.loads(lines[-1])
        assert stats["counters"]["completed"] == 3
        assert stats["snapshot"]["frozen"] is True

    def test_insert_becomes_visible(self, built_dir, monkeypatch, capsys):
        code, out, _ = self.run_serve(
            built_dir, monkeypatch, capsys,
            "point S3,P1,s\ninsert S3,P1,s,5.0\npoint S3,P1,s\nquit\n",
        )
        assert code == 0
        assert out.strip().splitlines() == ["NULL", "OK", "5.0"]

    def test_quit_checkpoints_the_directory(self, built_dir, monkeypatch,
                                            capsys):
        """The write is folded into a new head pair and the log emptied;
        a restarted ``serve`` reads it back."""
        before = load_manifest(built_dir)["head"]["seq"]
        self.run_serve(built_dir, monkeypatch, capsys,
                       "insert S3,P1,s,5.0\nquit\n")
        payload = load_manifest(built_dir)
        assert payload["head"]["seq"] == before + 1
        assert payload["lsn"] == 1
        with open(os.path.join(built_dir, "wal.log")) as fp:
            assert fp.read() == "QCWAL/1 base=1\n"
        code, out, _ = self.run_serve(built_dir, monkeypatch, capsys,
                                      "point S3,*,*\n")
        assert (code, out.strip()) == (0, "5.0")

    def test_bad_command_keeps_serving(self, built_dir, monkeypatch, capsys):
        code, out, _ = self.run_serve(
            built_dir, monkeypatch, capsys,
            "frobnicate\nrollup S9,*,*\npoint S2,*,f\nquit\n",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("error:")
        assert lines[1].startswith("error:")
        assert lines[2] == "9.0"

    def test_malformed_range_keeps_serving(self, built_dir, monkeypatch,
                                           capsys):
        """One position too many used to leave ``encode_range`` as a bare
        ``IndexError`` the stdin loop does not catch; one too few named
        dictionary codes instead of the caller's labels."""
        code, out, _ = self.run_serve(
            built_dir, monkeypatch, capsys,
            "range S1|S2,*,*,P1\nrange S1|S2,*\npoint S2,*,f\n",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("error: QueryError: ")
        assert "4 positions" in lines[0]
        assert lines[1].startswith("error: QueryError: ")
        assert "['S1', 'S2']" in lines[1]
        assert lines[2] == "9.0"

    def test_non_numeric_measure_keeps_serving(self, built_dir, monkeypatch,
                                               capsys, head_path):
        """``float("x")``'s bare ``ValueError`` used to kill the stdin
        loop with a traceback."""
        code, out, _ = self.run_serve(
            built_dir, monkeypatch, capsys,
            "insert S3,P1,s,x\npoint S2,*,f\n",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("error: MaintenanceError: ")
        assert "non-numeric measure" in lines[0]
        assert lines[1:] == ["9.0"]

    def test_non_finite_measure_is_refused(self, built_dir, monkeypatch,
                                           capsys):
        """``float("inf")`` parses, but no exact aggregate state holds
        it: the store refuses the row before its WAL append (stored, it
        read nan in every ancestor cell once deleted)."""
        code, out, _ = self.run_serve(
            built_dir, monkeypatch, capsys,
            "insert S3,P1,s,inf\npoint S2,*,f\npoint *,*,*\n",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("error: SchemaError: ")
        assert "non-finite measure 'Sale'" in lines[0]
        assert lines[1:] == ["9.0", "9.0"]

    @pytest.mark.parametrize("flags", [
        ("--workers", "0"),
        ("--queue-size", "0"),
        ("--processes", "-1"),
        ("--cache-size", "-1"),
        ("--async", "--port", "99999"),
        ("--segmented", "--seal-rows", "0"),
        ("--timeout", "-1"),
        ("--timeout", "0"),
        ("--timeout", "nan"),
    ], ids=" ".join)
    def test_out_of_range_flag_is_a_usage_error(self, built_dir, capsys,
                                                flags):
        """Exit 1 with one ``error:`` line — these used to reach a
        constructor and die with a ``ValueError`` / ``OverflowError``
        traceback (``--seal-rows 0`` was silently accepted;
        ``--timeout 0`` or ``-1`` expired every request)."""
        with pytest.raises(SystemExit) as exc_info:
            main(["serve", built_dir, *flags])
        assert exc_info.value.code == 1
        err = capsys.readouterr().err
        assert err.count("error:") == 1
        assert f"argument {flags[-2]}: must be" in err

    def test_segmented_serve_end_to_end(self, built_dir, monkeypatch,
                                        capsys):
        """``serve --segmented`` over stdin: the three base rows seal at
        once, the inserts land and are seen, and ``quit`` joins the
        compactor."""
        before = set(threading.enumerate())
        code, out, err = self.run_serve(
            built_dir, monkeypatch, capsys,
            "insert S3,P1,s,5.0\ninsert S3,P2,s,7.0\ninsert S4,P1,w,1.0\n"
            "point S3,*,s\npoint *,P1,*\nstats\nquit\n",
            extra=("--segmented", "--seal-rows", "2"),
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[:5] == ["OK", "OK", "OK", "6.0", "5.25"]
        stats = json.loads(lines[5])
        assert stats["serving"] == "segmented"
        assert stats["segments"]["seals"] >= 1
        assert "segments" in err  # the banner counts segments
        assert set(threading.enumerate()) <= before
        assert not any(t.name == "qcseg-compactor"
                       for t in threading.enumerate())

    def test_segmented_directory_after_quit(self, built_dir, monkeypatch,
                                            capsys):
        """The checkpoint ``serve --segmented`` leaves holds sealed
        segments: the read verbs open it segmented, plain ``serve``
        refuses it with recover's error."""
        self.run_serve(built_dir, monkeypatch, capsys,
                       "insert S3,P1,s,5.0\ninsert S3,P2,s,7.0\nquit\n",
                       extra=("--segmented", "--seal-rows", "2"))
        assert load_manifest(built_dir)["segments"]
        assert main(["point", built_dir, "S3,*,s"]) == 0
        assert capsys.readouterr().out.strip() == "6.0"
        assert main(["stats", built_dir]) == 0
        assert "aggregate: avg(Sale)" in capsys.readouterr().out
        code, out, err = self.run_serve(built_dir, monkeypatch, capsys,
                                        "point S3,*,s\n")
        assert (code, out) == (1, "")
        assert err.count("error:") == 1
        assert "SegmentedWarehouse" in err

    def test_eof_closes_cleanly(self, built_dir, monkeypatch, capsys):
        code, out, _ = self.run_serve(
            built_dir, monkeypatch, capsys, "point S2,*,f\n"
        )
        assert code == 0
        assert out.strip() == "9.0"
        assert not any(t.name.startswith("qcserver")
                       for t in threading.enumerate())


class TestDurability:
    """A real ``python -m repro serve`` process: every write it answered
    ``OK`` is read back by a fresh ``point``, whether the server was
    killed or quit."""

    N = 4

    @pytest.mark.parametrize("flags", [(), ("--segmented", "--seal-rows",
                                            "2")], ids=["plain", "segmented"])
    @pytest.mark.parametrize("ending", ["sigkill", "quit"])
    def test_acknowledged_writes_survive(self, built_dir, capsys, flags,
                                         ending):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [SRC] + env.get("PYTHONPATH", "").split(os.pathsep))
        server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", built_dir,
             "--workers", "1", *flags],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True, env=env,
        )
        # A server that stops answering is killed, so a read below sees
        # EOF and fails instead of waiting forever.
        watchdog = threading.Timer(60, server.kill)
        watchdog.start()
        try:
            for i in range(self.N):
                server.stdin.write(f"insert N{i},P1,s,{i}.5\n")
                server.stdin.flush()
                assert server.stdout.readline().strip() == "OK"
            if ending == "sigkill":
                server.send_signal(signal.SIGKILL)
            else:
                server.stdin.write("quit\n")
                server.stdin.flush()
            code = server.wait(timeout=60)
        finally:
            watchdog.cancel()
            if server.poll() is None:
                server.kill()
                server.wait()
            server.stdin.close()
            server.stdout.close()
        assert code == (-signal.SIGKILL if ending == "sigkill" else 0)
        for i in range(self.N):
            assert main(["point", built_dir, f"N{i},*,*"]) == 0
            assert capsys.readouterr().out.strip() == f"{i}.5"

    def test_one_serve_per_directory(self, built_dir):
        """Two servers would interleave ``DIR/wal.log`` and leave the
        directory unopenable: while one ``serve`` runs, a second exits 1
        with one ``error:`` line; once the first quits, a new one
        starts."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [SRC] + env.get("PYTHONPATH", "").split(os.pathsep))
        command = [sys.executable, "-m", "repro", "serve", built_dir,
                   "--workers", "1"]
        first = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True, env=env,
        )
        watchdog = threading.Timer(60, first.kill)
        watchdog.start()
        try:
            first.stdin.write("point S2,*,f\n")
            first.stdin.flush()
            assert first.stdout.readline().strip() == "9.0"  # it is up
            second = subprocess.run(
                command, input="insert S9,P1,s,1.0\nquit\n",
                capture_output=True, text=True, env=env, timeout=60,
            )
            assert second.returncode == 1
            assert second.stdout == ""
            [line] = second.stderr.splitlines()
            assert line.startswith("error:") and "already being served" in line
            first.stdin.write("quit\n")
            first.stdin.flush()
            assert first.wait(timeout=60) == 0
        finally:
            watchdog.cancel()
            if first.poll() is None:
                first.kill()
                first.wait()
            first.stdin.close()
            first.stdout.close()
        third = subprocess.run(
            command, input="point S2,*,f\npoint S9,*,*\nquit\n",
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert third.returncode == 0
        assert third.stdout.split() == ["9.0", "NULL"]


class TestFsckCommand:
    def test_clean_tree_exits_zero(self, built_dir, capsys):
        assert main(["fsck", built_dir]) == 0
        assert "clean" in capsys.readouterr().out

    def test_clean_tree_without_table(self, built_dir, capsys):
        """No ``--table`` any more: the directory's own table is the
        base, so every run rebuilds the tree and compares every class."""
        assert main(["fsck", built_dir]) == 0
        out = capsys.readouterr().out
        assert "clean" in out and "6 classes" in out

    def test_corrupted_node_table_exits_two(self, built_dir, capsys):
        """One flipped byte of the head table: the CRC32 the manifest
        recorded no longer matches, ``fsck`` names the file and exits 2,
        the read verbs exit 1."""
        table = _head_table(built_dir)
        with open(table, "rb") as fp:
            data = bytearray(fp.read())
        at = data.index(struct.pack("<d", 9.0))
        data[at:at + 8] = struct.pack("<d", 8.0)  # 9.0 -> 8.0: silent rot
        with open(table, "wb") as fp:
            fp.write(data)
        assert main(["fsck", built_dir]) == 2
        out = capsys.readouterr().out
        assert "checksum mismatch" in out and table in out
        assert main(["point", built_dir, "S2,*,f"]) == 1
        assert table in capsys.readouterr().err

    def test_unreadable_tree_exits_one(self, tmp_path):
        bad = tmp_path / "bad.qct"
        bad.write_text("garbage")
        assert main(["fsck", str(bad)]) == 1

    def test_a_drifted_tree_names_its_first_differing_cell(
            self, built_dir, capsys, monkeypatch):
        """A tree that no longer matches its table (here one class
        state tampered after the open) is reported by the rebuild
        comparison: the section, and the row as a cell of labels."""
        import repro.__main__ as cli

        opened = cli._open_store

        def open_tampered(directory, **options):
            store = opened(directory, **options)
            tree = store.tree
            node = tree.find_path(store.table.encode_cell(("S2", "P1", "f")))
            tree.set_state(node, tree.aggregate.merge(tree.state[node],
                                                      (0, 1, 1)))
            return store

        monkeypatch.setattr(cli, "_open_store", open_tampered)
        assert main(["fsck", built_dir]) == 2
        out = capsys.readouterr().out
        assert "rebuild-mismatch" in out
        assert "value_data differs at row" in out and "(S2, P1, f)" in out

    def test_negative_samples_is_a_usage_error(self, built_dir, capsys):
        """fsck samples nothing, so ``--samples`` is no flag: one usage
        error line, never a clean store reported as corrupt."""
        with pytest.raises(SystemExit) as exc_info:
            main(["fsck", built_dir, "--samples", "-3"])
        assert exc_info.value.code == 1
        err = capsys.readouterr().err
        assert err.count("error:") == 1
        assert "unrecognized arguments: --samples" in err


class TestIntLabelledStore:
    """A store whose dimensions hold ints is queried and written with
    ints over the line protocol — the stdin ``serve``, the asyncio door
    and the read verbs alike — as :class:`QCWarehouse` answers it."""

    SCHEMA = Schema(dimensions=("A", "B"), measures=("m",))
    ROWS = [(1, 2, 3.0), (1, 3, 4.0), (2, 2, 5.0)]
    SCRIPT = [
        "point 1,*", "range 1|2,2", "rollup 1,2", "class 1,*",
        "insert 1,2,7.0", "point 1,2", "range 1|2,*",
        "delete 1,3,4.0", "point 1,*", "point x,*", "iceberg 9 >=",
    ]

    @pytest.fixture
    def int_dir(self, tmp_path):
        out = str(tmp_path / "ints.d")
        self.store().checkpoint(out)
        return out

    def store(self):
        return QCWarehouse(BaseTable.from_records(self.ROWS, self.SCHEMA),
                           "sum(m)")

    def expected(self) -> list:
        """Each script line's answer from a warehouse given the same
        requests with int labels, framed as the protocol frames it."""
        reference = self.store()
        typed = {"1": 1, "2": 2, "3": 3, "x": "x", "*": "*"}

        def labels(text):
            return [[typed[v] for v in part.split("|")] if "|" in part
                    else typed.get(part, part) for part in text.split(",")]

        lines = []
        for line in self.SCRIPT:
            command, rest = line.split(" ", 1)
            if command == "iceberg":
                value = reference.iceberg(9.0, ">=")
            elif command in ("insert", "delete"):
                *dims, measure = labels(rest)
                value = getattr(reference, command)(
                    [tuple(dims) + (float(measure),)])
            elif command == "range":
                value = reference.range(tuple(labels(rest)))
            else:
                op = protocol.COMMAND_OPS.get(command, command)
                value = getattr(reference.snapshot_view(), op)(
                    tuple(labels(rest)))
            lines.extend(protocol.format_response(
                protocol.parse_line(line, n_dims=2), value).split("\n"))
        return lines

    def test_stdin_serve_and_read_verbs(self, int_dir, monkeypatch,
                                        capsys):
        import io

        monkeypatch.setattr("sys.stdin",
                            io.StringIO("\n".join(self.SCRIPT) + "\nquit\n"))
        assert main(["serve", int_dir, "--workers", "2"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines == self.expected()
        assert "7.0" in lines and "NULL" in lines  # not vacuous
        assert main(["point", int_dir, "1,2"]) == 0
        assert main(["range", int_dir, "1|2,2"]) == 0
        assert capsys.readouterr().out.split("\n")[:3] == [
            "10.0", "1,2\t10.0", "2,2\t5.0"]

    def test_async_door(self, int_dir):
        from repro.__main__ import _open_store

        server = QCServer(_open_store(int_dir), workers=2)
        handle = AsyncServerThread(server, port=0)
        try:
            with LineClient(handle.host, handle.port) as client:
                lines = [answer for line in self.SCRIPT
                         for answer in client.call(line).split("\n")]
        finally:
            handle.close()
            server.close()
        assert lines == self.expected()

    def test_insert_of_a_label_of_another_type_is_refused(self):
        parse = protocol.line_parser(self.store())
        assert parse("point 1,*").args == ((1, "*"),)
        assert parse("insert x,2,1.0").args == (("x", 2, 1.0),)
        with pytest.raises(SchemaError, match="not of type int"):
            self.store().insert([parse("insert x,2,1.0").args[0]])
