"""Tests for the command-line interface (python -m repro).

Every verb but ``build`` opens the checkpoint directory ``build``
writes; ``serve`` logs each write to ``DIR/wal.log`` before answering
and checkpoints ``DIR`` on ``quit``.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import zlib

import pytest

from repro.__main__ import main, parse_cell, parse_range
from repro.core.manifest import load_manifest

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


@pytest.fixture
def sales_csv(tmp_path, sales_table):
    path = tmp_path / "sales.csv"
    sales_table.to_csv(path)
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


def _head_tree(directory):
    return os.path.join(directory, load_manifest(directory)["head"]["tree"])


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

    def test_saved_warehouse_answers_like_the_api(self, tmp_path,
                                                  monkeypatch, capsys):
        """Labels appended out of sorted order (``a`` after ``b`` and
        ``c``) survive build → serve insert → quit → point: the stored
        tree keeps the codes it was maintained under."""
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
        # fsck checks the stored tree, which recover used as it was.
        assert main(["fsck", directory, "--samples", "0"]) == 0

    def test_built_tree_carries_its_label_dictionaries(self, built_dir):
        from repro.core.serialize import load_qctree_from

        tree = load_qctree_from(_head_tree(built_dir))
        assert tree.snapshot_labels is not None

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
        """``point`` answers from the rebuild of the CSV; ``fsck``
        reports on the stored tree, which is torn, and names it."""
        from repro.reliability.faults import torn_write

        torn_write(_head_tree(built_dir), keep_fraction=0.6)
        assert main(["point", built_dir, "S2,*,f"]) == 0
        assert capsys.readouterr().out.strip() == "9.0"
        assert main(["fsck", built_dir]) == 2
        out = capsys.readouterr().out
        assert "rebuilt: head: stored tree unusable" in out
        assert "1 issue(s) found" in out


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
                                               capsys):
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
        ("--warm-keys", "-5"),
    ], ids=" ".join)
    def test_out_of_range_flag_is_a_usage_error(self, built_dir, capsys,
                                                flags):
        """Exit 1 with one ``error:`` line — these used to reach a
        constructor and die with a ``ValueError`` / ``OverflowError``
        traceback (``--seal-rows 0`` and ``--warm-keys -5`` were
        silently accepted; ``--timeout 0`` or ``-1`` expired every
        request)."""
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


class TestFsckCommand:
    def test_clean_tree_exits_zero(self, built_dir, capsys):
        assert main(["fsck", built_dir]) == 0
        assert "clean" in capsys.readouterr().out

    def test_clean_tree_without_table(self, built_dir, capsys):
        """No ``--table`` any more: the directory's own CSV is the base
        table, so every run re-derives class aggregates."""
        assert main(["fsck", built_dir, "--samples", "0"]) == 0
        out = capsys.readouterr().out
        assert "clean" in out and "6 aggregates" in out

    def test_corrupted_node_table_exits_two(self, built_dir, capsys):
        tree = _head_tree(built_dir)
        with open(tree) as fp:
            text = fp.read()
        _, payload = text.split("\n", 1)
        doc = json.loads(payload)
        # Point a drill-down link at a node labeled with something else:
        # the file still loads, but the tree violates Definition 1.
        doc["links"][0][3] = 0
        new_payload = json.dumps(doc)
        crc = zlib.crc32(new_payload.encode()) & 0xFFFFFFFF
        header = (f"QCTREE/2 crc32={crc:08x} nodes={len(doc['nodes'])} "
                  f"links={len(doc['links'])}")
        with open(tree, "w") as fp:
            fp.write(header + "\n" + new_payload)
        assert main(["fsck", built_dir]) == 2
        assert "issue" in capsys.readouterr().out

    def test_unreadable_tree_exits_one(self, tmp_path):
        bad = tmp_path / "bad.qct"
        bad.write_text("garbage")
        assert main(["fsck", str(bad)]) == 1

    def test_negative_samples_is_a_usage_error(self, built_dir, capsys):
        """``--samples -3`` used to reach ``random.sample`` and report a
        clean store as corrupt (exit 2, ``fsck-crashed``)."""
        with pytest.raises(SystemExit) as exc_info:
            main(["fsck", built_dir, "--samples", "-3"])
        assert exc_info.value.code == 1
        err = capsys.readouterr().err
        assert err.count("error:") == 1
        assert "argument --samples: must be" in err
