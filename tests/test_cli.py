"""Tests for the command-line interface (python -m repro)."""

import pytest

from repro.__main__ import main, parse_cell, parse_range


@pytest.fixture
def sales_csv(tmp_path, sales_table):
    path = tmp_path / "sales.csv"
    sales_table.to_csv(path)
    return str(path)


@pytest.fixture
def built_tree(tmp_path, sales_csv):
    out = str(tmp_path / "sales.qct")
    code = main([
        "build", sales_csv,
        "--dims", "Store,Product,Season",
        "--measures", "Sale",
        "--aggregate", "avg(Sale)",
        "--out", out,
    ])
    assert code == 0
    return out


class TestParsing:
    def test_parse_cell(self):
        assert parse_cell("S2, *, f") == ("S2", "*", "f")

    def test_parse_range(self):
        assert parse_range("S1|S2, *, f") == (["S1", "S2"], "*", "f")

    def test_parse_range_single_values(self):
        assert parse_range("S1,*") == ("S1", "*")


class TestCommands:
    def test_build_and_stats(self, built_tree, capsys):
        assert main(["stats", built_tree]) == 0
        out = capsys.readouterr().out
        assert "classes: 6" in out
        assert "avg(Sale)" in out

    def test_point_hit(self, built_tree, sales_csv, capsys):
        assert main(["point", built_tree, "--table", sales_csv,
                     "S2,*,f"]) == 0
        assert capsys.readouterr().out.strip() == "9.0"

    def test_point_null(self, built_tree, sales_csv, capsys):
        assert main(["point", built_tree, "--table", sales_csv,
                     "S2,*,s"]) == 0
        assert capsys.readouterr().out.strip() == "NULL"

    def test_range(self, built_tree, sales_csv, capsys):
        assert main(["range", built_tree, "--table", sales_csv,
                     "S1|S2,*,*"]) == 0
        out = capsys.readouterr().out
        assert "S1,*,*\t9.0" in out
        assert "S2,*,*\t9.0" in out

    def test_iceberg(self, built_tree, sales_csv, capsys):
        assert main(["iceberg", built_tree, "--table", sales_csv,
                     "--threshold", "10"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out == ["S1,P2,s\t12.0"]

    def test_dump(self, built_tree, sales_csv, capsys):
        assert main(["dump", built_tree, "--table", sales_csv]) == 0
        out = capsys.readouterr().out
        assert "Root" in out and "Store=S1" in out

    def test_saved_warehouse_answers_like_the_api(self, tmp_path, capsys):
        """Labels appended out of sorted order: the CLI must re-encode
        the CSV to the tree's codes, as ``QCWarehouse.load`` does."""
        from repro import QCWarehouse, Schema

        schema = Schema(dimensions=("A", "B"), measures=("m",))
        wh = QCWarehouse.from_records(
            [("b", "x", 1.0), ("c", "y", 2.0)], schema, ("sum", "m"))
        wh.insert([("a", "z", 5.0)])
        tree, table = str(tmp_path / "t.qct"), str(tmp_path / "t.csv")
        wh.save(tree, table)
        for cell in ("a,*", "b,*", "c,*", "*,z"):
            assert main(["point", tree, "--table", table, cell]) == 0
            want = wh.point(tuple(cell.split(",")))
            assert capsys.readouterr().out.strip() == str(want), cell
        assert main(["range", tree, "--table", table, "a|b|c,*"]) == 0
        got = dict(line.split("\t")
                   for line in capsys.readouterr().out.splitlines())
        want = wh.range((["a", "b", "c"], "*"))
        assert got == {",".join(c): str(v) for c, v in want.items()}
        # fsck checks the stored tree under the same pairing.
        assert main(["fsck", tree, "--table", table, "--samples", "0"]) == 0

    def test_built_tree_carries_its_label_dictionaries(self, built_tree):
        from repro.core.serialize import load_qctree_from

        assert load_qctree_from(built_tree).snapshot_labels is not None

    def test_missing_file_is_error_not_traceback(self, tmp_path, capsys):
        code = main(["stats", str(tmp_path / "nope.qct")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_corrupt_tree_is_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.qct"
        bad.write_text("garbage\n{}")
        assert main(["stats", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "error:" in err
        assert str(bad) in err  # the failing path is named

    def test_empty_tree_file_is_error(self, tmp_path, capsys):
        empty = tmp_path / "empty.qct"
        empty.write_text("")
        assert main(["stats", str(empty)]) == 1
        assert "error:" in capsys.readouterr().err


class TestVersion:
    def test_version_flag(self, capsys):
        import repro

        with pytest.raises(SystemExit) as exc_info:
            main(["--version"])
        assert exc_info.value.code == 0
        assert repro.__version__ in capsys.readouterr().out


class TestServeCommand:
    def run_serve(self, built_tree, sales_csv, monkeypatch, capsys, script,
                  extra=()):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(script))
        code = main(["serve", built_tree, "--table", sales_csv,
                     "--workers", "2", *extra])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_point_range_and_quit(self, built_tree, sales_csv, monkeypatch,
                                  capsys):
        code, out, err = self.run_serve(
            built_tree, sales_csv, monkeypatch, capsys,
            "point S2,*,f\npoint S2,*,s\nrange S1|S2,*,*\nquit\n",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "9.0"
        assert lines[1] == "NULL"
        assert "S1,*,*\t9.0" in lines
        assert "# 2 cells" in lines
        assert "serving" in err  # banner goes to stderr, not the protocol

    def test_exploration_and_stats(self, built_tree, sales_csv, monkeypatch,
                                   capsys):
        import json

        code, out, _ = self.run_serve(
            built_tree, sales_csv, monkeypatch, capsys,
            "rollup S2,P1,f\nclass *,P1,*\nopen S2,P1,f\nstats\nquit\n",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert "*,*,*\t9.0" in lines
        assert "*,P1,*\t7.5" in lines
        stats = json.loads(lines[-1])
        assert stats["counters"]["completed"] == 3
        assert stats["snapshot"]["frozen"] is True

    def test_insert_becomes_visible(self, built_tree, sales_csv, monkeypatch,
                                    capsys):
        code, out, _ = self.run_serve(
            built_tree, sales_csv, monkeypatch, capsys,
            "point S3,P1,s\ninsert S3,P1,s,5.0\npoint S3,P1,s\nquit\n",
        )
        assert code == 0
        assert out.strip().splitlines() == ["NULL", "OK", "5.0"]

    def test_bad_command_keeps_serving(self, built_tree, sales_csv,
                                       monkeypatch, capsys):
        code, out, _ = self.run_serve(
            built_tree, sales_csv, monkeypatch, capsys,
            "frobnicate\nrollup S9,*,*\npoint S2,*,f\nquit\n",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("error:")
        assert lines[1].startswith("error:")
        assert lines[2] == "9.0"

    def test_malformed_range_keeps_serving(self, built_tree, sales_csv,
                                           monkeypatch, capsys):
        """One position too many used to leave ``encode_range`` as a bare
        ``IndexError`` the stdin loop does not catch; one too few named
        dictionary codes instead of the caller's labels."""
        code, out, _ = self.run_serve(
            built_tree, sales_csv, monkeypatch, capsys,
            "range S1|S2,*,*,P1\nrange S1|S2,*\npoint S2,*,f\n",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("error: QueryError: ")
        assert "4 positions" in lines[0]
        assert lines[1].startswith("error: QueryError: ")
        assert "['S1', 'S2']" in lines[1]
        assert lines[2] == "9.0"

    def test_non_numeric_measure_keeps_serving(self, built_tree, sales_csv,
                                               monkeypatch, capsys):
        """``float("x")``'s bare ``ValueError`` used to kill the stdin
        loop with a traceback."""
        code, out, _ = self.run_serve(
            built_tree, sales_csv, monkeypatch, capsys,
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
    ], ids=" ".join)
    def test_out_of_range_flag_is_a_usage_error(self, built_tree, sales_csv,
                                                capsys, flags):
        """Exit 1 with one ``error:`` line — these used to reach a
        constructor and die with a ``ValueError`` / ``OverflowError``
        traceback (``--seal-rows 0`` was silently accepted)."""
        with pytest.raises(SystemExit) as exc_info:
            main(["serve", built_tree, "--table", sales_csv, *flags])
        assert exc_info.value.code == 1
        err = capsys.readouterr().err
        assert err.count("error:") == 1
        assert f"argument {flags[-2]}: must be" in err

    def test_eof_closes_cleanly(self, built_tree, sales_csv, monkeypatch,
                                capsys):
        import threading

        code, out, _ = self.run_serve(
            built_tree, sales_csv, monkeypatch, capsys, "point S2,*,f\n"
        )
        assert code == 0
        assert out.strip() == "9.0"
        assert not any(t.name.startswith("qcserver")
                       for t in threading.enumerate())


class TestFsckCommand:
    def test_clean_tree_exits_zero(self, built_tree, sales_csv, capsys):
        assert main(["fsck", built_tree, "--table", sales_csv]) == 0
        assert "clean" in capsys.readouterr().out

    def test_clean_tree_without_table(self, built_tree, capsys):
        assert main(["fsck", built_tree]) == 0
        assert "clean" in capsys.readouterr().out

    def test_corrupted_node_table_exits_two(self, built_tree, capsys):
        import json
        import zlib

        with open(built_tree) as fp:
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
        with open(built_tree, "w") as fp:
            fp.write(header + "\n" + new_payload)
        assert main(["fsck", built_tree]) == 2
        assert "issue" in capsys.readouterr().out

    def test_unreadable_tree_exits_one(self, tmp_path):
        bad = tmp_path / "bad.qct"
        bad.write_text("garbage")
        assert main(["fsck", str(bad)]) == 1
