"""Tests for the dictionary-encoded base table (repro.cube.table)."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cells import ALL
from repro.core.maintenance.delete import resolve_deletions
from repro.cube.schema import Schema
from repro.cube.table import BaseTable
from repro.data.workloads import point_query_workload, range_query_workload
from repro.errors import MaintenanceError, SchemaError
from tests.conftest import write_csv


@pytest.fixture
def schema():
    return Schema(dimensions=("A", "B"), measures=("m",))


@pytest.fixture
def table(schema):
    return BaseTable.from_records(
        [("x", "p", 1.0), ("y", "q", 2.0), ("x", "q", 3.0)], schema
    )


class TestFromRecords:
    def test_shape(self, table):
        assert table.n_rows == 3
        assert table.n_dims == 2
        assert len(table) == 3

    def test_encoding_is_sorted_by_label(self, table):
        # labels p < q; x < y
        assert table.encode_value(0, "x") == 0
        assert table.encode_value(0, "y") == 1
        assert table.encode_value(1, "p") == 0
        assert table.encode_value(1, "q") == 1

    def test_encoding_stable_under_permutation(self, schema):
        records = [("x", "p", 1.0), ("y", "q", 2.0), ("x", "q", 3.0)]
        t1 = BaseTable.from_records(records, schema)
        t2 = BaseTable.from_records(list(reversed(records)), schema)
        assert sorted(t1.rows) == sorted(t2.rows)
        assert t1._decoders == t2._decoders

    def test_duplicates_preserved(self, schema):
        t = BaseTable.from_records([("x", "p", 1.0)] * 3, schema)
        assert t.n_rows == 3

    def test_wrong_width_rejected(self, schema):
        with pytest.raises(SchemaError):
            BaseTable.from_records([("x", "p")], schema)

    def test_measures_matrix(self, table):
        assert table.measures.shape == (3, 1)
        assert table.measures[2, 0] == 3.0

    @pytest.mark.parametrize("bad", [float("inf"), float("-inf"),
                                     float("nan")])
    def test_non_finite_measure_rejected(self, schema, bad):
        """An exact aggregate state holds finite numbers only: the
        table names the record and the measure."""
        with pytest.raises(SchemaError, match=r"record \('y', 'q', "
                           r".*\) has the non-finite measure 'm'"):
            BaseTable.from_records([("x", "p", 1.0), ("y", "q", bad)],
                                   schema)


class TestFromEncoded:
    def test_roundtrip(self, schema):
        t = BaseTable.from_encoded([(0, 1), (2, 0)], [[1.0], [2.0]], schema)
        assert t.rows == [(0, 1), (2, 0)]
        assert t.cardinalities() == (3, 2)

    def test_explicit_cardinalities(self, schema):
        t = BaseTable.from_encoded([(0, 0)], [[1.0]], schema,
                                   cardinalities=[10, 5])
        assert t.cardinalities() == (10, 5)

    def test_empty(self, schema):
        t = BaseTable.from_encoded([], [], schema, cardinalities=[2, 2])
        assert t.n_rows == 0

    def test_wrong_width_rejected(self, schema):
        with pytest.raises(SchemaError):
            BaseTable.from_encoded([(0,)], [[1.0]], schema)

    def test_negative_code_rejected(self, schema):
        # -1 stands for ``*`` in the construction's code matrix; it used
        # to be accepted and decode to the last label of the dimension.
        with pytest.raises(SchemaError, match="outside"):
            BaseTable.from_encoded([(0, -1)], [[1.0]], schema,
                                   cardinalities=[2, 2])

    def test_code_at_cardinality_rejected(self, schema):
        # It used to be accepted and fail only at decode (IndexError).
        with pytest.raises(SchemaError, match="outside"):
            BaseTable.from_encoded([(2, 0)], [[1.0]], schema,
                                   cardinalities=[2, 2])


class TestEncodingApi:
    def test_encode_cell_with_stars(self, table):
        assert table.encode_cell(("x", "*", )) == (0, ALL)
        assert table.encode_cell((None, "q")) == (ALL, 1)
        assert table.encode_cell((ALL, "q")) == (ALL, 1)

    def test_encode_cell_unknown_label(self, table):
        with pytest.raises(SchemaError):
            table.encode_cell(("z", "*"))

    def test_encode_cell_wrong_arity(self, table):
        with pytest.raises(SchemaError):
            table.encode_cell(("x",))

    def test_decode_cell(self, table):
        assert table.decode_cell((0, ALL)) == ("x", "*")

    def test_iter_records(self, table):
        records = list(table.iter_records())
        assert records[0][:2] == ("x", "p")
        assert records[0][2] == 1.0


class TestSelect:
    def test_select_all(self, table):
        assert table.select((ALL, ALL)) == [0, 1, 2]

    def test_select_value(self, table):
        assert table.select((0, ALL)) == [0, 2]

    def test_select_empty(self, table):
        assert table.select((1, 0)) == []


class TestDerivation:
    def test_extended_appends_fresh_codes(self, table):
        new, delta = table.extended([("z", "p", 4.0)])
        assert new.n_rows == 4
        assert new.encode_value(0, "x") == 0  # old codes preserved
        assert new.encode_value(0, "z") == 2  # fresh code appended
        assert delta.n_rows == 1
        assert delta.rows[0] == (2, 0)

    def test_extended_empty(self, table):
        new, delta = table.extended([])
        assert new.n_rows == 3 and delta.n_rows == 0

    def test_extended_wrong_width(self, table):
        with pytest.raises(SchemaError):
            table.extended([("z", "p")])

    def test_without_rows(self, table):
        t = table.without_rows([1])
        assert t.n_rows == 2
        assert t.rows == [table.rows[0], table.rows[2]]
        assert list(t.measures[:, 0]) == [1.0, 3.0]

    def test_without_rows_out_of_range(self, table):
        with pytest.raises(SchemaError):
            table.without_rows([99])
        with pytest.raises(SchemaError, match=r"\[-1\]"):
            table.without_rows([0, -1])

    def test_without_rows_keeps_order(self):
        schema = Schema(dimensions=("A",), measures=("m",))
        table = BaseTable.from_records(
            [(f"v{i}", float(i)) for i in range(10)], schema)
        t = table.without_rows([7, 2, 5])
        assert t.rows == [table.rows[i] for i in (0, 1, 3, 4, 6, 8, 9)]
        assert list(t.measures[:, 0]) == [0.0, 1.0, 3.0, 4.0, 6.0, 8.0, 9.0]
        assert table.n_rows == 10  # the original is untouched

    def test_without_rows_duplicate_indices(self, table):
        t = table.without_rows([1, 1, 1])
        assert t.rows == [table.rows[0], table.rows[2]]
        assert list(t.measures[:, 0]) == [1.0, 3.0]

    def test_without_rows_drops_everything(self, table):
        t = table.without_rows(range(table.n_rows))
        assert t.n_rows == 0 and t.rows == []
        assert t.measures.shape == (0, table.measures.shape[1])

    def test_subset(self, table):
        t = table.subset([2, 0])
        assert t.rows == [table.rows[2], table.rows[0]]

    def test_projected(self, table):
        t = table.projected(("B",))
        assert t.n_dims == 1
        assert t.schema.dimension_names == ("B",)
        assert t.n_rows == 3

    def test_reordered(self, table):
        t = table.reordered(("B", "A"))
        assert t.schema.dimension_names == ("B", "A")
        decoded = {tuple(r[:2]) for r in t.iter_records()}
        assert decoded == {("p", "x"), ("q", "y"), ("q", "x")}


class TestCsv:
    def test_roundtrip(self, table, schema, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(table, path)
        loaded = BaseTable.from_csv(path, schema)
        assert loaded.n_rows == table.n_rows
        assert sorted(tuple(r[:2]) for r in loaded.iter_records()) == sorted(
            tuple(r[:2]) for r in table.iter_records()
        )

    @pytest.mark.parametrize("bad", ["inf", "-inf", "nan"])
    def test_non_finite_measure_rejected(self, schema, bad):
        text = f"A,B,m\nx,p,1.0\ny,q,{bad}\n"
        with pytest.raises(SchemaError, match=r"record \('y', 'q', "
                           f"'{bad}'\\) has the non-finite measure 'm'"):
            BaseTable.parse_csv(text, schema)

    def test_header_mismatch_rejected(self, table, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(table, path)
        other = Schema(dimensions=("X", "Y"), measures=("m",))
        with pytest.raises(SchemaError):
            BaseTable.from_csv(path, other)


# -- the table operations on arrays, against a per-row tuple scan ----------

LABELS = (("a", "b", "c", "d"), ("p", "q", "r"), (3, 1, 2))
DIFF_SCHEMA = Schema(dimensions=("A", "B", "C"), measures=("m",))

#: Records over a small alphabet, so rows repeat.
records_strategy = st.lists(
    st.tuples(*(st.sampled_from(labels) for labels in LABELS),
              st.integers(0, 9).map(float)),
    min_size=1, max_size=14,
)


def _plain(rows) -> bool:
    """Every row a tuple of Python ints (no NumPy scalar leaked)."""
    return all(type(row) is tuple and all(type(v) is int for v in row)
               for row in rows)


def _scan_codes(records, dims=range(3)) -> list:
    """Each record's labels at ``dims`` as codes of the labels the
    records use there, in dictionary order: a per-row tuple scan."""
    codes = [{label: code for code, label in enumerate(
        sorted({r[j] for r in records}, key=lambda v: (type(v).__name__, v)))}
        for j in dims]
    return [tuple(code[r[j]] for code, j in zip(codes, dims))
            for r in records]


class TestArrayOperationsAgainstAScan:
    @given(records_strategy, st.tuples(
        *(st.sampled_from(("*",) + labels) for labels in LABELS)))
    @settings(max_examples=80, deadline=None)
    def test_select(self, records, raw_cell):
        table = BaseTable.from_records(records, DIFF_SCHEMA)
        try:
            cell = table.encode_cell(raw_cell)
        except SchemaError:
            return  # a label no record holds: nothing to select
        want = [i for i, r in enumerate(records)
                if all(v == "*" or v == r[j] for j, v in enumerate(raw_cell))]
        got = table.select(cell)
        assert got == want
        assert all(type(i) is int for i in got)

    @given(records_strategy, st.lists(
        st.tuples(*(st.sampled_from(labels + extra) for labels, extra in
                    zip(LABELS, (("e",), (), ())))), max_size=6))
    @settings(max_examples=120, deadline=None)
    def test_resolve_deletions(self, records, deletes):
        table = BaseTable.from_records(records, DIFF_SCHEMA)
        wanted = Counter(deletes)
        drop = []
        for i, r in enumerate(records):  # earliest match first
            if wanted[r[:3]] > 0:
                wanted[r[:3]] -= 1
                drop.append(i)
        if +wanted:
            with pytest.raises(MaintenanceError):
                resolve_deletions(table, [d + (0.0,) for d in deletes])
            return
        new, delta = resolve_deletions(table, [d + (0.0,) for d in deletes])
        assert delta.positions == drop
        assert list(delta) == [_scan_codes(records)[i] for i in drop]
        assert _plain(delta)
        assert delta.codes.tolist() == [list(row) for row in delta]
        assert list(delta.measures[:, 0]) == [records[i][3] for i in drop]
        kept = [r for i, r in enumerate(records) if i not in set(drop)]
        assert list(new.iter_records()) == kept

    @given(records_strategy, st.data())
    @settings(max_examples=80, deadline=None)
    def test_without_rows_and_subset(self, records, data):
        table = BaseTable.from_records(records, DIFF_SCHEMA)
        scan = _scan_codes(records)
        positions = st.integers(0, len(records) - 1)
        drop = data.draw(st.lists(positions, max_size=len(records)))
        kept = table.without_rows(drop)
        assert kept.rows == [row for i, row in enumerate(scan)
                             if i not in set(drop)]
        assert _plain(kept.rows)
        picks = data.draw(st.lists(positions, max_size=8))
        picked = table.subset(picks)
        assert picked.rows == [scan[i] for i in picks]
        assert list(picked.measures[:, 0]) == [records[i][3] for i in picks]
        assert _plain(picked.rows)

    @given(records_strategy, st.lists(
        st.tuples(st.sampled_from(("a", "zz", "e")),
                  st.sampled_from(("q", "o")), st.sampled_from((2, 0, 7)),
                  st.just(5.0)), max_size=5))
    @settings(max_examples=80, deadline=None)
    def test_extended_mints_fresh_labels_after_the_old(self, records, more):
        table = BaseTable.from_records(records, DIFF_SCHEMA)
        combined, delta = table.extended(more)
        codes = []
        for j in range(3):
            old = sorted({r[j] for r in records},
                         key=lambda v: (type(v).__name__, v))
            fresh = sorted({r[j] for r in more}.difference(old),
                           key=lambda v: (type(v).__name__, v))
            codes.append({label: code
                          for code, label in enumerate(old + fresh)})
        want = [tuple(codes[j][r[j]] for j in range(3)) for r in more]
        assert delta.rows == want
        assert combined.rows == _scan_codes(records) + want
        assert _plain(combined.rows)
        assert list(combined.iter_records()) == records + more

    @given(records_strategy, st.permutations(range(3)), st.integers(1, 3))
    @settings(max_examples=80, deadline=None)
    def test_projected_and_reordered(self, records, order, keep):
        table = BaseTable.from_records(records, DIFF_SCHEMA)
        dims = order[:keep]
        projected = table.projected(dims)
        assert projected.rows == _scan_codes(records, dims)
        assert _plain(projected.rows)
        assert list(projected.iter_records()) == [
            tuple(r[j] for j in dims) + r[3:] for r in records]
        reordered = table.reordered(order)
        assert reordered.rows == _scan_codes(records, order)
        assert _plain(reordered.rows)

    @given(records_strategy)
    @settings(max_examples=40, deadline=None)
    def test_workload_cells_hold_python_ints(self, records):
        table = BaseTable.from_records(records, DIFF_SCHEMA)
        for cell in point_query_workload(table, 20, seed=1):
            assert all(v is ALL or type(v) is int for v in cell)
        for spec in range_query_workload(table, 10, seed=1):
            for v in spec:
                assert v is ALL or type(v) is int or all(
                    type(x) is int for x in v)

    def test_resolve_deletions_when_row_keys_collide(self):
        """Nine dimensions of 256 labels each: the ninth stride is 2**64,
        so rows that differ only there share a wrapped key, and matching
        still takes the equal row alone."""
        schema = Schema(dimensions=tuple("ABCDEFGHI"), measures=("m",))
        records = [(i,) * 9 + (float(i),) for i in range(256)]
        twin = (0,) * 8 + (1, 99.0)  # row 0's key, another row
        table = BaseTable.from_records(records + [twin], schema)
        new, delta = resolve_deletions(table, [records[0]])
        assert delta.positions == [0]
        assert list(new.iter_records()) == records[1:] + [twin]
        new, delta = resolve_deletions(table, [twin])
        assert delta.positions == [256]
        with pytest.raises(MaintenanceError):
            resolve_deletions(table, [records[0]] * 2)
