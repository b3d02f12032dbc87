"""Tests for the cover-partition DFS (repro.core.classes).

The paper's Figure 6 lists the exact temporary classes for the running
example; we reproduce that table and check the DFS's structural
invariants against the brute-force oracle on random inputs.
"""

import hashlib

import pytest

from repro.core import classes
from repro.core.cells import ALL, generalizes
from repro.core.classes import enumerate_temp_classes
from repro.core.construct import build_qctree
from repro.core.explore import class_of
from repro.cube.lattice import closed_cells, closure
from repro.data.synthetic import zipf_table
from tests.conftest import make_random_table


def _decode(table, cell):
    return table.decode_cell(cell)


class TestPaperExample:
    def test_figure6_temp_classes(self, sales_table):
        temp = enumerate_temp_classes(sales_table, ("avg", "Sale"))
        rows = {
            (_decode(sales_table, t.upper_bound),
             _decode(sales_table, t.lower_bound)): t
            for t in temp
        }
        # The eleven rows of Figure 6.  The paper's step 5 expands from the
        # closure d, so instantiated cells inherit closure-filled values:
        # where Figure 6 prints lower bounds (S1, P1, *) / (S1, P2, *), the
        # expansion cell carries the season forced by closure (S1, *, s).
        # Upper bounds, partitions, aggregates, and link dimensions are
        # identical under either convention.
        expected = {
            (("*", "*", "*"), ("*", "*", "*")),
            (("*", "P1", "*"), ("*", "P1", "*")),
            (("S1", "*", "s"), ("S1", "*", "*")),
            (("S1", "*", "s"), ("*", "*", "s")),
            (("S1", "P1", "s"), ("S1", "P1", "s")),
            (("S1", "P1", "s"), ("*", "P1", "s")),
            (("S1", "P2", "s"), ("S1", "P2", "s")),
            (("S1", "P2", "s"), ("*", "P2", "*")),
            (("S2", "P1", "f"), ("S2", "*", "*")),
            (("S2", "P1", "f"), ("*", "P1", "f")),
            (("S2", "P1", "f"), ("*", "*", "f")),
        }
        assert set(rows) == expected
        assert len(temp) == 11

    def test_figure6_aggregates(self, sales_table):
        from repro.cube.aggregates import make_aggregate

        agg = make_aggregate(("avg", "Sale"))
        temp = enumerate_temp_classes(sales_table, agg)
        by_ub = {}
        for t in temp:
            by_ub.setdefault(_decode(sales_table, t.upper_bound),
                             agg.value(t.state))
        assert by_ub[("*", "*", "*")] == 9.0
        assert by_ub[("*", "P1", "*")] == 7.5
        assert by_ub[("S1", "P1", "s")] == 6.0
        assert by_ub[("S1", "P2", "s")] == 12.0

    def test_figure6_child_links(self, sales_table):
        temp = enumerate_temp_classes(sales_table, "count")
        by_id = {t.class_id: t for t in temp}
        for t in temp:
            if t.child_id == -1:
                assert t.lower_bound == (ALL, ALL, ALL)
            else:
                child = by_id[t.child_id]
                # The lower bound is the child's upper bound with exactly
                # one more dimension instantiated.
                diff = [
                    j
                    for j in range(3)
                    if child.upper_bound[j] != t.lower_bound[j]
                ]
                assert len(diff) == 1
                assert child.upper_bound[diff[0]] is ALL


def stream_digest(temp) -> str:
    """sha256 of the ``(class_id, ub, lb, child_id, repr(state))`` stream."""
    stream = [(t.class_id, t.upper_bound, t.lower_bound, t.child_id,
               repr(t.state)) for t in temp]
    return hashlib.sha256(repr(stream).encode()).hexdigest()


class TestGoldenStream:
    def test_zipf_sum_stream_digest(self):
        # Recorded from the recursive Python DFS this partitioner
        # replaced; reproduce with
        #   PYTHONPATH=src python -c "from tests.test_classes_dfs import *;
        #   print(stream_digest(enumerate_temp_classes(
        #   zipf_table(2000, 6, 30, seed=0), ('sum', 'M0'))))"
        # It pins class ids (preorder, children by dimension then value),
        # bounds, lattice children and every sum to the last bit.
        temp = enumerate_temp_classes(zipf_table(2000, 6, 30, seed=0),
                                      ("sum", "M0"))
        assert len(temp) == 15000
        assert stream_digest(temp) == (
            "fbcbbf83a6d9519665dc8c0dc1cfb59ded24331b4f2f657f5dae18267044f382")


class TestInvariants:
    @pytest.mark.parametrize("seed", range(25))
    def test_upper_bounds_are_exactly_closed_cells(self, seed):
        table = make_random_table(seed)
        temp = enumerate_temp_classes(table, "count")
        assert {t.upper_bound for t in temp} == closed_cells(table)

    @pytest.mark.parametrize("seed", range(25))
    def test_upper_bound_is_closure_of_lower_bound(self, seed):
        table = make_random_table(seed + 100)
        for t in enumerate_temp_classes(table, "count"):
            assert closure(table, t.lower_bound) == t.upper_bound
            assert generalizes(t.lower_bound, t.upper_bound)

    @pytest.mark.parametrize("seed", range(10))
    def test_states_match_cover_aggregates(self, seed):
        from repro.cube.aggregates import make_aggregate

        table = make_random_table(seed + 200)
        agg = make_aggregate(("sum", "m"))
        for t in enumerate_temp_classes(table, agg):
            rows = table.select(t.upper_bound)
            assert abs(t.state - agg.state(table, rows)) < 1e-9

    def test_each_class_expanded_once(self):
        # Redundant (pruned) rediscoveries are recorded but never expanded:
        # the number of temp classes stays polynomial in practice, and the
        # first record per upper bound is the expansion.
        table = make_random_table(7, n_dims=4, cardinality=3, n_rows=10)
        temp = enumerate_temp_classes(table, "count")
        firsts = {}
        for t in temp:
            firsts.setdefault(t.upper_bound, 0)
            firsts[t.upper_bound] += 1
        assert all(count >= 1 for count in firsts.values())

    def test_empty_table(self):
        table = make_random_table(0, n_rows=1).without_rows([0])
        assert enumerate_temp_classes(table, "count") == []

    @pytest.mark.parametrize("seed", range(10))
    def test_working_chunks_do_not_change_the_stream(self, seed,
                                                     monkeypatch):
        # A level is closed, summed and split in chunks of rows; chunk
        # boundaries falling inside every level must not show.
        table = make_random_table(seed + 400, n_rows=40)
        whole = enumerate_temp_classes(table, ("avg", "m"))
        monkeypatch.setattr(classes, "_CHUNK", 3)
        assert enumerate_temp_classes(table, ("avg", "m")) == whole


class TestPartitionClosure:
    """The closure jump — a ``*`` dimension takes the value every row of
    the cell's partition shares — as the built tree reports it: a cell's
    class upper bound is its closure."""

    def _upper_bound(self, table, raw_cell):
        tree = build_qctree(table, "count")
        view = class_of(tree, table.encode_cell(raw_cell))
        return table.decode_cell(view.upper_bound)

    def test_fills_constant_dimensions(self, sales_table):
        assert self._upper_bound(sales_table, ("S1", "*", "*")) == (
            "S1", "*", "s")

    def test_keeps_existing_values(self, sales_table):
        assert self._upper_bound(sales_table, ("*", "P1", "*")) == (
            "*", "P1", "*")

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_oracle_closure(self, seed):
        table = make_random_table(seed + 300)
        tree = build_qctree(table, "count")
        from tests.conftest import all_cells

        for cell in all_cells(table):
            if table.select(cell):
                assert class_of(tree, cell).upper_bound == closure(
                    table, cell
                )
