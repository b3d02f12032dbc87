"""Tests for iceberg queries (§4.3): pure via the measure index, and the
two constrained strategies (filter / mark)."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.cells import ALL
from repro.core.construct import build_qctree
from repro.core.iceberg import (
    MeasureIndex, _satisfies, constrained_iceberg, pure_iceberg,
)
from repro.core.piece import Piece
from repro.core.range_query import range_query
from repro.core.warehouse import QCWarehouse
from repro.cube.lattice import full_cube
from repro.cube.schema import Schema
from repro.cube.table import BaseTable
from repro.errors import QueryError, SchemaError
from repro.segments import SegmentedWarehouse
from tests.conftest import make_random_table

NAN, INF = float("nan"), float("inf")
OPS = (">=", ">", "<=", "<")


class TestMeasureIndex:
    def test_indexes_every_class(self, sales_table):
        tree = build_qctree(sales_table, ("avg", "Sale"))
        index = MeasureIndex(tree)
        assert len(index) == tree.n_classes

    def test_nodes_satisfying_operators(self, sales_table):
        tree = build_qctree(sales_table, ("avg", "Sale"))
        index = MeasureIndex(tree)
        values = lambda nodes: sorted(tree.value_at(n) for n in nodes)
        assert values(index.nodes_satisfying(9, ">=")) == [9.0, 9.0, 9.0, 12.0]
        assert values(index.nodes_satisfying(9, ">")) == [12.0]
        assert values(index.nodes_satisfying(7.5, "<=")) == [6.0, 7.5]
        assert values(index.nodes_satisfying(7.5, "<")) == [6.0]

    def test_unknown_operator_rejected(self, sales_table):
        tree = build_qctree(sales_table, "count")
        with pytest.raises(QueryError):
            MeasureIndex(tree).nodes_satisfying(1, "==")

    def test_multi_aggregate_ranks_by_first_part(self, sales_table):
        tree = build_qctree(sales_table, [("sum", "Sale"), "count"])
        index = MeasureIndex(tree)
        assert len(index) == tree.n_classes
        got = sorted(tree.value_at(n) for n in index.nodes_satisfying(18))
        assert got == [(18.0, 2), (27.0, 3)]


class TestPureIceberg:
    def test_paper_example(self, sales_table):
        tree = build_qctree(sales_table, ("avg", "Sale"))
        result = pure_iceberg(tree, 9)
        decoded = {
            sales_table.decode_cell(ub): value for ub, value in result
        }
        assert decoded == {
            ("*", "*", "*"): 9.0,
            ("S1", "*", "s"): 9.0,
            ("S1", "P2", "s"): 12.0,
            ("S2", "P1", "f"): 9.0,
        }

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_class_scan(self, seed):
        table = make_random_table(seed)
        tree = build_qctree(table, ("sum", "m"))
        threshold = 10.0
        result = dict(pure_iceberg(tree, threshold))
        expected = {
            ub: value
            for ub, value in tree.class_upper_bounds().items()
            if value >= threshold
        }
        assert result == expected

    @pytest.mark.parametrize("seed", range(5))
    def test_classes_stand_for_all_member_cells(self, seed):
        # Every *cell* whose aggregate clears the threshold belongs to a
        # returned class, and vice versa (class value == member value).
        table = make_random_table(seed + 30, n_dims=3, cardinality=3)
        tree = build_qctree(table, "count")
        threshold = 2
        satisfying_ubs = {ub for ub, _ in pure_iceberg(tree, threshold)}
        oracle = full_cube(table, "count")
        from repro.cube.lattice import closure

        for cell, value in oracle.items():
            assert (value >= threshold) == (
                closure(table, cell) in satisfying_ubs
            )

    def test_reused_index(self, sales_table):
        tree = build_qctree(sales_table, ("avg", "Sale"))
        index = MeasureIndex(tree)
        assert pure_iceberg(tree, 9, index=index) == pure_iceberg(tree, 9)


class TestConstrainedIceberg:
    @pytest.mark.parametrize("strategy", ["filter", "mark"])
    def test_matches_range_plus_filter_oracle(self, strategy):
        for seed in range(12):
            table = make_random_table(seed)
            tree = build_qctree(table, ("sum", "m"))
            rng = random.Random(seed)
            spec = []
            for j in range(table.n_dims):
                cj = table.cardinality(j)
                roll = rng.random()
                if roll < 0.4:
                    spec.append(ALL)
                else:
                    spec.append(
                        sorted(rng.sample(range(cj), min(cj, rng.randint(1, 3))))
                    )
            threshold = 15.0
            expected = {
                cell: value
                for cell, value in range_query(tree, spec).items()
                if value >= threshold
            }
            got = constrained_iceberg(
                tree, spec, threshold, strategy=strategy
            )
            assert got == expected, f"seed {seed} strategy {strategy}"

    def test_strategies_agree(self, sales_table):
        tree = build_qctree(sales_table, ("avg", "Sale"))
        spec = ([0, 1], ALL, ALL)
        a = constrained_iceberg(tree, spec, 9, strategy="filter")
        b = constrained_iceberg(tree, spec, 9, strategy="mark")
        assert a == b

    def test_mark_with_no_satisfying_classes(self, sales_table):
        tree = build_qctree(sales_table, ("avg", "Sale"))
        assert constrained_iceberg(
            tree, (ALL, ALL, ALL), 1e9, strategy="mark"
        ) == {}

    def test_unknown_strategy_rejected(self, sales_table):
        tree = build_qctree(sales_table, "count")
        with pytest.raises(QueryError):
            constrained_iceberg(tree, (ALL, ALL, ALL), 1, strategy="wat")

    def test_below_threshold_operator(self, sales_table):
        tree = build_qctree(sales_table, ("avg", "Sale"))
        got = constrained_iceberg(tree, (ALL, [0, 1], ALL), 7.5, op="<=")
        decoded = {sales_table.decode_cell(c): v for c, v in got.items()}
        assert decoded == {("*", "P1", "*"): 7.5}

    @pytest.mark.parametrize("strategy", ["filter", "mark"])
    def test_unknown_operator_rejected_on_any_range(self, strategy):
        """An unknown operator is refused whether or not the range holds
        anything, on one piece and on several (the served filtered
        range) and by either kernel plan, and no empty answer is cached
        for it."""
        schema = Schema(dimensions=("A", "B"), measures=("m",))
        records = [("a", "b", 1.0), ("a", "c", 2.0), ("d", "b", 3.0)]
        mono = QCWarehouse.from_records(records, schema, ("sum", "m"))
        seg = _two_pieces(records, schema)
        table = BaseTable.from_records(records, schema)
        tree = build_qctree(table, ("sum", "m"))
        for spec in ((["a"], "*"), (["zz"], "*")):
            for wh in (mono, seg):
                for _ in range(2):
                    with pytest.raises(QueryError, match="operator '!!'"):
                        wh.iceberg_in_range(spec, 1, op="!!")
        for codes in (([0], ALL), ([table.cardinality(0) + 5], ALL)):
            with pytest.raises(QueryError, match="operator '!!'"):
                constrained_iceberg(tree, codes, 1, op="!!",
                                    strategy=strategy)


def _two_pieces(records, schema) -> SegmentedWarehouse:
    """``sum(m)`` over ``records`` held in two populated pieces, one
    per half, each built from its rows."""
    half = len(records) // 2
    seg = SegmentedWarehouse.from_records(
        records[:half], schema, ("sum", "m"), seal_rows=half
    )
    seg._live = Piece.build(
        BaseTable.from_records(records[half:], schema), seg.aggregate)
    assert len([p for p in seg.pieces() if p.n_rows]) == 2
    return seg


class TestUnknownMeasures:
    """NaN / ±inf measures: a comparison with an unknown is not true
    (``HAVING``), on every plan and every warehouse alike."""

    ROWS = [("a1", "b1", 1.0), ("a2", "b1", NAN), ("a3", "b2", 3.0),
            ("a4", "b2", 2.0), ("a5", "b3", 5.0), ("a6", "b3", 0.5)]
    SCHEMA = Schema(dimensions=("A", "B"), measures=("m",))

    def test_nan_measure_regression(self):
        """The B+-tree put ``('a1','b1') -> 1.0`` and two NaN classes
        into this answer: one NaN key broke its ordering.  A store now
        refuses the NaN row (an exact SUM state has no NaN); a MAX tree
        over the same rows still ranks NaN classes, and its index answers
        what the filter does."""
        with pytest.raises(SchemaError, match=r"\('a2', 'b1', nan\) has "
                                              r"the non-finite measure 'm'"):
            QCWarehouse.from_records(self.ROWS, self.SCHEMA, ("sum", "m"))
        codes = [(int(a[1:]) - 1, int(b[1:]) - 1) for a, b, _ in self.ROWS]
        table = BaseTable.from_encoded(codes, [[m] for *_, m in self.ROWS],
                                       self.SCHEMA)
        tree = build_qctree(table, ("max", "m"))
        classes = tree.class_upper_bounds()
        assert classes[(1, 0)] != classes[(1, 0)]  # ('a2', 'b1') is NaN
        index = MeasureIndex(tree)
        assert dict(pure_iceberg(tree, 2.0, ">=", index=index)) == {
            (ALL, ALL): 5.0, (ALL, 1): 3.0, (ALL, 2): 5.0, (2, 1): 3.0,
            (3, 1): 2.0, (4, 2): 5.0,
        }
        for op in OPS:
            for threshold in (2.0, NAN):
                assert dict(pure_iceberg(tree, threshold, op,
                                         index=index)) == {
                    ub: value for ub, value in classes.items()
                    if _satisfies(value, threshold, op)
                }, (op, threshold)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n_rows=st.integers(2, 12),
        specials=st.lists(
            st.tuples(st.integers(0, 11), st.sampled_from([NAN, INF, -INF])),
            max_size=4,
        ),
    )
    # The mark plan once stepped around a useless child to a more
    # specific class: (1,*,*,0) answered 16 where its class sums 24.
    @example(seed=152, n_rows=5, specials=[])
    def test_index_is_the_filter_plan(self, seed, n_rows, specials):
        """``pure_iceberg`` through the index returns every class whose
        value ``_satisfies`` — dict tree and frozen view — ``mark``
        equals ``filter``, and a segmented warehouse equals the
        monolithic one.  Thresholds are the class values themselves, so
        ties are hit.  The trees are SUM over the table and MAX over it
        with the NaN / ±inf specials as measures (an encoded table keeps
        them, so NaN and ±inf class values meet every plan); a store
        refuses a non-finite measure, so there they are thresholds."""
        table = make_random_table(seed, n_rows=n_rows)
        measures = table.measures.copy()
        for row, special in specials:
            measures[row % n_rows, 0] = special
        special_table = BaseTable.from_encoded(
            table.rows, measures, table.schema, table.cardinalities()
        )
        rng = random.Random(seed)
        spec = tuple(
            ALL if rng.random() < 0.4 else list(range(table.cardinality(j)))
            for j in range(table.n_dims)
        )
        for source, aggregate in ((special_table, ("max", "m")),
                                  (table, ("sum", "m"))):
            tree = build_qctree(source, aggregate)
            classes = tree.class_upper_bounds()
            thresholds = list(classes.values())
            for view in (tree, tree.freeze()):
                index = MeasureIndex(view)
                for op in OPS:
                    for threshold in thresholds:
                        got = pure_iceberg(view, threshold, op, index=index)
                        assert dict(got) == {
                            ub: value for ub, value in classes.items()
                            if _satisfies(value, threshold, op)
                        }, (aggregate, op, threshold)
                        assert constrained_iceberg(
                            view, spec, threshold, op, strategy="mark",
                            index=index,
                        ) == constrained_iceberg(
                            view, spec, threshold, op, strategy="filter"
                        ), (aggregate, op, threshold)

        # The SUM tree's class values (the loop's last) and the specials.
        thresholds += [special for _, special in specials]
        records = list(table.iter_records())
        wh = QCWarehouse.from_records(records, table.schema, ("sum", "m"))
        seg = _two_pieces(records, table.schema)
        try:
            for op in OPS:
                for threshold in thresholds:
                    assert seg.iceberg(threshold, op) == wh.iceberg(
                        threshold, op
                    ), (op, threshold)
        finally:
            seg.close()
