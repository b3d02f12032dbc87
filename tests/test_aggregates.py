"""Tests for aggregate functions and their state protocol."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cube.aggregates import (
    Average,
    Count,
    Max,
    Min,
    MultiAggregate,
    Sum,
    Variance,
    _spec_to_json,
    aggregate_spec,
    make_aggregate,
    values_close,
)
from repro.cube.schema import Schema
from repro.cube.table import BaseTable
from repro.errors import MaintenanceError, SchemaError, SerializationError


def _column(values):
    """A one-dimension table whose measure ``m`` holds ``values``."""
    schema = Schema(dimensions=("A",), measures=("m",))
    return BaseTable.from_encoded([(0,)] * len(values),
                                  [[v] for v in values], schema, [1])


@pytest.fixture
def table():
    schema = Schema(dimensions=("A",), measures=("m", "n"))
    return BaseTable.from_records(
        [("a", 1.0, 10.0), ("b", 2.0, 20.0), ("c", 3.0, 30.0), ("d", 4.0, 40.0)],
        schema,
    )


class TestValues:
    def test_count(self, table):
        agg = Count()
        assert agg.value(agg.state(table, [0, 1, 2])) == 3

    def test_sum(self, table):
        agg = Sum("m")
        assert agg.value(agg.state(table, [0, 3])) == 5.0

    def test_sum_second_measure(self, table):
        agg = Sum("n")
        assert agg.value(agg.state(table, [0, 3])) == 50.0

    def test_sum_by_index(self, table):
        agg = Sum(1)
        assert agg.value(agg.state(table, [0])) == 10.0

    def test_min_max(self, table):
        assert Min("m").value(Min("m").state(table, [1, 2])) == 2.0
        assert Max("m").value(Max("m").state(table, [1, 2])) == 3.0

    def test_average(self, table):
        agg = Average("m")
        assert agg.value(agg.state(table, [0, 1, 2, 3])) == 2.5

    def test_average_empty_state_is_nan(self, table):
        agg = Average("m")
        assert math.isnan(agg.value(agg.state(table, [])))

    def test_multi(self, table):
        agg = MultiAggregate([Sum("m"), Count()])
        assert agg.value(agg.state(table, [0, 1])) == (3.0, 2)


class TestMergeSubtract:
    def test_merge_matches_union(self, table):
        for agg in (Count(), Sum("m"), Min("m"), Max("m"), Average("m"),
                    Variance("m")):
            a = agg.state(table, [0, 1])
            b = agg.state(table, [2, 3])
            assert agg.merge(a, b) == agg.state(table, [0, 1, 2, 3])

    def test_subtract_inverts_merge(self, table):
        for agg in (Count(), Sum("m"), Average("m"), Variance("m")):
            a = agg.state(table, [0, 1])
            b = agg.state(table, [2])
            assert agg.value(agg.subtract(agg.merge(a, b), b)) == agg.value(a)

    def test_min_not_subtractable(self, table):
        with pytest.raises(MaintenanceError):
            Min("m").subtract(1.0, 1.0)

    def test_max_not_subtractable(self, table):
        with pytest.raises(MaintenanceError):
            Max("m").subtract(1.0, 1.0)

    def test_count_underflow(self):
        with pytest.raises(MaintenanceError):
            Count().subtract(1, 2)

    def test_avg_underflow(self, table):
        agg = Average("m")
        with pytest.raises(MaintenanceError):
            agg.subtract(agg.state(table, [0]), agg.state(table, [0, 1]))

    def test_multi_subtractable_iff_all_parts(self):
        assert MultiAggregate([Sum("m"), Count()]).subtractable
        assert not MultiAggregate([Sum("m"), Min("m")]).subtractable

    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=8),
           st.lists(st.floats(-100, 100), min_size=1, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_sum_merge_commutes(self, xs, ys):
        agg = Sum("m")
        a, b = agg.state(_column(xs), range(len(xs))), agg.state(
            _column(ys), range(len(ys)))
        assert agg.merge(a, b) == agg.merge(b, a)
        assert agg.value(agg.merge(a, b)) == math.fsum(xs + ys)


class TestExactValues:
    def test_value_rounds_once(self):
        """SUM's ``value`` is the correctly rounded sum, subnormal and
        overflowing sums included, and the build's ``states`` are what
        ``state`` gives each segment."""
        agg = Sum("m")
        values = [5e-324, -5e-324, 2.0 ** -1022, 1e308, 1e308, 0.1, 0.2,
                  -0.3, 0.0, 1e16, -1e16]
        table = _column(values)
        rows = [[0], [0, 1], [2, 0], [3, 4], [5, 6, 7], [8], [9, 5, 10],
                list(range(len(values)))]
        states = [agg.state(table, r) for r in rows]
        assert [agg.value(s) for s in states] == [
            5e-324, 0.0, 2.0 ** -1022 + 5e-324, math.inf,
            math.fsum([0.1, 0.2, -0.3]), 0.0, 0.1, math.inf]
        starts = np.cumsum([0] + [len(r) for r in rows[:-1]])
        assert agg.states(table)(np.concatenate(rows), starts) == states


class TestRegistry:
    def test_count(self):
        assert isinstance(make_aggregate("count"), Count)

    def test_tuple_spec(self):
        agg = make_aggregate(("sum", "Sale"))
        assert isinstance(agg, Sum) and agg.measure == "Sale"

    def test_string_call_spec(self):
        agg = make_aggregate("avg(Sale)")
        assert isinstance(agg, Average) and agg.measure == "Sale"

    def test_list_spec_builds_multi(self):
        agg = make_aggregate([("sum", "m"), "count"])
        assert isinstance(agg, MultiAggregate)

    def test_passthrough(self):
        agg = Sum("m")
        assert make_aggregate(agg) is agg

    def test_unknown_tag_rejected(self):
        with pytest.raises(SchemaError):
            make_aggregate(("median", "m"))

    def test_garbage_rejected(self):
        with pytest.raises(SchemaError):
            make_aggregate(42)

    def test_empty_multi_rejected(self):
        with pytest.raises(SchemaError):
            MultiAggregate([])

    def test_spec_roundtrip(self):
        for spec in ["count", ("sum", "m"), ("min", "m"), ("max", "m"),
                     ("avg", "m"), [("sum", "m"), "count"]]:
            agg = make_aggregate(spec)
            rebuilt = make_aggregate(aggregate_spec(agg))
            assert rebuilt.name == agg.name

    def test_spec_json_roundtrip(self):
        """The manifest's aggregate entry: the call form, parsed back."""
        for spec in ["count", ("sum", "m"), ("avg", "m"),
                     [("sum", "m"), "count"], [("avg", "m"), ("max", "m")]]:
            agg = make_aggregate(spec)
            text = _spec_to_json(aggregate_spec(agg))
            assert make_aggregate(text).name == agg.name
        assert _spec_to_json([("sum", "m"), "count"]) == ["sum(m)", "count"]

    def test_spec_json_rejects_a_measure_with_parentheses(self):
        with pytest.raises(SerializationError, match="parentheses"):
            _spec_to_json(aggregate_spec(make_aggregate(("sum", "m(1)"))))


class TestValuesClose:
    def test_scalars(self):
        assert values_close(1.0, 1.0 + 1e-12)
        assert not values_close(1.0, 1.1)

    def test_tuples(self):
        assert values_close((1.0, 2), (1.0, 2))
        assert not values_close((1.0,), (1.0, 2))

    def test_nan(self):
        assert values_close(math.nan, math.nan)
        assert not values_close(math.nan, 0.0)
