"""Algebraic laws every aggregate state must obey (satellite of the
segmented-ingest subsystem).

Scatter-gather answering merges per-segment aggregate states in whatever
order the segment list happens to have, and compaction re-merges them
again — so ``merge`` must be a commutative semigroup operation that is
*exact* against computing the state over the union of the underlying
rows.  Deletion additionally relies on ``subtract`` being the exact
inverse of ``merge`` for subtractable aggregates.  States are exact, so
every law is checked with ``==``, against ``fractions.Fraction`` where a
value is at stake.  These are hypothesis-checked here for every
aggregate in the registry, including
:class:`~repro.cube.aggregates.Variance` (whose moment-form state exists
precisely because the textbook running-variance update is *not*
associative) and :class:`~repro.cube.aggregates.MultiAggregate`.
"""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cube.aggregates import (
    Average,
    Count,
    Max,
    Min,
    MultiAggregate,
    Sum,
    Variance,
    make_aggregate,
)
from repro.cube.schema import Schema
from repro.cube.table import BaseTable

SCHEMA = Schema(dimensions=("D",), measures=("m",))

#: Every registry aggregate, as (pytest id, factory).  MultiAggregate
#: combines all of them so its tuple-of-states plumbing is exercised too.
AGGREGATES = [
    ("count", lambda: Count()),
    ("sum", lambda: Sum("m")),
    ("min", lambda: Min("m")),
    ("max", lambda: Max("m")),
    ("avg", lambda: Average("m")),
    ("var", lambda: Variance("m")),
    ("multi", lambda: MultiAggregate(
        [Count(), Sum("m"), Min("m"), Max("m"), Average("m"), Variance("m")]
    )),
]
IDS = [name for name, _ in AGGREGATES]
FACTORIES = [factory for _, factory in AGGREGATES]

# Bounded, finite measures: the laws hold exactly over every finite
# double (exact states).
measures = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False,
              allow_infinity=False, width=32),
    min_size=1, max_size=12,
)

#: Measures that cancel: fractions beside ±1e16.
cancelling_measures = st.lists(
    st.sampled_from([0.1, 0.2, 0.3, -0.1, 1e16, -1e16, 0.0]),
    min_size=1, max_size=12,
)


def _table(values):
    rows = [(0,)] * len(values)
    return BaseTable.from_encoded(
        rows, [[v] for v in values], SCHEMA, cardinalities=[1]
    )


def _state(aggregate, values):
    table = _table(values)
    return aggregate.state(table, range(len(values)))


@pytest.mark.parametrize("factory", FACTORIES, ids=IDS)
class TestMergeLaws:
    @given(a=measures, b=measures)
    def test_commutative(self, factory, a, b):
        agg = factory()
        sa, sb = _state(agg, a), _state(agg, b)
        assert agg.merge(sa, sb) == agg.merge(sb, sa)

    @given(a=measures, b=measures, c=measures)
    def test_associative(self, factory, a, b, c):
        agg = factory()
        sa, sb, sc = _state(agg, a), _state(agg, b), _state(agg, c)
        left = agg.merge(agg.merge(sa, sb), sc)
        right = agg.merge(sa, agg.merge(sb, sc))
        assert left == right

    @given(a=measures, b=measures)
    def test_merge_is_exact_over_union(self, factory, a, b):
        """merge(state(A), state(B)) == state(A ++ B): the soundness of
        scatter-gather itself — segments hold disjoint row multisets."""
        agg = factory()
        merged = agg.merge(_state(agg, a), _state(agg, b))
        assert merged == _state(agg, a + b)
        assert agg.value(merged) == agg.value(_state(agg, a + b))

    @given(a=cancelling_measures, b=cancelling_measures)
    def test_subtract_inverts_merge(self, factory, a, b):
        """For subtractable aggregates, subtract(merge(x, y), y) is x —
        what deletion relies on — over measures that cancel.  The
        difference keeps the merge's exponent, so it is x's number (and
        value), and merging y back gives the merge again."""
        agg = factory()
        if not agg.subtractable:
            pytest.skip(f"{agg.name} is not subtractable")
        sa, sb = _state(agg, a), _state(agg, b)
        merged = agg.merge(sa, sb)
        back = agg.subtract(merged, sb)
        assert agg.value(back) == agg.value(sa)
        assert agg.merge(back, sb) == merged


class TestIdentity:
    """The empty-row-set state is the merge identity where it exists.

    MIN/MAX have no empty state (``min([])`` has no value), which is
    exactly why an emptied class leaves the tree rather than lingering
    as an identity-valued node.
    """

    @pytest.mark.parametrize(
        "factory",
        [lambda: Count(), lambda: Sum("m"), lambda: Average("m"),
         lambda: Variance("m")],
        ids=["count", "sum", "avg", "var"],
    )
    @given(a=measures)
    def test_empty_state_is_identity(self, factory, a):
        agg = factory()
        empty = agg.state(_table([]), [])
        sa = _state(agg, a)
        assert agg.merge(empty, sa) == sa
        assert agg.merge(sa, empty) == sa

    @pytest.mark.parametrize("factory", [lambda: Min("m"), lambda: Max("m")],
                             ids=["min", "max"])
    def test_min_max_have_no_empty_state(self, factory):
        agg = factory()
        with pytest.raises(ValueError):
            agg.state(_table([]), [])


def _exact_moments(values):
    """``(sum, mean, population variance)`` of ``values`` as
    fractions: the reference every value is rounded from, once."""
    xs = [Fraction(x) for x in values]
    total = sum(xs)
    mean = total / len(xs)
    return total, mean, sum(x * x for x in xs) / len(xs) - mean * mean


class TestValues:
    """States must finalize to the textbook value, correctly rounded."""

    @given(a=measures)
    def test_reference_values(self, a):
        table = _table(a)
        rows = range(len(a))
        total, mean, variance = _exact_moments(a)
        assert Count().value(Count().state(table, rows)) == len(a)
        assert Sum("m").value(Sum("m").state(table, rows)) == math.fsum(a)
        assert Sum("m").value(Sum("m").state(table, rows)) == float(total)
        assert Min("m").value(Min("m").state(table, rows)) == min(a)
        assert Max("m").value(Max("m").state(table, rows)) == max(a)
        assert (Average("m").value(Average("m").state(table, rows))
                == float(mean))
        assert (Variance("m").value(Variance("m").state(table, rows))
                == float(variance))

    def test_variance_of_empty_and_singleton(self):
        var = Variance("m")
        assert math.isnan(var.value(var.state(_table([]), [])))
        assert var.value(var.state(_table([3.5]), [0])) == 0.0

    def test_variance_never_negative(self):
        # Catastrophic cancellation (huge mean, tiny spread): the exact
        # moments give the true variance, never a negative one.
        var = Variance("m")
        values = [1e8 + 0.1, 1e8 + 0.2, 1e8 + 0.3]
        value = var.value(var.state(_table(values), range(3)))
        assert value >= 0.0
        assert value == float(_exact_moments(values)[2])

    def test_registry_spells(self):
        assert isinstance(make_aggregate("var(m)"), Variance)
        assert isinstance(make_aggregate(("variance", "m")), Variance)
