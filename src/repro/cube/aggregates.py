"""Aggregate functions over base-table rows.

Cover-equivalent cells have the same value for *any* aggregate on any
measure (Lemma 1), so a quotient-cube warehouse stores one aggregate state
per class.  To make incremental maintenance cheap, aggregates here expose a
*state* protocol rather than bare values:

``state(table, rows)``
    Build the aggregate state of a set of rows.
``states(table, rows, starts)``
    The states of many row sets at once (construction's partitions): the
    NumPy array ``rows`` cut into segments beginning at ``starts``.  Each
    is bit for bit what ``state`` gives it; sums add left to right.
``merge(a, b)``
    Combine two disjoint states (used by insertion: old class state merged
    with the delta's state).
``subtract(total, part)``
    Remove a sub-state (used by deletion).  Only *subtractable* aggregates
    (COUNT, SUM, AVG) support it; MIN/MAX raise and force the maintenance
    layer to recompute the affected classes from the base table.
``value(state)``
    The user-facing value.

States are small plain objects (ints, floats, tuples) so they compare,
hash into serialized trees, and copy trivially.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.errors import MaintenanceError, SchemaError, SerializationError

#: Segments up to this long are summed one position per step, all at once.
_SHORT_SEGMENT = 64


def _lengths(rows, starts):
    """Row count of every segment of ``rows`` beginning at ``starts``."""
    return np.diff(np.append(starts, len(rows)))


def _segment_sums(values, starts):
    """Every segment's ``sum()``, added left to right from 0 in row order
    (``np.add.reduceat`` adds pairwise: other last bits).  Short segments
    advance one position per step together; a longer one accumulates."""
    lengths = _lengths(values, starts)
    sums = np.zeros(len(starts))
    short = np.flatnonzero(lengths <= _SHORT_SEGMENT)
    short = short[np.argsort(-lengths[short], kind="stable")]
    first = starts[short]
    acc = np.zeros(len(short))
    # live[p]: how many (longest-first) short segments reach position p.
    live = np.searchsorted(-lengths[short], -np.arange(_SHORT_SEGMENT))
    for p, n in enumerate(live.tolist()):
        if not n:
            break
        acc[:n] += values[first[:n] + p]
    sums[short] = acc
    for s in np.flatnonzero(lengths > _SHORT_SEGMENT).tolist():
        a = starts[s]
        # ``+ 0.0`` turns an all-(-0.0) total into 0.0, as a start of 0 does.
        sums[s] = np.add.accumulate(values[a:a + lengths[s]])[-1] + 0.0
    return sums


class AggregateFunction:
    """Base class for aggregate functions (see module docstring)."""

    #: Human-readable name, e.g. ``"sum(Sale)"``.
    name: str = "?"
    #: Whether :meth:`subtract` is supported.
    subtractable: bool = False

    def state(self, table, rows: Sequence[int]):
        """Return the aggregate state of ``rows`` (indices into ``table``)."""
        raise NotImplementedError

    def states(self, table, rows, starts) -> list:
        """The state of every segment of ``rows`` (see module docstring);
        this default calls :meth:`state` once per segment."""
        bounds = np.append(starts, len(rows)).tolist()
        rows = rows.tolist()
        return [self.state(table, rows[a:b])
                for a, b in zip(bounds, bounds[1:])]

    def merge(self, a, b):
        """Combine the states of two disjoint row sets."""
        raise NotImplementedError

    def subtract(self, total, part):
        """Remove ``part`` from ``total``; raises if not subtractable."""
        raise MaintenanceError(
            f"aggregate {self.name} is not subtractable; "
            "deletion must recompute affected classes"
        )

    def value(self, state):
        """Return the user-facing value of a state."""
        raise NotImplementedError

    def __repr__(self):
        return f"<{self.__class__.__name__} {self.name}>"


class Count(AggregateFunction):
    """COUNT(*) — the row count; state is a plain int."""

    subtractable = True

    def __init__(self):
        self.name = "count"

    def state(self, table, rows):
        return len(rows)

    def states(self, table, rows, starts):
        return _lengths(rows, starts).tolist()

    def merge(self, a, b):
        return a + b

    def subtract(self, total, part):
        if part > total:
            raise MaintenanceError(
                f"count underflow: removing {part} from {total}"
            )
        return total - part

    def value(self, state):
        return state


class _MeasureAggregate(AggregateFunction):
    """Shared plumbing for aggregates bound to a single measure column."""

    def __init__(self, measure):
        self.measure = measure
        self.name = f"{self._tag}({measure})"

    def _column(self, table):
        idx = (
            self.measure
            if isinstance(self.measure, int)
            else table.schema.measure_index(self.measure)
        )
        return table.measures[:, idx]


class Sum(_MeasureAggregate):
    """SUM(measure); state is the float total."""

    _tag = "sum"
    subtractable = True

    def state(self, table, rows):
        column = self._column(table)
        return float(sum(column[i] for i in rows))

    def states(self, table, rows, starts):
        return _segment_sums(self._column(table)[rows], starts).tolist()

    def merge(self, a, b):
        return a + b

    def subtract(self, total, part):
        return total - part

    def value(self, state):
        return state


class _Extremum(_MeasureAggregate):
    """MIN / MAX: one ``reduceat``, unless the column holds NaN, an
    infinity or -0.0, where Python's ``min`` / ``max`` order differs."""

    subtractable = False

    def states(self, table, rows, starts):
        column = self._column(table)
        if np.isfinite(column).all() and not np.signbit(column).any(
                where=column == 0):
            return self._ufunc.reduceat(column[rows], starts).tolist()
        return super().states(table, rows, starts)


class Min(_Extremum):
    """MIN(measure); state is the float minimum.  Not subtractable."""

    _tag = "min"
    _ufunc = np.minimum

    def state(self, table, rows):
        column = self._column(table)
        return float(min(column[i] for i in rows))

    def merge(self, a, b):
        return a if a <= b else b

    def value(self, state):
        return state


class Max(_Extremum):
    """MAX(measure); state is the float maximum.  Not subtractable."""

    _tag = "max"
    _ufunc = np.maximum

    def state(self, table, rows):
        column = self._column(table)
        return float(max(column[i] for i in rows))

    def merge(self, a, b):
        return a if a >= b else b

    def value(self, state):
        return state


class Average(_MeasureAggregate):
    """AVG(measure); state is ``(sum, count)`` so it merges and subtracts."""

    _tag = "avg"
    subtractable = True

    def state(self, table, rows):
        column = self._column(table)
        return (float(sum(column[i] for i in rows)), len(rows))

    def states(self, table, rows, starts):
        sums = _segment_sums(self._column(table)[rows], starts)
        return list(zip(sums.tolist(), _lengths(rows, starts).tolist()))

    def merge(self, a, b):
        return (a[0] + b[0], a[1] + b[1])

    def subtract(self, total, part):
        count = total[1] - part[1]
        if count < 0:
            raise MaintenanceError("avg count underflow during deletion")
        return (total[0] - part[0], count)

    def value(self, state):
        total, count = state
        return total / count if count else math.nan


class Variance(_MeasureAggregate):
    """VAR(measure) — population variance; state is ``(count, sum, sumsq)``.

    The naive "running variance" (mean + M2 updated row by row) is not
    associative, which breaks scatter-gather merging across segments.
    The moment form is: counts, sums and sums of squares add, so
    ``merge`` is associative/commutative and ``subtract`` exact.
    """

    _tag = "var"
    subtractable = True

    def state(self, table, rows):
        column = self._column(table)
        # Left to right on every Python version: from 3.12, sum() of
        # Python floats compensates.
        total = sumsq = 0
        for i in rows:
            v = float(column[i])
            total += v
            sumsq += v * v
        return (len(rows), total, sumsq)

    def states(self, table, rows, starts):
        values = self._column(table)[rows]
        return list(zip(_lengths(rows, starts).tolist(),
                        _segment_sums(values, starts).tolist(),
                        _segment_sums(values * values, starts).tolist()))

    def merge(self, a, b):
        return (a[0] + b[0], a[1] + b[1], a[2] + b[2])

    def subtract(self, total, part):
        count = total[0] - part[0]
        if count < 0:
            raise MaintenanceError("var count underflow during deletion")
        return (count, total[1] - part[1], total[2] - part[2])

    def value(self, state):
        count, total, sumsq = state
        if not count:
            return math.nan
        mean = total / count
        # Moments can go a hair negative under float cancellation.
        return max(0.0, sumsq / count - mean * mean)


class MultiAggregate(AggregateFunction):
    """Several aggregates evaluated together; state/value are tuples."""

    def __init__(self, parts: Sequence[AggregateFunction]):
        self.parts = tuple(parts)
        if not self.parts:
            raise SchemaError("MultiAggregate needs at least one part")
        self.name = "multi(" + ", ".join(p.name for p in self.parts) + ")"
        self.subtractable = all(p.subtractable for p in self.parts)

    def state(self, table, rows):
        return tuple(p.state(table, rows) for p in self.parts)

    def states(self, table, rows, starts):
        return list(zip(*(p.states(table, rows, starts) for p in self.parts)))

    def merge(self, a, b):
        return tuple(p.merge(x, y) for p, x, y in zip(self.parts, a, b))

    def subtract(self, total, part):
        return tuple(
            p.subtract(x, y) for p, x, y in zip(self.parts, total, part)
        )

    def value(self, state):
        return tuple(p.value(s) for p, s in zip(self.parts, state))


_SIMPLE = {"count": Count}
_MEASURED = {"sum": Sum, "min": Min, "max": Max, "avg": Average,
             "average": Average, "mean": Average, "var": Variance,
             "variance": Variance}


def make_aggregate(spec) -> AggregateFunction:
    """Build an aggregate from a compact spec.

    Accepted specs::

        make_aggregate("count")
        make_aggregate(("sum", "Sale"))
        make_aggregate("avg(Sale)")
        make_aggregate([("sum", "Sale"), "count"])   # MultiAggregate
        make_aggregate(existing_aggregate_instance)  # passthrough
    """
    if isinstance(spec, AggregateFunction):
        return spec
    if isinstance(spec, list):
        return MultiAggregate([make_aggregate(s) for s in spec])
    if isinstance(spec, tuple):
        tag, measure = spec
        tag = tag.lower()
        if tag in _MEASURED:
            return _MEASURED[tag](measure)
        raise SchemaError(f"unknown aggregate tag {tag!r}")
    if isinstance(spec, str):
        text = spec.strip()
        if text.lower() in _SIMPLE:
            return _SIMPLE[text.lower()]()
        if "(" in text and text.endswith(")"):
            tag, _, rest = text.partition("(")
            measure = rest[:-1].strip()
            return make_aggregate((tag.strip().lower(), measure))
    raise SchemaError(f"cannot interpret aggregate spec {spec!r}")


def aggregate_spec(aggregate: AggregateFunction):
    """The compact spec that rebuilds ``aggregate`` via :func:`make_aggregate`.

    Used by serialization: ``make_aggregate(aggregate_spec(a))`` is
    equivalent to ``a``.
    """
    if isinstance(aggregate, Count):
        return "count"
    if isinstance(aggregate, MultiAggregate):
        return [aggregate_spec(p) for p in aggregate.parts]
    if isinstance(aggregate, _MeasureAggregate):
        return (aggregate._tag, aggregate.measure)
    raise SchemaError(
        f"cannot derive a spec for custom aggregate {aggregate!r}; "
        "persist stores built from registry aggregates only"
    )


def _spec_to_json(spec):
    """Render an aggregate spec in a JSON-safe, parseable form.

    Tuples become the string call form (``("sum", "m")`` -> ``"sum(m)"``),
    which :func:`make_aggregate` parses back; lists recurse.  Measure names
    containing parentheses are rejected rather than silently corrupted.
    """
    if isinstance(spec, tuple):
        tag, measure = spec
        if "(" in str(measure) or ")" in str(measure):
            raise SerializationError(
                f"measure name {measure!r} cannot be serialized "
                "(contains parentheses)"
            )
        return f"{tag}({measure})"
    if isinstance(spec, list):
        return [_spec_to_json(s) for s in spec]
    return spec


def values_close(a, b, rel_tol: float = 1e-9, abs_tol: float = 1e-12) -> bool:
    """Compare aggregate *values* with float tolerance, recursing on tuples.

    Useful for asserting tree equivalence when rows were summed in a
    different order.
    """
    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(
            values_close(x, y, rel_tol, abs_tol) for x, y in zip(a, b)
        )
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        return math.isclose(a, b, rel_tol=rel_tol, abs_tol=abs_tol)
    return a == b
