"""Aggregate functions over base-table rows.

Cover-equivalent cells have the same value for *any* aggregate on any
measure (Lemma 1), so a quotient-cube warehouse stores one aggregate state
per class.  To make incremental maintenance cheap, aggregates here expose a
*state* protocol rather than bare values:

``state(table, rows)``
    Build the aggregate state of a set of rows.
``states(table)``
    A function of ``(rows, starts)`` giving the states of many row sets
    of ``table`` at once (construction's partitions): the NumPy array
    ``rows`` cut into segments beginning at ``starts``.  Each is exactly
    what ``state`` gives it; what the column costs to prepare is paid
    once per table.
``merge(a, b)``
    Combine two disjoint states (used by insertion: old class state merged
    with the delta's state).
``subtract(total, part)``
    Remove a sub-state (used by deletion).  Only *subtractable* aggregates
    (COUNT, SUM, AVG, VAR) support it; MIN/MAX raise and force the
    maintenance layer to recompute the affected classes from the base
    table.
``value(state)``
    The user-facing value.
``rank(value)``
    The number an iceberg query thresholds and a measure index sorts:
    the value itself, or a multi-aggregate's first part.
``write(values)`` / ``read(data, at)`` / ``read_rows(matrix)``
    How a value sits in the ``value_data`` section of a ``QCTREE/3``
    tree: ``width`` ``float64`` columns a class, one for a single
    aggregate, a multi-aggregate's parts side by side, depth first.
    COUNT reads its column back as ``int``, every other leaf as
    ``float``.

States are exact, so the distributive (COUNT, SUM, MIN, MAX) and
algebraic (AVG, VAR) laws of Gray et al. hold as equalities: a maintained
or scatter-gathered class answers what a fresh build answers.  Every
finite double is an int count of ``2**-k`` units for some ``k >= 0``
(its ``as_integer_ratio`` denominator is ``2**k``), so SUM keeps ``(k,
s)``, the int ``s`` of ``2**-k`` units, ``k`` the greatest of its rows
(an int below 257 for all but the tiniest measures, which Python
shares); AVG keeps ``(k, s, n)`` and VAR ``(k, s, n, q)``, the squares
in ``4**-k`` units.  ``value`` rounds once.  A difference keeps the
total's ``k`` (the same number, maybe in finer units), and a non-finite
measure has no state: :class:`SchemaError`.  States are plain ints,
floats and tuples, which compare and copy.
"""

from __future__ import annotations

import math
from itertools import accumulate
from typing import Sequence

import numpy as np

from repro.errors import MaintenanceError, SchemaError, SerializationError


def _lengths(rows, starts):
    """Row count of every segment of ``rows`` beginning at ``starts``."""
    return np.diff(np.append(starts, len(rows)))


def _exact_arrays(values) -> tuple:
    """``(m, e)``: every double of ``values`` as ``m * 2**e`` with ``m``
    odd (0 for zero, at ``e == 0``), as two ``int64`` arrays."""
    frac, exp = np.frexp(values)
    m = (frac * 2.0 ** 53).astype(np.int64)
    low = np.frexp((m & -m).astype(np.float64))[1] - 1  # trailing zeros
    m >>= np.maximum(low, 0)
    return m, np.where(m == 0, 0, exp - 53 + low).astype(np.int64)


def _digits(column, width: int) -> np.ndarray:
    """An ``object`` array of Python ints as signed base-``2**width``
    digits: row ``j`` holds digit ``j`` of each (the last row keeps the
    sign)."""
    top = int(np.abs(column).max(initial=0)).bit_length() // width
    mask = (1 << width) - 1
    return np.array([(column >> width * j) & mask for j in range(top)]
                    + [column >> width * top], dtype=np.int64)


def _segment_ints(digits, rows, starts, shift, width: int) -> list:
    """Every segment's sum of ``digits`` (:func:`_digits`) over its
    ``rows``, shifted right by ``shift`` (exactly), as Python ints: one
    integer ``reduceat`` per digit."""
    total = 0
    for column in digits[::-1]:
        total = (total << width) + np.add.reduceat(
            np.take(column, rows), starts).astype(object)
    return (total >> shift.astype(object)).tolist()


def _ratio(m: int, k: int, d: int = 1) -> float:
    """``m / (d * 2**k)`` rounded once to the nearest double (±inf past
    the largest): an int true division rounds correctly."""
    try:
        return m / (d << k)
    except OverflowError:
        return math.inf if m > 0 else -math.inf


class AggregateFunction:
    """Base class for aggregate functions (see module docstring)."""

    #: Human-readable name, e.g. ``"sum(Sale)"``.
    name: str = "?"
    #: Whether :meth:`subtract` is supported.
    subtractable: bool = False
    #: ``float64`` columns a value takes in the ``value_data`` section.
    width: int = 1

    def state(self, table, rows: Sequence[int]):
        """Return the aggregate state of ``rows`` (indices into ``table``)."""
        raise NotImplementedError

    def states(self, table):
        """The states of segments of ``table``'s rows (see module
        docstring); this default calls :meth:`state` once per segment."""
        def of(rows, starts):
            bounds = np.append(starts, len(rows)).tolist()
            rows = rows.tolist()
            return [self.state(table, rows[a:b])
                    for a, b in zip(bounds, bounds[1:])]
        return of

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

    def rank(self, value):
        """The number an iceberg query compares with its threshold; an
        aggregate whose value is not a number overrides it."""
        return value

    def write(self, values: list) -> np.ndarray:
        """``values`` as a ``len(values) × width`` ``float64`` matrix;
        :class:`SerializationError` names a value ``float64`` cannot
        hold, which only a custom aggregate makes."""
        try:
            return np.fromiter(values, np.float64, len(values)).reshape(-1, 1)
        except (TypeError, ValueError, OverflowError):
            for value in values:
                try:
                    float(value)
                except (TypeError, ValueError, OverflowError):
                    break
            raise SerializationError(
                f"cannot pack aggregate value {value!r}: float64 cannot "
                "hold it"
            ) from None

    def read(self, data, at: int):
        """The value :meth:`write` laid out at ``data[at:at + width]``."""
        return data[at]

    def read_rows(self, matrix) -> list:
        """The values of a ``k × width`` matrix :meth:`write` made."""
        return matrix[:, 0].tolist()

    def __repr__(self):
        return f"<{self.__class__.__name__} {self.name}>"


class Count(AggregateFunction):
    """COUNT(*) — the row count; state is a plain int."""

    subtractable = True

    def __init__(self):
        self.name = "count"

    def state(self, table, rows):
        return len(rows)

    def states(self, table):
        return lambda rows, starts: _lengths(rows, starts).tolist()

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

    def read(self, data, at):
        return int(data[at])

    def read_rows(self, matrix):
        return matrix[:, 0].astype(np.int64).tolist()


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


class _ExactAggregate(_MeasureAggregate):
    """SUM, AVG and VAR: the first ``_size`` exact moments ``(k, s, n,
    q)`` of the measure (see the module docstring)."""

    subtractable = True

    def _terms(self, table, rows) -> tuple:
        """``(terms, k)``: each row's measure as an int count of
        ``2**-k`` units, ``k`` the greatest of the rows';
        :class:`SchemaError` names a non-finite measure, which has no
        exact state."""
        column = self._column(table)
        try:
            parts = [float(column[i]).as_integer_ratio() for i in rows]
        except (OverflowError, ValueError):
            row = next(i for i in rows if not math.isfinite(column[i]))
            raise SchemaError(
                f"row {row} has the non-finite measure {self.measure!r} = "
                f"{column[row]!r}: {self.name} keeps an exact state of "
                "finite numbers"
            ) from None
        unit = max([d for _, d in parts], default=1)
        return [m * (unit // d) for m, d in parts], unit.bit_length() - 1

    def state(self, table, rows):
        terms, k = self._terms(table, rows)
        moments = (k, sum(terms), len(terms))
        if self._size > 3:
            return moments + (sum(t * t for t in terms),)
        return moments[:self._size]

    def states(self, table):
        column = self._column(table)
        if not np.isfinite(column).all():
            self._terms(table, range(table.n_rows))  # names the row
        m, odd = _exact_arrays(column)
        k = np.maximum(-odd, 0)  # each row's k
        base = int(k.max(initial=0))
        terms = m.astype(object) << (odd + base).astype(object)
        # A segment's digits (each row once) add up below 2**61.
        width = 61 - max(table.n_rows, 1).bit_length()
        digits = [_digits(terms, width)]
        if self._size > 3:
            digits.append(_digits(terms * terms, width))

        def of(rows, starts):
            ks = np.maximum.reduceat(np.take(k, rows), starts)
            sums = [_segment_ints(limbs, rows, starts,
                                  (j + 1) * (base - ks), width)
                    for j, limbs in enumerate(digits)]  # s, then q
            return list(zip(*[ks.tolist(), sums[0],
                              _lengths(rows, starts).tolist(),
                              *sums[1:]][:self._size]))
        return of

    def subtract(self, total, part):
        if self._size > 2 and part[2] > total[2]:
            raise MaintenanceError(
                f"{self.name} count underflow during deletion")
        return self.merge(total, (part[0], *(-x for x in part[1:])))


class Sum(_ExactAggregate):
    """SUM(measure); state is ``(k, s)``, the sum ``s / 2**k``."""

    _tag = "sum"
    _size = 2

    def merge(self, a, b):
        if a[0] < b[0]:
            a, b = b, a
        return (a[0], a[1] + (b[1] << (a[0] - b[0])))

    def value(self, state):
        return _ratio(state[1], state[0])


class _Extremum(_MeasureAggregate):
    """MIN / MAX: one ``reduceat``, unless the column holds NaN, an
    infinity or -0.0, where Python's ``min`` / ``max`` order differs."""

    subtractable = False

    def state(self, table, rows):
        column = self._column(table)
        return float(self._pick(column[i] for i in rows))

    def states(self, table):
        column = self._column(table)
        if np.isfinite(column).all() and not np.signbit(column).any(
                where=column == 0):
            return lambda rows, starts: self._ufunc.reduceat(
                column[rows], starts).tolist()
        return super().states(table)

    def value(self, state):
        return state


class Min(_Extremum):
    """MIN(measure); state is the float minimum.  Not subtractable."""

    _tag = "min"
    _ufunc, _pick = np.minimum, min

    def merge(self, a, b):
        return a if a <= b else b


class Max(_Extremum):
    """MAX(measure); state is the float maximum.  Not subtractable."""

    _tag = "max"
    _ufunc, _pick = np.maximum, max

    def merge(self, a, b):
        return a if a >= b else b


class Average(_ExactAggregate):
    """AVG(measure); state is ``(k, s, n)``: the sum ``s / 2**k`` and
    the count, so it merges and subtracts."""

    _tag = "avg"
    _size = 3

    def merge(self, a, b):
        if a[0] < b[0]:
            a, b = b, a
        return (a[0], a[1] + (b[1] << (a[0] - b[0])), a[2] + b[2])

    def value(self, state):
        k, total, count = state
        return _ratio(total, k, count) if count else math.nan


class Variance(_ExactAggregate):
    """VAR(measure) — population variance; state is ``(k, s, n, q)``:
    the sum ``s / 2**k``, the count and the sum of squares ``q / 4**k``.

    The naive "running variance" (mean + M2 updated row by row) is not
    associative, which breaks scatter-gather merging across segments.
    The moment form is: counts, sums and sums of squares add, so
    ``merge`` is associative/commutative and ``subtract`` exact, and
    ``value`` rounds ``(n q - s**2) / n**2`` once.
    """

    _tag = "var"
    _size = 4

    def merge(self, a, b):
        if a[0] < b[0]:
            a, b = b, a
        d = a[0] - b[0]
        return (a[0], a[1] + (b[1] << d), a[2] + b[2],
                a[3] + (b[3] << 2 * d))

    def value(self, state):
        k, total, count, squares = state
        if not count:
            return math.nan
        return _ratio(count * squares - total * total, 2 * k, count * count)


class MultiAggregate(AggregateFunction):
    """Several aggregates evaluated together; state/value are tuples."""

    def __init__(self, parts: Sequence[AggregateFunction]):
        self.parts = tuple(parts)
        if not self.parts:
            raise SchemaError("MultiAggregate needs at least one part")
        self.name = "multi(" + ", ".join(p.name for p in self.parts) + ")"
        self.subtractable = all(p.subtractable for p in self.parts)
        # Each part's first column; the last entry is the width.
        self._at = list(accumulate((p.width for p in self.parts), initial=0))
        self.width = self._at.pop()

    def state(self, table, rows):
        return tuple(p.state(table, rows) for p in self.parts)

    def states(self, table):
        parts = [p.states(table) for p in self.parts]
        return lambda rows, starts: list(zip(*(f(rows, starts)
                                               for f in parts)))

    def merge(self, a, b):
        return tuple(p.merge(x, y) for p, x, y in zip(self.parts, a, b))

    def subtract(self, total, part):
        return tuple(
            p.subtract(x, y) for p, x, y in zip(self.parts, total, part)
        )

    def value(self, state):
        return tuple(p.value(s) for p, s in zip(self.parts, state))

    def rank(self, value):
        """A multi-aggregate ranks by its first part."""
        return self.parts[0].rank(value[0])

    def write(self, values):
        columns = list(zip(*values, strict=True)) or [()] * len(self.parts)
        return np.hstack([p.write(list(column)) for p, column
                          in zip(self.parts, columns, strict=True)])

    def read(self, data, at):
        return tuple([p.read(data, at + i)
                      for p, i in zip(self.parts, self._at)])

    def read_rows(self, matrix):
        return list(zip(*[p.read_rows(matrix[:, i:i + p.width])
                          for p, i in zip(self.parts, self._at)]))


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

    No engine compares with it: states are exact, so trees and answers
    compare with ``==``.  It serves a harness whose own reference sums
    in another order.
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
