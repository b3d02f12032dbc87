"""The one reference model of the test suite.

Theorem 2 makes a QC-tree a function of its base table, so every engine
configuration — the dict, heap-frozen or attached tree; one piece or
several; called directly or through a server — must answer exactly what
the cover quotient cube of its live rows answers.  This module is the
only place under ``tests/`` that says what that is:

* **the program generator** — :func:`next_batch` (and
  :func:`make_program` over it): raw-label records with fresh labels,
  in-batch duplicates and deletes of rows that are present; a *typed*
  program labels :data:`INT_DIM` with ints, so a checkpoint must keep
  each dimension's label type.  Every
  measure is a pure function of its key (:func:`measure`), so
  delete-by-key is unambiguous even between true duplicates, and the
  measures cancel (fractions beside ±1e16), so a float sum taken in
  another order reads another value;
* **the reference** — :class:`Reference`, a brute-force cube over the
  live records: ``probe`` is :func:`repro.cube.lattice.closure` plus
  :func:`exact_value` of the covered rows (exact arithmetic, rounded
  once), ``cover_values`` is :meth:`BaseTable.select`,
  ``lower_bounds`` is :func:`repro.cube.quotient.class_lower_bounds`.
  Point, range, ``class_of`` and both icebergs come straight off the
  lattice; the five exploration ops run :mod:`repro.core.explore`'s one
  implementation over that cube.  Gray et al.'s ALL semantics fix the
  edges: an empty table, or a cell no live row falls in, answers None;
* **"the same answer"** — :func:`assert_same`, one comparator per answer
  shape (a refusal is the same answer when its error type is).

``tests/test_stateful.py`` checks every configuration against it.
"""

from __future__ import annotations

import json
import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from repro.core import explore
from repro.core.cells import ALL, dict_sort_key
from repro.core.construct import build_qctree
from repro.core.maintenance import maintain_batch
from repro.cube.aggregates import (
    Count,
    MultiAggregate,
    aggregate_spec,
    make_aggregate,
)
from repro.cube.lattice import closed_cells, closure
from repro.cube.quotient import class_lower_bounds
from repro.cube.schema import Schema
from repro.cube.table import BaseTable
from repro.errors import ReproError, SchemaError

N_DIMS = 3
CARD = 3  # labels a base table draws from, per dimension
FRESH = 2  # extra labels per dimension a program may mint
#: The dimension a typed program labels with ints.
INT_DIM = N_DIMS - 1
SCHEMA = Schema(dimensions=[f"D{j}" for j in range(N_DIMS)], measures=("m",))
AGGREGATE = ("sum", "m")
#: Every aggregate of :mod:`repro.cube.aggregates`, and a
#: multi-aggregate (ranked by its first part).
AGGREGATES = {
    "sum": AGGREGATE, "count": "count", "avg": ("avg", "m"),
    "var": ("var", "m"), "min": ("min", "m"), "max": ("max", "m"),
    "multi": [("avg", "m"), "count", ("var", "m"), ("max", "m")],
}
#: The measures a key draws from: fractions binary cannot add exactly,
#: beside ±1e16, which swallows them in any float sum that meets it
#: first.
MEASURES = (0.1, 0.2, 0.3, 1e16, -1e16, 2.5, 0.7)


def label(code: int, dim: int = 0, typed: bool = False):
    """Dimension ``dim``'s label of ``code``: ``v<code>``, or the int
    ``2000 + code`` on :data:`INT_DIM` of a typed program."""
    return 2000 + code if typed and dim == INT_DIM else f"v{code}"


#: A label no program ever writes: every op must treat it as unknown.
UNSEEN = label(CARD + FRESH)


def unseen_key(typed: bool = False) -> tuple:
    """A key of labels no program ever writes, typed as ``typed``
    programs label their dimensions."""
    return tuple(label(CARD + FRESH, j, typed) for j in range(N_DIMS))


def measure(codes) -> float:
    """The measure as a pure function of the key, one of
    :data:`MEASURES`."""
    return MEASURES[sum((2 * j + 3) * c for j, c in enumerate(codes))
                    % len(MEASURES)]


def exact_value(aggregate, values):
    """``aggregate``'s value over the measures ``values``, from exact
    arithmetic: SUM is :func:`math.fsum`'s correctly rounded sum, AVG
    and VAR round a :class:`~fractions.Fraction` once."""
    if isinstance(aggregate, MultiAggregate):
        return tuple(exact_value(part, values) for part in aggregate.parts)
    if isinstance(aggregate, Count):
        return len(values)
    tag = aggregate_spec(aggregate)[0]
    if tag in ("min", "max"):
        return min(values) if tag == "min" else max(values)
    if tag == "sum":
        return math.fsum(values)
    xs = [Fraction(x) for x in values]
    mean = sum(xs) / len(xs)
    if tag == "avg":
        return float(mean)
    return float(sum(x * x for x in xs) / len(xs) - mean * mean)


def record(codes, typed: bool = False) -> tuple:
    return (tuple(label(c, j, typed) for j, c in enumerate(codes))
            + (measure(codes),))


def gen_record(rng, fresh: bool = False, typed: bool = False) -> tuple:
    """A raw record; ``fresh`` mints a label past the base domain ~30 %
    of the time per dimension."""
    return record([
        CARD + rng.randrange(FRESH) if fresh and rng.random() < 0.3
        else rng.randrange(CARD)
        for _ in range(N_DIMS)
    ], typed)


def table_of(records) -> BaseTable:
    return BaseTable.from_records(records, SCHEMA)


def remove_rows(live: list, deletes) -> None:
    """Take each deleted key's first live row out of ``live`` in place —
    the engines' earliest-match rule; measures follow the key."""
    for row in deletes:
        live.remove(next(r for r in live if r[:N_DIMS] == row[:N_DIMS]))


def next_batch(rng, live, max_batch: int = 5, typed: bool = False) -> tuple:
    """``(inserts, deletes)``: up to three deletes of rows present in
    ``live``, then inserts (at least one when nothing is deleted), some
    with fresh labels, about one batch in three with an in-batch
    duplicate, labelled as ``typed`` says (:func:`label`).  ``live`` is
    not touched."""
    n_del = rng.randint(0, min(3, len(live)))
    deletes = rng.sample(live, n_del) if n_del else []
    n_ins = rng.randint(0 if deletes else 1, max_batch)
    inserts = [gen_record(rng, fresh=rng.random() < 0.4, typed=typed)
               for _ in range(n_ins)]
    if inserts and rng.random() < 0.3:
        inserts.append(rng.choice(inserts))
    return inserts, deletes


def make_program(seed, n_batches, n_rows=None, max_batch=5) -> tuple:
    """``(base table, batches, final records)`` of a seeded program;
    deletes always name rows present at that point of it."""
    rng = random.Random(seed)
    n_rows = rng.randint(0, 12) if n_rows is None else n_rows
    base = [gen_record(rng) for _ in range(n_rows)]
    live = list(base)
    batches = []
    for _ in range(n_batches):
        inserts, deletes = next_batch(rng, live, max_batch)
        remove_rows(live, deletes)
        live.extend(inserts)
        batches.append((inserts, deletes))
    return table_of(base), batches, live


def run_batched(table, batches, aggregate=AGGREGATE) -> tuple:
    """``(tree, table)`` after one ``maintain_batch`` call per batch."""
    tree = build_qctree(table, aggregate)
    for inserts, deletes in batches:
        table = maintain_batch(tree, table, inserts=inserts,
                               deletes=deletes).table
    return tree, table


# -- the reference -------------------------------------------------------------

_COMPARE = {">=": operator.ge, ">": operator.gt,
            "<=": operator.le, "<": operator.lt}


class Reference:
    """The brute-force cube over ``records``, answering the ten snapshot
    ops with raw labels in and out, like a
    :class:`~repro.serving.snapshot.ServingSnapshot`.  It is also a cube
    in :mod:`repro.core.explore`'s sense (``encode`` … ``sort_key``)."""

    sort_key = staticmethod(dict_sort_key)

    def __init__(self, records, aggregate=AGGREGATE):
        self.records = list(records)
        self.table = table_of(self.records)
        self.aggregate = make_aggregate(aggregate)
        # The walks re-probe cells and re-read values: both memoised.
        self._probes: dict = {}
        self._values: dict = {}

    # -- the cube interface ----------------------------------------------------

    def encode(self, raw_cell):
        return self.table.encode_cell(raw_cell)

    def decode(self, cell) -> tuple:
        return self.table.decode_cell(cell)

    def _value(self, cell):
        if cell not in self._values:
            rows = self.table.select(cell)
            self._values[cell] = exact_value(
                self.aggregate, self.table.measures[rows, 0].tolist()
            ) if rows else None
        return self._values[cell]

    def probe(self, cell):
        if cell not in self._probes:
            ub = closure(self.table, cell)
            self._probes[cell] = None if ub is None else (ub, self._value(ub))
        return self._probes[cell]

    def cover_values(self, ub, dim: int) -> set:
        rows = self.table.rows
        return {rows[i][dim] for i in self.table.select(ub)}

    def lower_bounds(self, ub) -> list:
        return class_lower_bounds(self.table, ub)

    # -- the snapshot ops ----------------------------------------------------------

    def point(self, raw_cell):
        try:
            return self._value(self.encode(raw_cell))
        except SchemaError:
            return None  # a label no row carries covers nothing

    def range(self, spec) -> dict:
        axes = []
        for j, entry in enumerate(spec):
            if entry == "*":
                axes.append([ALL])
                continue
            codes = []
            for value in entry if isinstance(entry, list) else [entry]:
                try:
                    codes.append(self.table.encode_value(j, value))
                except SchemaError:
                    pass  # a label no row carries matches nothing
            if not codes:
                return {}
            axes.append(codes)
        out = {}
        for cell in product(*axes):
            value = self._value(cell)
            if value is not None:
                out[self.decode(cell)] = value
        return out

    def iceberg(self, threshold, op: str = ">=") -> list:
        passes, rank = _COMPARE[op], self.aggregate.rank
        return [(self.decode(ub), value)
                for ub in closed_cells(self.table)
                if passes(rank(value := self._value(ub)), threshold)]

    def iceberg_in_range(self, spec, threshold, op: str = ">=") -> dict:
        passes, rank = _COMPARE[op], self.aggregate.rank
        return {cell: value for cell, value in self.range(spec).items()
                if passes(rank(value), threshold)}

    def class_of(self, raw_cell):
        hit = self.probe(self.encode(raw_cell))
        return None if hit is None else (self.decode(hit[0]), hit[1])

    def _classes(self, op, raw_cell) -> list:
        return [(self.decode(ub), value)
                for ub, value in op(self, self.encode(raw_cell))]

    def rollup(self, raw_cell) -> list:
        return self._classes(explore.cube_rollup, raw_cell)

    def rollup_exceptions(self, raw_cell) -> list:
        return self._classes(explore.cube_rollup_exceptions, raw_cell)

    def drilldowns(self, raw_cell) -> list:
        return self._classes(explore.cube_drilldowns, raw_cell)

    def rollups(self, raw_cell) -> list:
        return self._classes(explore.cube_rollups, raw_cell)

    def open_class(self, raw_cell) -> dict:
        structure = explore.cube_open_class(self, self.encode(raw_cell))
        return {
            "upper_bound": self.decode(structure.upper_bound),
            "lower_bounds": [self.decode(c) for c in structure.lower_bounds],
            "members": [self.decode(c) for c in structure.members],
            "value": structure.value,
        }


#: Ops that take one cell.
CELL_OPS = ("point", "class_of", "rollup", "rollups", "rollup_exceptions",
            "drilldowns", "open_class")
THRESHOLDS = ((5.0, ">="), (12.0, "<"))
#: Classes (evenly spread in dictionary order) the class-level ops visit.
MAX_CLASSES = 6


def _lower_bound_below(reference, ub) -> list:
    """``[a lower bound of ub's class other than ub]``, or ``[]`` when
    the class has none (its upper bound is its only lower bound)."""
    lows = [reference.decode(c)
            for c in reference.lower_bounds(reference.encode(ub))]
    return sorted((c for c in lows if c != ub), key=cell_key)[:1]


def queries(reference, every_cell: bool = False) -> list:
    """``[(op, args)]`` covering every snapshot op over the live domain
    (every ``*``-or-live-label cell, and each dimension's
    :data:`UNSEEN` label).  ``point`` and ``class_of`` are asked on
    every such cell, so every cell must land in its own class; the
    five exploration ops on about :data:`MAX_CLASSES` classes — each
    from its upper bound and from a lower bound below it (a cell that
    is not closed) — and on the all-``*`` cell, one empty cell and the
    unseen ones; with ``every_cell``, on every cell as well.  ``range``
    and ``iceberg_in_range`` on four specs (all ``*``, two labels a
    dimension, mixed, unknown only); ``iceberg`` at two thresholds."""
    records = reference.records
    labels = [sorted({r[j] for r in records}) for j in range(N_DIMS)]
    cells = list(product(*(["*"] + d for d in labels)))
    unseen = [("*",) * j + (UNSEEN,) + ("*",) * (N_DIMS - j - 1)
              for j in range(N_DIMS)]
    if every_cell:
        explored = cells + unseen
    else:
        classes = sorted((c for c, _ in reference.iceberg(float("-inf"),
                                                          ">")),
                         key=cell_key)
        chosen = classes[::max(1, len(classes) // MAX_CLASSES)]
        empty = [c for c in cells if reference.point(c) is None][:1]
        explored = sorted(
            set(chosen) | {("*",) * N_DIMS}
            | {low for ub in chosen for low in _lower_bound_below(reference,
                                                                  ub)},
            key=cell_key,
        ) + empty + unseen
    out = [(op, (cell,)) for cell in cells + unseen
           for op in CELL_OPS[:2]]
    out += [(op, (cell,)) for cell in explored for op in CELL_OPS[2:]]
    specs = [
        ("*",) * N_DIMS,
        tuple(d[:2] + [UNSEEN] for d in labels),
        tuple(d[0] if j % 2 and d else "*" for j, d in enumerate(labels)),
        (UNSEEN,) + ("*",) * (N_DIMS - 1),
    ]
    out += [("range", (spec,)) for spec in specs]
    for threshold, op in THRESHOLDS:
        out.append(("iceberg", (threshold, op)))
        out += [("iceberg_in_range", (spec, threshold, op))
                for spec in specs]
    return out


# -- "the same answer" ---------------------------------------------------------


@dataclass(frozen=True)
class Refused:
    """A refused request: the same answer as a refusal of the same type."""

    error: type


def asker(target):
    """``ask(op, *args)`` over anything with the snapshot ops as methods
    (a warehouse, a snapshot, the :class:`Reference`); a server's is its
    ``query``."""
    return lambda op, *args: getattr(target, op)(*args)


def answer(ask, op: str, *args):
    """``ask(op, *args)``, with a :class:`ReproError` as a
    :class:`Refused`."""
    try:
        return ask(op, *args)
    except ReproError as exc:
        return Refused(type(exc))


def cell_key(cell) -> tuple:
    """A sort key of raw cells whose positions mix ``"*"`` and int
    labels; all-string cells sort as the tuples themselves."""
    return tuple((isinstance(v, str), v) for v in cell)


def _cell(pair):
    return cell_key(pair[0])


def _classes_same(got, want) -> bool:
    """``[(cell, value)]`` in any order."""
    got, want = sorted(got, key=_cell), sorted(want, key=_cell)
    return [c for c, _ in got] == [c for c, _ in want] and all(
        a == b for (_, a), (_, b) in zip(got, want))


def _cells_same(got, want) -> bool:
    """``{cell: value}``."""
    return set(got) == set(want) and all(got[c] == want[c] for c in got)


def _class_of_same(got, want) -> bool:
    """``(cell, value)`` or None."""
    return _classes_same([got] if got else [], [want] if want else [])


def _open_same(got, want) -> bool:
    return (got["upper_bound"] == want["upper_bound"]
            and sorted(got["lower_bounds"], key=cell_key)
            == sorted(want["lower_bounds"], key=cell_key)
            and sorted(got["members"], key=cell_key)
            == sorted(want["members"], key=cell_key)
            and got["value"] == want["value"])


#: Stable fields of a ``health`` answer (the rest are live readings).
_HEALTH_KEYS = ("status", "live", "ready", "closed")


def _line_same(got: str, want: str) -> bool:
    """Wire answers: errors by type prefix (the message may embed state),
    ``health`` by its stable fields, everything else byte for byte."""
    if want.startswith("error:"):
        return got.split(":")[:2] == want.split(":")[:2]
    if want.startswith("{") and '"status"' in want:
        got_d, want_d = json.loads(got), json.loads(want)
        return all(got_d[k] == want_d[k] for k in _HEALTH_KEYS)
    return got == want


SHAPES = {
    "point": operator.eq,
    "class_of": _class_of_same,
    "range": _cells_same,
    "iceberg_in_range": _cells_same,
    "iceberg": _classes_same,
    "rollup": _classes_same,
    "rollups": _classes_same,
    "rollup_exceptions": _classes_same,
    "drilldowns": _classes_same,
    "open_class": _open_same,
    "line": _line_same,
}


def assert_same(op: str, got, want, where: str = "") -> None:
    """``got`` is the answer ``want`` is, in ``op``'s answer shape."""
    if isinstance(got, Refused) or isinstance(want, Refused):
        same = got == want
    else:
        same = SHAPES[op](got, want)
    assert same, f"{where}{op}: got {got!r}, want {want!r}"


def expectations(records, aggregate=AGGREGATE,
                 every_cell: bool = False) -> list:
    """``[(op, args, the reference's answer)]`` for :func:`queries` over
    ``records``."""
    reference = Reference(records, aggregate)
    ask = asker(reference)
    return [(op, args, answer(ask, op, *args))
            for op, args in queries(reference, every_cell)]


def assert_answers(ask, expected, where: str = "") -> None:
    """Every expectation holds through ``ask``."""
    for op, args, want in expected:
        assert_same(op, answer(ask, op, *args), want,
                    where=f"{where}{args!r}: ")
