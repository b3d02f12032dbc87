"""Dictionary-encoded base tables.

A :class:`BaseTable` holds the fact rows a cube summarizes.  Dimension
values are dictionary-encoded to dense non-negative ints at construction so
that cells are cheap tuples and the paper's "dictionary order with ``*``
first" becomes a plain integer sort (see
:func:`repro.core.cells.dict_sort_key`).  The rows are stored once, as a
read-only ``n_rows x n_dims`` integer code matrix (:attr:`BaseTable.codes`);
every operation reads its columns.  Measures are kept in a float matrix.

Encoding is stable: codes are assigned by sorting the distinct labels of
each dimension, so two tables built from permutations of the same records
encode identically (this underpins the Theorem 1 "tree is unique" tests).
Labels first seen by :meth:`BaseTable.extended` receive fresh codes after
the existing ones, which keeps earlier trees valid during incremental
maintenance.
"""

from __future__ import annotations

import csv
import io
import math
import numbers
from contextlib import suppress
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from repro.core.cells import ALL, Cell
from repro.cube.schema import Schema
from repro.errors import SchemaError


#: Codes of :meth:`BaseTable.encode_points`: ``*``, and a label the table
#: has never seen (no cell holding one is in the cube).
ANY_CODE = -1
UNSEEN_CODE = -2


def _label_sort_key(label):
    """Sort key tolerating mixed label types within a dimension."""
    return (label.__class__.__name__, label)


def python_scalars(values) -> tuple:
    """``values`` as a tuple, each NumPy scalar as its Python scalar
    (``.item()``, what a checkpoint, a WAL record and a snapshot's JSON
    spell back)."""
    return tuple(v.item() if isinstance(v, np.generic) else v for v in values)


def _new_labels(column, known=()) -> list:
    """The labels in ``column`` that ``known`` lacks, in dictionary
    order, a NumPy scalar as its Python scalar."""
    labels = set(python_scalars(set(column)))
    return sorted(labels.difference(known), key=_label_sort_key)


def _encoded(records, encoders, decoders) -> np.ndarray:
    """The ``int32`` code matrix of ``records``, a column at a time; the
    labels ``encoders`` lacks are appended in dictionary order."""
    codes = np.empty((len(records), len(encoders)), dtype=np.int32)
    for j, (encoder, decoder) in enumerate(zip(encoders, decoders)):
        column = [r[j] for r in records]
        for label in _new_labels(column, encoder):
            encoder[label] = len(decoder)
            decoder.append(label)
        codes[:, j] = np.fromiter(map(encoder.__getitem__, column),
                                  np.int32, len(column))
    return codes


def refuse_non_finite(records, schema: Schema) -> None:
    """:class:`SchemaError` naming the first record with a measure that
    reads as a non-finite number, which no exact aggregate state holds
    (one that is not a number is the encoder's to refuse)."""
    for record in records:
        for name, value in zip(schema.measure_names, record[schema.n_dims:]):
            with suppress(TypeError, ValueError):
                if not math.isfinite(float(value)):
                    raise SchemaError(
                        f"record {record!r} has the non-finite measure "
                        f"{name!r}: measures are finite numbers, as exact "
                        "aggregate states hold no NaN or infinity")


def _measure_matrix(records, schema: Schema):
    """The float64 measure matrix of raw ``records`` (dimension labels
    then measures, schema order); :class:`SchemaError` for a record of
    the wrong width or a measure that is not a finite number."""
    n_dims, n_meas = schema.n_dims, schema.n_measures
    matrix = []
    for r in records:
        if len(r) != n_dims + n_meas:
            raise SchemaError(
                f"record {r!r} has {len(r)} fields, schema expects "
                f"{n_dims + n_meas}"
            )
        try:
            matrix.append([float(v) for v in r[n_dims:]])
        except (TypeError, ValueError) as exc:
            raise SchemaError(
                f"record {r!r} has a non-numeric measure: {exc}"
            ) from exc
    matrix = np.array(matrix, dtype=np.float64).reshape(len(records), n_meas)
    if not np.isfinite(matrix).all():
        refuse_non_finite(records, schema)
    return matrix


#: The label types a checkpoint records per dimension, by name, with the
#: parser that reads one back from text (a CSV table, a protocol field).
LABEL_PARSERS = {
    "str": str,
    "int": int,
    "float": float,
    "bool": {"True": True, "False": False}.__getitem__,
}


def label_type(label) -> Optional[str]:
    """The :data:`LABEL_PARSERS` name of ``label``'s type; None for a
    type a checkpoint cannot spell back."""
    if isinstance(label, (bool, np.bool_)):
        return "bool"
    if isinstance(label, numbers.Integral):
        return "int"
    if isinstance(label, float):
        return "float"
    if isinstance(label, str):
        return "str"
    return None


class BaseTable:
    """An immutable, dictionary-encoded fact table.

    Use :meth:`from_records` to build one from raw records;
    :meth:`extended` / :meth:`without_rows` derive updated tables for
    incremental-maintenance experiments without mutating the original.
    """

    def __init__(self, schema: Schema, codes, measures, decoders, encoders):
        self.schema = schema
        #: The rows: a read-only ``(n_rows, n_dims)`` int matrix, ``int32``
        #: or an attached blob's ``<i8`` section viewed in place.
        self.codes = np.ascontiguousarray(codes).view()
        self.codes.flags.writeable = False
        #: Measure matrix, shape ``(n_rows, n_measures)``.
        self.measures = measures
        self._decoders = decoders  # per-dim list: code -> label
        self._encoders = encoders  # per-dim dict: label -> code

    # -- construction -----------------------------------------------------

    @classmethod
    def from_records(cls, records: Iterable[Sequence], schema: Schema) -> "BaseTable":
        """Build a table from raw records.

        Each record holds the dimension labels followed by the measure
        values, in schema order.  Duplicate records are allowed (the table
        is a multiset, as required by the maintenance algorithms).
        """
        records = [tuple(r) for r in records]
        measures = _measure_matrix(records, schema)
        encoders = [{} for _ in range(schema.n_dims)]
        decoders = [[] for _ in range(schema.n_dims)]
        codes = _encoded(records, encoders, decoders)
        return cls(schema, codes, measures, decoders, encoders)

    @classmethod
    def from_encoded(cls, rows, measures, schema: Schema, cardinalities=None) -> "BaseTable":
        """Build a table whose dimension values are already dense ints.

        Synthetic generators produce coded data directly (rows, or an
        ``(n_rows, n_dims)`` array); labels equal the codes.
        ``cardinalities`` fixes each dimension's domain size (else the
        observed maximum is used).  A code outside ``[0, cardinality)``
        raises :class:`SchemaError`.
        """
        n_dims = schema.n_dims
        try:
            codes = np.asarray(rows, dtype=np.int64)
            if codes.size == 0:
                codes = codes.reshape(0, n_dims)
            if codes.ndim != 2 or codes.shape[1] != n_dims:
                raise ValueError(f"their shape is {codes.shape}")
        except ValueError as exc:  # ragged, or of another width
            raise SchemaError(
                f"encoded rows are not {n_dims} codes wide: {exc}") from None
        if cardinalities is None:
            cardinalities = (codes.max(axis=0, initial=-1) + 1).tolist()
        bad = ((codes < 0) | (codes >= np.asarray(cardinalities))).any(axis=1)
        if bad.any():
            raise SchemaError(
                f"encoded row {tuple(codes[bad.argmax()].tolist())!r} has a "
                f"code outside [0, cardinality) for cardinalities "
                f"{tuple(cardinalities)}"
            )
        decoders = [list(range(card)) for card in cardinalities]
        encoders = [{v: v for v in range(card)} for card in cardinalities]
        measures = np.asarray(measures, dtype=np.float64).reshape(
            len(codes), schema.n_measures
        )
        return cls(schema, codes.astype(np.int32, order="C"), measures,
                   decoders, encoders)

    # -- basic properties --------------------------------------------------

    @property
    def n_rows(self) -> int:
        """Number of fact rows."""
        return len(self.codes)

    @property
    def n_dims(self) -> int:
        """Number of dimensions."""
        return self.schema.n_dims

    def __len__(self) -> int:
        return len(self.codes)

    def __repr__(self):
        return (
            f"BaseTable({self.n_rows} rows, dims={self.schema.dimension_names}, "
            f"measures={self.schema.measure_names})"
        )

    @property
    def rows(self) -> list:
        """The encoded rows as a list of int tuples, built from
        :attr:`codes` on every access (nothing caches it): for tests and
        the brute-force reference oracles, which read it once per call."""
        return list(map(tuple, self.codes.tolist()))

    def cardinality(self, dim) -> int:
        """Domain size of a dimension (by index or name)."""
        j = dim if isinstance(dim, int) else self.schema.dim_index(dim)
        return len(self._decoders[j])

    def cardinalities(self) -> tuple:
        """Domain sizes of all dimensions, in schema order."""
        return tuple(len(d) for d in self._decoders)

    # -- encoding ----------------------------------------------------------

    def encode_value(self, dim: int, label):
        """Translate a raw label into its dimension code.

        Raises :class:`SchemaError` for labels absent from the dimension's
        dictionary — callers that want "absent value means empty result"
        semantics should catch it (query layers do).
        """
        try:
            return self._encoders[dim][label]
        except KeyError:
            raise SchemaError(
                f"value {label!r} not present in dimension "
                f"{self.schema.dimension_names[dim]!r}"
            ) from None

    def decode_value(self, dim: int, code):
        """Translate a dimension code back into its raw label."""
        return self._decoders[dim][code]

    def encode_cell(self, raw_cell: Sequence) -> Cell:
        """Encode a user-facing cell; ``"*"``, ``None`` and ALL mean ALL."""
        if len(raw_cell) != self.n_dims:
            raise SchemaError(
                f"cell {raw_cell!r} has {len(raw_cell)} positions, "
                f"table has {self.n_dims} dimensions"
            )
        out = []
        for j, v in enumerate(raw_cell):
            if v is ALL or v is None or v == "*":
                out.append(ALL)
            else:
                out.append(self.encode_value(j, v))
        return tuple(out)

    def encode_points(self, cells) -> np.ndarray:
        """The ``int32`` code matrix of raw cells of ``n_dims`` labels
        each: :data:`ANY_CODE` where ``"*"``/None/ALL, and
        :data:`UNSEEN_CODE` for a label this table has never seen.  A
        label no dictionary can look up raises ``TypeError``."""
        codes = np.empty((len(cells), self.n_dims), dtype=np.int32)
        for dim, column in enumerate(zip(*cells)):
            code = self._encoders[dim].get
            codes[:, dim] = [ANY_CODE if v is ALL or v is None or v == "*"
                             else code(v, UNSEEN_CODE) for v in column]
        return codes

    def decode_cell(self, cell: Cell) -> tuple:
        """Decode an internal cell back to raw labels (ALL becomes ``"*"``)."""
        return tuple([
            "*" if v is ALL else labels[v]
            for v, labels in zip(cell, self._decoders)
        ])

    # -- row access ---------------------------------------------------------

    def iter_records(self) -> Iterator[tuple]:
        """Yield decoded records: dimension labels then measure values."""
        columns = [list(map(decoder.__getitem__, self.codes[:, j].tolist()))
                   for j, decoder in enumerate(self._decoders)]
        for dims, measures in zip(zip(*columns), self.measures.tolist()):
            yield dims + tuple(measures)

    def select(self, cell: Cell) -> list:
        """Return indices of rows covered by ``cell`` (encoded)."""
        covered = np.ones(self.n_rows, dtype=bool)
        for j, v in enumerate(cell):
            if v is not ALL:
                covered &= self.codes[:, j] == v
        return np.flatnonzero(covered).tolist()

    # -- derivation ----------------------------------------------------------

    def extended(self, records: Iterable[Sequence]) -> tuple:
        """Return ``(new_table, delta_table)`` after appending raw records.

        Labels unseen so far get fresh codes appended to each dimension's
        dictionary, so all previously issued codes remain valid.  The second
        element is a table holding only the new rows, encoded with the *new*
        dictionaries — handy for maintenance algorithms that DFS over the
        delta alone.
        """
        records = [tuple(r) for r in records]
        new_measures = _measure_matrix(records, self.schema)
        encoders = [dict(e) for e in self._encoders]
        decoders = [list(d) for d in self._decoders]
        new_codes = _encoded(records, encoders, decoders)
        combined = BaseTable(
            self.schema,
            np.concatenate([self.codes, new_codes]) if records else self.codes,
            np.vstack([self.measures, new_measures]) if records else self.measures,
            decoders,
            encoders,
        )
        delta = BaseTable(self.schema, new_codes, new_measures, decoders,
                          encoders)
        return combined, delta

    def without_rows(self, indices) -> "BaseTable":
        """Return a table with the given row indices removed (a repeated
        index once), copied in C by ``np.delete``."""
        drop = sorted(set(indices))
        bad = [i for i in drop if not 0 <= i < self.n_rows]
        if bad:
            raise SchemaError(f"row indices out of range: {bad}")
        return BaseTable(
            self.schema,
            np.delete(self.codes, drop, axis=0),
            np.delete(self.measures, drop, axis=0),
            self._decoders,
            self._encoders,
        )

    def subset(self, indices) -> "BaseTable":
        """Return a table holding only the given row indices (same encoding)."""
        indices = np.asarray(list(indices), dtype=np.intp)
        return BaseTable(
            self.schema,
            self.codes[indices],
            self.measures[indices],
            self._decoders,
            self._encoders,
        )

    def projected(self, dims) -> "BaseTable":
        """Return a table restricted to the listed dimensions (re-encoded)."""
        return self._recoded(dims, self.schema.projected)

    def reordered(self, dim_order) -> "BaseTable":
        """Return a table with dimensions permuted into ``dim_order``."""
        return self._recoded(dim_order, self.schema.reordered)

    def _recoded(self, dims, derive) -> "BaseTable":
        """The table of ``dims`` (indices or names), in that order, under
        the schema ``derive(indices)``, encoded as :meth:`from_records`
        would encode its records."""
        indices = [
            d if isinstance(d, int) else self.schema.dim_index(d) for d in dims
        ]
        schema = derive(indices)
        labels, codes = self._dictionary(indices)
        return BaseTable(
            schema, codes, self.measures, labels,
            [{label: code for code, label in enumerate(column)}
             for column in labels])

    def _dictionary(self, dims) -> tuple:
        """``(labels, codes)`` of dimensions ``dims``: per dimension the
        labels the rows use, in dictionary order, and the ``int32`` code
        matrix of those columns remapped to them."""
        codes = np.empty((self.n_rows, len(dims)), dtype=np.int32)
        labels = []
        for k, j in enumerate(dims):
            column, decoder = self.codes[:, j], self._decoders[j]
            used = np.flatnonzero(np.bincount(column, minlength=len(decoder)))
            names = python_scalars(decoder[c] for c in used.tolist())
            order = sorted(range(len(names)),
                           key=lambda i: _label_sort_key(names[i]))
            remap = np.zeros(len(decoder), dtype=np.int32)
            remap[used[order]] = np.arange(len(order))
            codes[:, k] = remap[column]
            labels.append([names[i] for i in order])
        return labels, codes

    # -- columns and CSV ------------------------------------------------------

    def label_types(self) -> tuple:
        """Per dimension, the :func:`label_type` every label shares (None
        without labels); :class:`SchemaError` for a dimension whose labels
        mix types, which a checkpoint could not read back."""
        out = []
        for name, labels in zip(self.schema.dimension_names, self._decoders):
            kinds = {label_type(label) for label in labels}
            if len(kinds) > 1:
                raise SchemaError(
                    f"dimension {name!r} mixes labels of types "
                    f"{sorted(map(str, kinds))}: a checkpoint could not "
                    f"spell them back"
                )
            out.append(kinds.pop() if kinds else None)
        return tuple(out)

    def columns(self) -> tuple:
        """``(labels, codes)``: per dimension the labels the rows use, in
        dictionary order, and the ``int32`` code matrix of the rows
        remapped to them — the encoding ``from_records(iter_records())``
        would mint, whatever labels :meth:`extended` appended out of
        order or deleted rows left behind.  A label of no
        :func:`label_type` raises :class:`SchemaError`: no checkpoint
        could spell it back."""
        labels, codes = self._dictionary(range(self.n_dims))
        for name, column in zip(self.schema.dimension_names, labels):
            for label in column:
                if label_type(label) is None:
                    raise SchemaError(
                        f"label {label!r} of dimension {name!r} is not a "
                        f"str, int, float or bool: a checkpoint cannot "
                        f"spell it back"
                    )
        return labels, codes

    @classmethod
    def from_columns(cls, schema: Schema, labels, codes,
                     measures) -> "BaseTable":
        """The table of :meth:`columns`' ``(labels, codes)`` and a
        float64 measure matrix.  A repeated label, a code past its
        dimension's labels and a measure that is not finite raise
        :class:`SchemaError`."""
        encoders = []
        for name, column, top in zip(schema.dimension_names, labels,
                                     codes.max(axis=0, initial=0)):
            encoder = {label: code for code, label in enumerate(column)}
            if len(encoder) != len(column):
                raise SchemaError(
                    f"dimension {name!r} repeats a label of its dictionary")
            if len(codes) and top >= len(column):
                raise SchemaError(
                    f"dimension {name!r} has the code {int(top)}, past its "
                    f"{len(column)} labels")
            encoders.append(encoder)
        if not np.isfinite(measures).all():
            raise SchemaError(
                "a measure is not finite: exact aggregate states hold no "
                "NaN or infinity")
        return cls(schema, codes.astype(np.int32), measures,
                   [list(column) for column in labels], encoders)

    @classmethod
    def from_csv(cls, path, schema: Schema) -> "BaseTable":
        """Read the CSV file at ``path``, every label a string; see
        :meth:`parse_csv`."""
        with open(path, newline="", encoding="utf-8") as f:
            return cls.parse_csv(f.read(), schema)

    @classmethod
    def parse_csv(cls, text: str, schema: Schema,
                  label_types=None) -> "BaseTable":
        """The table of CSV ``text`` (a header naming ``schema``'s
        columns, then records); measures parse as float.

        ``label_types`` names each dimension's label type
        (:data:`LABEL_PARSERS`); without it, or for a None entry, labels
        stay strings.  Leading ``#`` comment lines are skipped.  A
        missing or wrong header, a label its type cannot parse and a
        malformed record raise :class:`SchemaError`.
        """
        reader = csv.reader(io.StringIO(text, newline=""))
        try:
            header = next(reader, None)
            while header and header[0].startswith("#"):
                header = next(reader, None)
            expected = list(schema.dimension_names) + list(schema.measure_names)
            if header != expected:
                raise SchemaError(
                    f"CSV header {header!r} does not match schema {expected!r}"
                )
            records = [tuple(row) for row in reader if row]
        except csv.Error as exc:
            raise SchemaError(f"malformed CSV: {exc}") from exc
        for r in records:
            if len(r) != len(expected):
                raise SchemaError(
                    f"CSV record {r!r} has {len(r)} fields, the header "
                    f"{len(expected)}"
                )
        for j, name in enumerate(label_types or ()):
            if name in (None, "str"):
                continue
            parse = LABEL_PARSERS[name]
            try:
                typed = {text: parse(text) for text in {r[j] for r in records}}
            except (KeyError, ValueError) as exc:
                raise SchemaError(
                    f"dimension {schema.dimension_names[j]!r} holds a label "
                    f"that is not of type {name}: {exc}"
                ) from None
            records = [r[:j] + (typed[r[j]],) + r[j + 1:] for r in records]
        return cls.from_records(records, schema)
