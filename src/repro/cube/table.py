"""Dictionary-encoded base tables.

A :class:`BaseTable` holds the fact rows a cube summarizes.  Dimension
values are dictionary-encoded to dense non-negative ints at construction so
that cells are cheap tuples and the paper's "dictionary order with ``*``
first" becomes a plain integer sort (see
:func:`repro.core.cells.dict_sort_key`).  Measures are kept in a float
matrix.

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
import numbers
import zlib
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from repro.atomic import replace_file
from repro.core.cells import ALL, Cell, covers
from repro.cube.schema import Schema
from repro.errors import SchemaError


def _label_sort_key(label):
    """Sort key tolerating mixed label types within a dimension."""
    return (label.__class__.__name__, label)


def python_scalars(values) -> tuple:
    """``values`` as a tuple, each NumPy scalar as its Python scalar
    (``.item()``, what a checkpoint, a WAL record and a snapshot's JSON
    spell back)."""
    return tuple(v.item() if isinstance(v, np.generic) else v for v in values)


def _new_labels(records, j: int, known=()) -> list:
    """Dimension ``j``'s labels in ``records`` that ``known`` lacks, in
    dictionary order, a NumPy scalar as its Python scalar."""
    labels = set(python_scalars({r[j] for r in records}))
    return sorted(labels.difference(known), key=_label_sort_key)


def _measure_matrix(records, schema: Schema):
    """The float64 measure matrix of raw ``records`` (dimension labels
    then measures, schema order); :class:`SchemaError` for a record of
    the wrong width or a measure that is not a number."""
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
    return np.array(matrix, dtype=np.float64).reshape(len(records), n_meas)


#: The label types a checkpoint records per dimension, by name, with the
#: parser that reads one back from its CSV text.
LABEL_PARSERS = {
    "str": str,
    "int": int,
    "float": float,
    "bool": {"True": True, "False": False}.__getitem__,
}


def label_type(label) -> Optional[str]:
    """The :data:`LABEL_PARSERS` name of ``label``'s type; None for a
    type a CSV cannot spell back."""
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

    def __init__(self, schema: Schema, rows, measures, decoders, encoders):
        self.schema = schema
        #: Encoded dimension rows: list of tuples of ints.
        self.rows = rows
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
        n_dims = schema.n_dims
        measures = _measure_matrix(records, schema)
        encoders = []
        decoders = []
        for j in range(n_dims):
            labels = _new_labels(records, j)
            encoders.append({label: code for code, label in enumerate(labels)})
            decoders.append(list(labels))
        rows = [
            tuple(encoders[j][r[j]] for j in range(n_dims)) for r in records
        ]
        return cls(schema, rows, measures, decoders, encoders)

    @classmethod
    def from_encoded(cls, rows, measures, schema: Schema, cardinalities=None) -> "BaseTable":
        """Build a table whose dimension values are already dense ints.

        Synthetic generators produce coded data directly; labels equal the
        codes.  ``cardinalities`` fixes each dimension's domain size (else
        the observed maximum is used).  A code outside ``[0,
        cardinality)`` raises :class:`SchemaError`.
        """
        rows = [tuple(int(v) for v in r) for r in rows]
        n_dims = schema.n_dims
        for r in rows:
            if len(r) != n_dims:
                raise SchemaError(
                    f"encoded row {r!r} has {len(r)} dims, schema expects {n_dims}"
                )
        if cardinalities is None:
            cardinalities = [
                (max((r[j] for r in rows), default=-1) + 1) for j in range(n_dims)
            ]
        codes = np.array(rows, dtype=np.int64).reshape(len(rows), n_dims)
        bad = ((codes < 0) | (codes >= np.asarray(cardinalities))).any(axis=1)
        if bad.any():
            raise SchemaError(
                f"encoded row {rows[int(bad.argmax())]!r} has a code outside "
                f"[0, cardinality) for cardinalities {tuple(cardinalities)}"
            )
        decoders = [list(range(card)) for card in cardinalities]
        encoders = [{v: v for v in range(card)} for card in cardinalities]
        measures = np.asarray(measures, dtype=np.float64).reshape(
            len(rows), schema.n_measures
        )
        return cls(schema, rows, measures, decoders, encoders)

    # -- basic properties --------------------------------------------------

    @property
    def n_rows(self) -> int:
        """Number of fact rows."""
        return len(self.rows)

    @property
    def n_dims(self) -> int:
        """Number of dimensions."""
        return self.schema.n_dims

    def __len__(self) -> int:
        return len(self.rows)

    def __repr__(self):
        return (
            f"BaseTable({self.n_rows} rows, dims={self.schema.dimension_names}, "
            f"measures={self.schema.measure_names})"
        )

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

    def decode_cell(self, cell: Cell) -> tuple:
        """Decode an internal cell back to raw labels (ALL becomes ``"*"``)."""
        return tuple([
            "*" if v is ALL else labels[v]
            for v, labels in zip(cell, self._decoders)
        ])

    # -- row access ---------------------------------------------------------

    def iter_records(self) -> Iterator[tuple]:
        """Yield decoded records: dimension labels then measure values."""
        for i, row in enumerate(self.rows):
            dims = tuple(self.decode_value(j, v) for j, v in enumerate(row))
            yield dims + tuple(self.measures[i])

    def select(self, cell: Cell) -> list:
        """Return indices of rows covered by ``cell`` (encoded)."""
        return [i for i, row in enumerate(self.rows) if covers(cell, row)]

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
        n_dims = self.n_dims
        new_measures = _measure_matrix(records, self.schema)
        encoders = [dict(e) for e in self._encoders]
        decoders = [list(d) for d in self._decoders]
        for j in range(n_dims):
            for label in _new_labels(records, j, encoders[j]):
                encoders[j][label] = len(decoders[j])
                decoders[j].append(label)
        new_rows = [
            tuple(encoders[j][r[j]] for j in range(n_dims)) for r in records
        ]
        combined = BaseTable(
            self.schema,
            self.rows + new_rows,
            np.vstack([self.measures, new_measures]) if records else self.measures,
            decoders,
            encoders,
        )
        delta = BaseTable(self.schema, new_rows, new_measures, decoders, encoders)
        return combined, delta

    def without_rows(self, indices) -> "BaseTable":
        """Return a table with the given row indices removed (a repeated
        index once), copied in C: ``del`` from the end, ``np.delete``."""
        drop = sorted(set(indices), reverse=True)
        bad = [i for i in drop if not 0 <= i < self.n_rows]
        if bad:
            raise SchemaError(f"row indices out of range: {sorted(bad)}")
        rows = list(self.rows)
        for i in drop:
            del rows[i]
        return BaseTable(
            self.schema,
            rows,
            np.delete(self.measures, drop, axis=0),
            self._decoders,
            self._encoders,
        )

    def subset(self, indices) -> "BaseTable":
        """Return a table holding only the given row indices (same encoding)."""
        indices = list(indices)
        return BaseTable(
            self.schema,
            [self.rows[i] for i in indices],
            self.measures[indices] if indices else self.measures[:0],
            self._decoders,
            self._encoders,
        )

    def projected(self, dims) -> "BaseTable":
        """Return a table restricted to the listed dimensions (re-encoded)."""
        indices = [
            d if isinstance(d, int) else self.schema.dim_index(d) for d in dims
        ]
        schema = self.schema.projected(indices)
        records = []
        for i, row in enumerate(self.rows):
            labels = tuple(self.decode_value(j, row[j]) for j in indices)
            records.append(labels + tuple(self.measures[i]))
        return BaseTable.from_records(records, schema)

    def reordered(self, dim_order) -> "BaseTable":
        """Return a table with dimensions permuted into ``dim_order``."""
        indices = [
            d if isinstance(d, int) else self.schema.dim_index(d)
            for d in dim_order
        ]
        schema = self.schema.reordered(indices)
        records = []
        for i, row in enumerate(self.rows):
            labels = tuple(self.decode_value(j, row[j]) for j in indices)
            records.append(labels + tuple(self.measures[i]))
        return BaseTable.from_records(records, schema)

    # -- CSV I/O ---------------------------------------------------------------

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

    def to_csv(self, path) -> str:
        """Write the decoded records with a header row, atomically, and
        return the written bytes' CRC32 as 8 hex digits.

        The file goes to a sibling temp path, is flushed and fsynced,
        and renamed into place — a crash mid-write leaves any previous
        file untouched.  A label of no :func:`label_type` raises
        :class:`SchemaError` before anything is written: its ``str()``
        would read back as another label.
        """
        for name, labels in zip(self.schema.dimension_names, self._decoders):
            for label in labels:
                if label_type(label) is None:
                    raise SchemaError(
                        f"label {label!r} of dimension {name!r} is not a "
                        f"str, int, float or bool: a CSV cannot spell it "
                        f"back"
                    )
        text = io.StringIO()
        writer = csv.writer(text)
        writer.writerow(
            list(self.schema.dimension_names) + list(self.schema.measure_names)
        )
        writer.writerows(self.iter_records())
        data = text.getvalue().encode("utf-8")
        replace_file(path, lambda f: f.write(data), mode="wb")
        return f"{zlib.crc32(data):08x}"

    @classmethod
    def from_csv(cls, path, schema: Schema) -> "BaseTable":
        """Read records written by :meth:`to_csv`, every label a string;
        see :meth:`parse_csv`."""
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
