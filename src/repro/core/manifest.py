"""The manifest: the one atomic commit point of a checkpoint.

A checkpoint is its base tables.  Theorem 2 makes a QC-tree a function
of its table, so every store checkpoints into one directory of tables,
each a piece file (:func:`~repro.core.piece.piece_bytes`: label
dictionaries, code matrix, measures): immutable per-segment files
(``segment-XXXXXXXX.piece``, written first and never modified; none for
a store that never seals), the head's table (``head-XXXXXXXX.piece``, a
fresh sequence-numbered file per checkpoint),
and ``MANIFEST.json`` — a checksummed JSON document naming exactly which
tables constitute the store, in segment order, each with its row count
and the CRC32 of its bytes, at which WAL LSN, the aggregate every tree
is built with, and the schema (dimension and measure names, and each
dimension's label type) the tables are read under — so a directory
names everything needed to reopen it.  Opening one builds every tree
again (:meth:`Piece.load <repro.core.piece.Piece.load>`).

The manifest is written *last* and atomically (temp file + fsync +
rename + directory fsync), so every crash leaves one of two states:

* the old manifest, whose files are all still present (segment files are
  never deleted by a checkpoint — garbage collection only removes files
  no manifest references **after** the new manifest is durable);
* the new manifest, whose files were all durable before it was renamed
  into place.

Files present in the directory but absent from the manifest are orphans
from an interrupted checkpoint; recovery ignores (and reports) them.  A
directory written before piece files names CSV tables
(``head-XXXXXXXX.csv``): recovery reads each once, and the next
checkpoint writes piece files and deletes the CSVs as orphans.  One
written before tables were the whole checkpoint also names a ``.qct``
tree file per entry: recovery ignores the ``tree`` keys, reads an entry
without ``crc32`` unchecked and every dimension's labels as strings,
and the next checkpoint deletes the trees as orphans.
"""

from __future__ import annotations

import json
import os
import zlib

from repro.atomic import replace_file
from repro.cube.schema import Schema
from repro.errors import RecoveryError

MANIFEST_NAME = "MANIFEST.json"
FORMAT = "QCSEGSET/1"


def save_manifest(directory, *, lsn: int, generation: int, aggregate_spec,
                  schema: Schema, label_types, segments: list, head: dict,
                  next_segment_id: int) -> None:
    """Atomically publish a manifest describing the current segment set.

    ``segments`` is a list of ``{"id", "rows", "table", "crc32"}``
    entries in segment (arrival) order; ``head`` is ``{"rows", "table",
    "crc32", "seq"}`` for the mutable head's table.  ``label_types``
    names each dimension's label type (a
    :data:`~repro.cube.table.LABEL_PARSERS` key, None when unknown).
    """
    payload = {
        "format": FORMAT,
        "lsn": int(lsn),
        "generation": int(generation),
        "aggregate": aggregate_spec,
        "schema": {"dimensions": list(schema.dimension_names),
                   "measures": list(schema.measure_names),
                   "label_types": list(label_types)},
        "next_segment_id": int(next_segment_id),
        "segments": segments,
        "head": head,
    }
    body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    crc = zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF
    document = json.dumps({"crc32": f"{crc:08x}", "manifest": payload},
                          sort_keys=True, indent=1)
    replace_file(os.path.join(directory, MANIFEST_NAME),
                 lambda fp: fp.write(document), encoding="utf-8")


def load_manifest(directory) -> dict:
    """Load and verify the manifest; raises :class:`RecoveryError` when it
    is missing, corrupt, or of an unknown format."""
    path = os.path.join(directory, MANIFEST_NAME)
    try:
        with open(path, encoding="utf-8") as fp:
            document = json.load(fp)
    except FileNotFoundError:
        raise RecoveryError(f"no segment manifest at {path}")
    except (json.JSONDecodeError, OSError) as exc:
        raise RecoveryError(f"unreadable segment manifest {path}: {exc}")
    try:
        payload = document["manifest"]
        stored = document["crc32"]
    except (TypeError, KeyError):
        raise RecoveryError(f"malformed segment manifest {path}")
    body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    crc = zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF
    if f"{crc:08x}" != stored:
        raise RecoveryError(
            f"segment manifest {path} checksum mismatch "
            f"(stored {stored}, computed {crc:08x})"
        )
    if payload.get("format") != FORMAT:
        raise RecoveryError(
            f"segment manifest {path} has unknown format "
            f"{payload.get('format')!r}"
        )
    return payload


def manifest_schema(payload: dict, directory) -> Schema:
    """The schema a manifest names; raises :class:`RecoveryError` for a
    manifest written before the entry existed."""
    entry = payload.get("schema")
    if entry is None:
        raise RecoveryError(
            f"segment manifest in {directory} names no schema; rebuild "
            f"the store, or recover it with a schema and checkpoint it"
        )
    return Schema(dimensions=tuple(entry["dimensions"]),
                  measures=tuple(entry["measures"]))


def manifest_label_types(payload: dict, schema: Schema) -> tuple:
    """Each of ``schema``'s dimensions' label type as the manifest
    records it; a manifest written before the entry existed reads every
    label as a string, as its writer did."""
    types = (payload.get("schema") or {}).get("label_types")
    if types is None:
        return ("str",) * schema.n_dims
    return tuple(types)


def manifest_files(payload: dict) -> set:
    """Every file a manifest references (for orphan detection)."""
    names = {MANIFEST_NAME, payload["head"]["table"]}
    names.update(entry["table"] for entry in payload["segments"])
    return names


def find_orphans(directory, payload: dict) -> list:
    """Files in ``directory`` that no manifest entry references —
    leftovers of an interrupted checkpoint, safe to ignore or delete."""
    wanted = manifest_files(payload)
    orphans = []
    for name in sorted(os.listdir(directory)):
        if name in wanted or name.endswith(".tmp"):
            continue
        if name.startswith("segment-") or name.startswith("head"):
            orphans.append(name)
    return orphans
