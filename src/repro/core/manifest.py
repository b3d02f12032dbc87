"""The manifest: the one atomic commit point of a checkpoint.

Every store checkpoints into one directory layout: immutable
per-segment files (``segment-XXXXXXXX.qct``/``.csv``, written first and
never modified; none for a store that never seals), the head snapshot
(``head-XXXXXXXX.qct``/``.csv``, a fresh sequence-numbered pair per
checkpoint), and ``MANIFEST.json`` — a checksummed JSON document naming
exactly which files constitute the store, in segment order, at which
WAL LSN, the aggregate every tree can be rebuilt with, and the schema
(dimension and measure names) the tables are read under — so a
directory names everything needed to reopen it.

The manifest is written *last* and atomically (temp file + fsync +
rename + directory fsync), so every crash leaves one of two states:

* the old manifest, whose files are all still present (segment files are
  never deleted by a checkpoint — garbage collection only removes files
  no manifest references **after** the new manifest is durable);
* the new manifest, whose files were all durable before it was renamed
  into place.

Files present in the directory but absent from the manifest are orphans
from an interrupted checkpoint; recovery ignores (and reports) them.
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
                  schema: Schema, segments: list, head: dict,
                  next_segment_id: int) -> None:
    """Atomically publish a manifest describing the current segment set.

    ``segments`` is a list of ``{"id", "rows", "tree", "table"}`` entries
    in segment (arrival) order; ``head`` is ``{"rows", "tree", "table"}``
    for the mutable head's snapshot.
    """
    payload = {
        "format": FORMAT,
        "lsn": int(lsn),
        "generation": int(generation),
        "aggregate": aggregate_spec,
        "schema": {"dimensions": list(schema.dimension_names),
                   "measures": list(schema.measure_names)},
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


def manifest_files(payload: dict) -> set:
    """Every file a manifest references (for orphan detection)."""
    names = {MANIFEST_NAME}
    for entry in payload["segments"]:
        names.add(entry["tree"])
        names.add(entry["table"])
    names.add(payload["head"]["tree"])
    names.add(payload["head"]["table"])
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
