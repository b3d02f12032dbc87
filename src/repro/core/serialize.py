"""Versioned persistence for QC-trees.

A warehouse summary structure must survive process restarts, so QC-trees
serialize to a compact self-describing format: a magic header followed by
one JSON document holding the dimension metadata, the aggregate spec, the
node table (label dim, label value, parent, aggregate state), and the
link list.  Node ids are compacted on save, so freed slots never leak
into the file.

Three format versions exist (each is read because files of it exist;
which one is *written* is a caller's choice between a text pair loader
and a zero-copy attach, and ROADMAP item 3 owns collapsing them):

``QCTREE/3`` (packed, binary)
    The zero-copy layout of :mod:`repro.shard.pack`: typed little-endian
    buffers behind a checksummed header, attachable from shared memory
    or an mmap'd file and traversed in place — no deserialization.
    :func:`save_qctree_packed` writes it (atomically, like v2);
    :func:`load_qctree_from` auto-detects it and rebuilds a mutable
    tree from it — so v3 loads everywhere v2 does, and v2 files still
    load and re-pack; the in-place view is
    :func:`repro.shard.pack.attach_packed` /
    :func:`~repro.shard.pack.attach_packed_file`.

``QCTREE/2`` (written)
    The header line carries a CRC32 of the payload bytes plus the node
    and link counts — a reader detects truncation, torn writes, and
    bit rot *before* interpreting the document.  :func:`save_qctree`
    additionally writes atomically (temp file + flush + fsync +
    ``os.replace``), so a crash mid-save leaves the previous snapshot
    intact: a reader observes either the old file or the new one, never
    a mix.

``QCTREE/1`` (read-only, legacy)
    The original header-less-checksum format; still loadable so old
    snapshots survive the upgrade.

Aggregate states are ints, floats, or (nested) tuples; JSON carries them
as lists, which :func:`load_qctree` converts back.  Only aggregates built
through :func:`repro.cube.aggregates.make_aggregate` round-trip (custom
subclasses have no spec).
"""

from __future__ import annotations

import io
import json
import os
import re
import zlib

from repro.core.qctree import QCTree
from repro.cube.aggregates import aggregate_spec, make_aggregate
from repro.errors import SchemaError, SerializationError

_MAGIC_V1 = "QCTREE/1"
_MAGIC_V2 = "QCTREE/2"
_MAGIC_V3 = b"QCTREE/3"
_V2_HEADER = re.compile(
    r"^QCTREE/2 crc32=([0-9a-f]{8}) nodes=(\d+) links=(\d+)$"
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


def _state_to_json(state):
    if isinstance(state, tuple):
        return [_state_to_json(s) for s in state]
    return state


def _state_from_json(state):
    if isinstance(state, list):
        return tuple(_state_from_json(s) for s in state)
    return state


def _document_of(tree: QCTree, meta=None, labels=None) -> dict:
    order = list(tree.iter_nodes())
    remap = {node: i for i, node in enumerate(order)}
    nodes = []
    for node in order:
        nodes.append(
            [
                tree.node_dim[node],
                tree.node_value[node],
                remap.get(tree.parent[node], -1),
                _state_to_json(tree.state[node]),
            ]
        )
    links = [
        [remap[src], dim, value, remap[tgt]]
        for src, dim, value, tgt in tree.iter_links()
    ]
    document = {
        "n_dims": tree.n_dims,
        "dim_names": list(tree.dim_names),
        "aggregate": _spec_to_json(aggregate_spec(tree.aggregate)),
        "nodes": nodes,
        "links": links,
    }
    if meta:
        document["meta"] = dict(meta)
    if labels is not None:
        # The per-dimension label dictionaries (label lists in code
        # order) of the base table this tree was built against.  The
        # tree stores encoded label *codes*; a table CSV round-trip
        # re-mints codes in globally sorted order, which diverges from
        # a table grown batch-by-batch (fresh labels get appended
        # codes).  Persisting the dictionaries lets the loader re-encode
        # the table to the tree's codes instead of silently mispairing
        # them.
        document["labels"] = [list(d) for d in labels]
    return document


def dump_qctree(tree: QCTree, fp, meta=None, labels=None) -> None:
    """Write ``tree`` to a text file object in the ``QCTREE/2`` format.

    ``meta`` (an optional JSON-safe dict) rides along inside the
    checksummed payload and comes back as ``tree.snapshot_meta`` on load
    — the warehouse uses it to stamp snapshots with the write-ahead-log
    position they include.

    The whole snapshot is rendered in memory and written with a single
    ``fp.write`` so the payload the checksum covers is exactly the bytes
    that hit the stream.
    """
    document = _document_of(tree, meta=meta, labels=labels)
    payload = json.dumps(document)
    crc = zlib.crc32(payload.encode("utf-8")) & 0xFFFFFFFF
    header = (
        f"{_MAGIC_V2} crc32={crc:08x} "
        f"nodes={len(document['nodes'])} links={len(document['links'])}"
    )
    fp.write(header + "\n" + payload)


def _tree_from_document(document) -> QCTree:
    try:
        aggregate = make_aggregate(document["aggregate"])
        tree = QCTree(
            document["n_dims"], aggregate, dim_names=document["dim_names"]
        )
        nodes = document["nodes"]
        if not nodes:
            raise SerializationError("node table is empty (no root)")
        # Node 0 must be the root (preorder dump starts there).
        root_dim, _, root_parent, root_state = (
            nodes[0][0], nodes[0][1], nodes[0][2], nodes[0][3]
        )
        if root_dim != -1 or root_parent != -1:
            raise SerializationError("first node is not a root")
        tree.set_state(tree.root, _state_from_json(root_state))
        id_map = {0: tree.root}
        for i, (dim, value, parent, state) in enumerate(nodes[1:], start=1):
            if parent not in id_map:
                raise SerializationError(
                    f"node {i} references unknown parent {parent}"
                )
            node = tree._new_node(id_map[parent], dim, value)
            tree.set_state(node, _state_from_json(state))
            id_map[i] = node
        for src, dim, value, tgt in document["links"]:
            tree.add_link(id_map[src], dim, value, id_map[tgt])
    except SerializationError:
        raise
    except (KeyError, IndexError, TypeError, ValueError, SchemaError) as exc:
        raise SerializationError(f"corrupt QC-tree payload: {exc}") from exc
    meta = document.get("meta", {})
    tree.snapshot_meta = meta if isinstance(meta, dict) else {}
    labels = document.get("labels")
    tree.snapshot_labels = labels if isinstance(labels, list) else None
    return tree


def _parse_payload(payload: str, payload_offset: int):
    """Parse the JSON document, reporting the absolute failing offset."""
    try:
        return json.loads(payload)
    except json.JSONDecodeError as exc:
        raise SerializationError(
            f"malformed QC-tree payload at offset "
            f"{payload_offset + exc.pos}: {exc.msg}"
        ) from exc


def load_qctree(fp):
    """Read a QC-tree written by :func:`dump_qctree` (v2) or the legacy v1.

    Returns the mutable tree (``.freeze()`` compiles the read-optimized
    view).  Raises :class:`SerializationError` on bad magic, checksum or
    count mismatch, malformed JSON, or structurally inconsistent
    content; the message carries the failing byte offset where one is
    known.
    """
    header = fp.readline()
    magic = header.strip()
    payload_offset = len(header)
    if magic.startswith(_MAGIC_V2):
        match = _V2_HEADER.match(magic)
        if match is None:
            raise SerializationError(
                f"malformed {_MAGIC_V2} header {magic!r}"
            )
        want_crc = int(match.group(1), 16)
        want_nodes, want_links = int(match.group(2)), int(match.group(3))
        payload = fp.read()
        if not payload:
            raise SerializationError(
                f"truncated QC-tree file: payload missing at offset "
                f"{payload_offset}"
            )
        got_crc = zlib.crc32(payload.encode("utf-8")) & 0xFFFFFFFF
        if got_crc != want_crc:
            raise SerializationError(
                f"checksum mismatch over payload bytes "
                f"{payload_offset}..{payload_offset + len(payload)}: "
                f"header says crc32={want_crc:08x}, payload has "
                f"{got_crc:08x} (truncated or corrupt snapshot)"
            )
        document = _parse_payload(payload, payload_offset)
        try:
            n_nodes, n_links = len(document["nodes"]), len(document["links"])
        except (KeyError, TypeError) as exc:
            raise SerializationError(
                f"corrupt QC-tree payload: {exc}"
            ) from exc
        if (n_nodes, n_links) != (want_nodes, want_links):
            raise SerializationError(
                f"count mismatch: header says nodes={want_nodes} "
                f"links={want_links}, payload has nodes={n_nodes} "
                f"links={n_links}"
            )
        return _tree_from_document(document)
    if magic == _MAGIC_V1:
        return _tree_from_document(
            _parse_payload(fp.read(), payload_offset))
    raise SerializationError(
        f"bad magic {magic!r}; expected {_MAGIC_V2!r} (or legacy "
        f"{_MAGIC_V1!r})"
    )


def save_qctree(tree: QCTree, path, meta=None, labels=None) -> None:
    """Write ``tree`` to ``path`` atomically.

    The snapshot goes to a sibling temp file which is flushed, fsynced,
    and renamed over ``path`` — the rename is the commit point, so a
    crash at any earlier step leaves the previous snapshot untouched.
    The containing directory is fsynced best-effort so the rename itself
    is durable.  ``meta`` is embedded as in :func:`dump_qctree`.
    """
    path = os.fspath(path)
    tmp_path = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp_path, "w") as fp:
            dump_qctree(tree, fp, meta=meta, labels=labels)
            fp.flush()
            os.fsync(fp.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    _fsync_directory(os.path.dirname(path) or ".")


def _fsync_directory(directory: str) -> None:
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def load_qctree_from(path):
    """Read a QC-tree (any format version) from ``path``; returns the
    mutable tree, as :func:`load_qctree` does.

    Any corruption — an empty file, binary garbage, truncation, a bad
    checksum, malformed JSON — raises :class:`SerializationError` with
    the path in the message; only genuine I/O failures (missing file,
    permissions) surface as :class:`OSError`.
    """
    path_text = os.fspath(path)
    with open(path, "rb") as fp:
        data = fp.read()
    if not data:
        raise SerializationError(f"{path_text}: file is empty")
    if data.startswith(_MAGIC_V3):
        return _load_packed(data, path_text)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SerializationError(
            f"{path_text}: not a QC-tree file (undecodable byte at "
            f"offset {exc.start})"
        ) from exc
    try:
        return loads_qctree(text)
    except SerializationError as exc:
        raise SerializationError(f"{path_text}: {exc}") from exc


def _load_packed(data: bytes, path_text: str):
    """Load a ``QCTREE/3`` blob: a mutable rebuild through the v2
    document."""
    from repro.shard.pack import attach_packed, packed_to_document

    try:
        return _tree_from_document(
            packed_to_document(attach_packed(data, verify=True)))
    except SerializationError as exc:
        raise SerializationError(f"{path_text}: {exc}") from exc


def save_qctree_packed(tree, path, table=None, meta=None,
                       stamp=(0, 0)) -> None:
    """Write ``tree`` (any representation) to ``path`` in the packed
    ``QCTREE/3`` binary layout, atomically like :func:`save_qctree`.

    ``table`` embeds the base table so the file is a complete serving
    snapshot (required for attaching it into a
    :class:`~repro.shard.server.ShardServer` or answering raw-label
    queries); ``meta`` rides along as ``snapshot_meta``.
    """
    from repro.shard.pack import pack_snapshot_bytes

    payload = pack_snapshot_bytes(
        tree, table=table, stamp=stamp, snapshot_meta=meta
    )
    path = os.fspath(path)
    tmp_path = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp_path, "wb") as fp:
            fp.write(payload)
            fp.flush()
            os.fsync(fp.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    _fsync_directory(os.path.dirname(path) or ".")


def dumps_qctree(tree: QCTree, meta=None) -> str:
    """Serialize ``tree`` to a string."""
    buffer = io.StringIO()
    dump_qctree(tree, buffer, meta=meta)
    return buffer.getvalue()


def loads_qctree(text: str):
    """Deserialize a QC-tree from a string."""
    return load_qctree(io.StringIO(text))
