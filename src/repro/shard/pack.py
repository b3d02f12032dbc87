"""``QCTREE/3`` — the packed, shareable snapshot codec.

A :class:`~repro.core.frozen.FrozenQCTree` *is* the typed sections of
this layout.  Packing writes one serving snapshot — tree topology,
upper bounds, aggregate values, and the base table — as
those ``int64`` / ``float64`` little-endian buffers plus one small JSON
meta block that interns every string exactly once (dimension names, the
aggregate spec, and the per-dimension label dictionaries; rows and tree
labels store only int codes).  The result is byte-layout-stable::

    QCTREE/3 crc32=XXXXXXXX meta=M body=B\\n
    <M bytes of JSON meta>
    <zero padding to an 8-byte boundary>
    <B bytes of section data, 8-byte aligned, little-endian>

and therefore *attachable*: map the bytes — from
``multiprocessing.shared_memory`` or an mmap'd file — and
:func:`attach_packed` hands the section views to
:meth:`FrozenQCTree.from_buffers
<repro.core.frozen.FrozenQCTree.from_buffers>`, the constructor every
frozen tree goes through.  Attach parses the small meta block and
slices a dozen memoryviews, so N worker processes can serve one
physical copy of the snapshot (see :mod:`repro.shard.server`).

This module is the byte layout and nothing else: the one writer
(:func:`pack_snapshot_bytes`; :func:`canonical_bytes` is its tree
sections in preorder, a tree's canonical form, split by
:class:`Signature`) and the header/CRC parsing of
:func:`attach_packed`.  It writes no
file: a checkpoint is its tables (:mod:`repro.core.manifest`), and the
blob lives in shared memory for the shard fleet.  The writer is
columnar — every shard write
publishes a whole new blob right after an O(dirty) refreeze, so it never
visits a node — and for every input its bytes are exactly those of the
per-node protocol walk it replaced (kept as ``tests/reference_pack.py``,
the oracle of ``tests/test_pack_oracle.py``).
"""

from __future__ import annotations

import json
import re
import zlib
from typing import Optional

import numpy as np

from repro.core.cells import ALL, format_cell
from repro.core.frozen import (
    BUFFER_SECTIONS,
    FrozenQCTree,
    lemma2_columns,
    live_rows,
    preorder,
)
from repro.core.qctree import QCTree
from repro.cube.aggregates import _spec_to_json, aggregate_spec
from repro.cube.schema import Schema
from repro.cube.table import BaseTable
from repro.errors import SerializationError

MAGIC_V3 = b"QCTREE/3"
_V3_HEADER = re.compile(
    rb"^QCTREE/3 crc32=([0-9a-f]{8}) meta=(\d+) body=(\d+)$"
)

#: Exact section order of the body; (name, format) with 8-byte items.
#: The order is part of the format — offsets in the meta block are
#: derived from it and stay stable across writers.
SECTIONS = (
    ("edge_start", "q"), ("edge_key", "q"), ("edge_child", "q"),
    ("link_start", "q"), ("link_key", "q"), ("link_target", "q"),
    ("last_dim", "q"), ("forced", "q"),
    ("ub", "q"), ("class_kind", "q"), ("value_data", "d"),
    ("table_rows", "q"), ("table_measures", "d"),
)

#: Little-endian item types of the two section formats.
_DTYPES = {"q": np.dtype("<i8"), "d": np.dtype("<f8")}


# -- packing -----------------------------------------------------------------


def pack_snapshot_bytes(tree, table=None, stamp=(0, 0)) -> bytes:
    """Serialize a serving snapshot to the ``QCTREE/3`` byte layout.

    Columnar and in slot order (tombstones and spare capacity drop
    out): a patched view's edge/link overlay rows are appended behind
    the shared CSR arrays and one ragged gather fetches every live row
    (:func:`~repro.core.frozen.live_rows`), every per-node column is
    read from its section, and keys are re-strided to the tightest fit
    with a vectorised ``divmod``.  A dict-backed :class:`QCTree` is
    frozen first.  ``table`` rides along when given, making the blob a
    complete self-contained snapshot a worker process can serve from.
    """
    if isinstance(tree, QCTree):
        tree = tree.freeze()
    return _pack(tree, np.flatnonzero(tree._live_mask()), table, stamp)


def canonical_bytes(tree) -> bytes:
    """``tree``'s ``QCTREE/3`` tree sections, no table, stamp ``(0, 0)``,
    with its live slots renumbered in Algorithm 1's preorder
    (:func:`~repro.core.frozen.preorder`; a fresh build's slots already
    are).  By Theorem 1 two trees are one iff these bytes are equal, in
    any representation.  The publish path's gather; the sort runs only
    here, off :func:`pack_snapshot_bytes`."""
    if isinstance(tree, QCTree):
        tree = tree.freeze()
    live = np.flatnonzero(tree._live_mask())
    ub = np.asarray(tree._ub, dtype=np.int64).reshape(-1, tree.n_dims)[live]
    return _pack(tree, live[preorder(ub, int(ub.max(initial=0)) + 1)])


def _pack(tree, order, table=None, stamp=(0, 0)) -> bytes:
    """The ``QCTREE/3`` bytes of the frozen ``tree`` with slot
    ``order[i]`` as node ``i``, and of ``table`` when given."""
    n_dims = tree.n_dims
    n = order.size
    if n == 0:
        raise SerializationError("cannot pack an empty QC-tree (no root)")

    edge_start, edge_dim, edge_val, edge_child = live_rows(tree, False, order)
    link_start, link_dim, link_val, link_target = live_rows(tree, True, order)
    ub = np.maximum(
        np.asarray(tree._ub, dtype=np.int64).reshape(-1, n_dims)[order], -1)

    # Re-stride the keys to the tightest fit: the frozen tree's own
    # stride carries patch headroom the packed layout does not need.
    max_label = max(
        int(part.max(initial=-1)) for part in (edge_val, link_val, ub)
    )
    stride = max(max_label, 0) + 1
    edge_key = edge_dim * stride + edge_val
    link_key = link_dim * stride + link_val

    last_dim, forced = lemma2_columns(edge_start, edge_dim, edge_child)

    kind = np.asarray(tree._class_kind, dtype=np.int64) != 0
    is_class = kind[order]
    # A slot that stopped being a class keeps its old row: zero it.
    value_data = np.where(kind[:, None], np.asarray(
        tree._value_data).reshape(-1, tree.aggregate.width), 0.0)[order]
    value_data[np.isnan(value_data)] = np.nan  # one NaN bit pattern

    table_rows = np.empty(0, dtype=np.int64)
    table_measures = np.empty(0, dtype=np.float64)
    table_meta = None
    if table is not None:
        labels = [list(table._decoders[j]) for j in range(n_dims)]
        try:
            json.dumps(labels)
        except (TypeError, ValueError) as exc:
            raise SerializationError(
                f"table labels are not JSON-serializable: {exc}"
            ) from exc
        table_rows = table.codes
        table_measures = np.asarray(table.measures, dtype=np.float64)
        table_meta = {
            "n_rows": table.n_rows,
            "measure_names": list(table.schema.measure_names),
            "labels": labels,
        }

    arrays = {
        "edge_start": edge_start, "edge_key": edge_key,
        "edge_child": edge_child,
        "link_start": link_start, "link_key": link_key,
        "link_target": link_target,
        "last_dim": last_dim, "forced": forced,
        "ub": ub, "class_kind": is_class,
        "value_data": value_data,
        "table_rows": table_rows, "table_measures": table_measures,
    }
    sections = []
    chunks = []
    offset = 0
    for name, fmt in SECTIONS:
        raw = np.ascontiguousarray(
            arrays[name], dtype=_DTYPES[fmt]
        ).tobytes()
        sections.append([name, fmt, offset, len(raw) // 8])
        chunks.append(raw)
        offset += len(raw)

    lsn, epoch = (stamp if stamp is not None else (0, 0))
    meta = {
        "version": 3,
        "n_dims": n_dims,
        "dim_names": list(tree.dim_names),
        "aggregate": _spec_to_json(aggregate_spec(tree.aggregate)),
        "stride": stride,
        "counts": {
            "nodes": n, "edges": int(edge_key.size),
            "links": int(link_key.size), "classes": int(is_class.sum()),
        },
        "stamp": [int(lsn), int(epoch)],
        "table": table_meta,
        "sections": sections,
    }
    try:
        meta_bytes = json.dumps(meta, separators=(",", ":")).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise SerializationError(
            f"snapshot meta is not JSON-serializable: {exc}"
        ) from exc

    crc = zlib.crc32(meta_bytes)
    for raw in chunks:
        crc = zlib.crc32(raw, crc)
    header = (
        f"QCTREE/3 crc32={crc & 0xFFFFFFFF:08x} meta={len(meta_bytes)} "
        f"body={offset}\n"
    ).encode("ascii")
    pad = (-(len(header) + len(meta_bytes))) % 8
    return b"".join([header, meta_bytes, b"\0" * pad, *chunks])


class Signature(dict):
    """A ``QCTREE/3`` blob by section name, plus its ``"meta"`` block.
    Of :func:`canonical_bytes`, a tree's signature: ``==`` is tree
    equality, and :meth:`diff` names what differs."""

    @classmethod
    def of(cls, blob: bytes) -> "Signature":
        end = blob.index(b"\n")
        size = int(_V3_HEADER.match(blob[:end]).group(2))
        meta = json.loads(blob[end + 1:end + 1 + size])
        at = len(blob) - 8 * sum(count for *_, count in meta["sections"])
        return cls({name: blob[at + offset:at + offset + 8 * count]
                    for name, _, offset, count in meta["sections"]},
                   meta=meta)

    def diff(self, other: "Signature", decoder=None) -> Optional[str]:
        """None when equal; else the first differing tree section (paths
        first) and row, shown under the cell of the node the row belongs
        to (``decoder(dim, code)`` spells labels)."""
        name = next((name for name in ("ub", *BUFFER_SECTIONS, "meta")
                     if self[name] != other[name]), None)
        if name in (None, "meta"):
            return name and f"meta differs: {self[name]} != {other[name]}"
        mine, theirs = self._rows(name), other._rows(name)
        row = next((i for i, (a, b) in enumerate(zip(mine, theirs))
                    if a.tobytes() != b.tobytes()),
                   min(len(mine), len(theirs)))
        return (f"{name} differs at row {row}: {self._at(name, row, decoder)}"
                f" != {other._at(name, row, decoder)}")

    def _rows(self, name: str) -> np.ndarray:
        data = np.frombuffer(self[name], _DTYPES[dict(SECTIONS)[name]])
        nodes = self["meta"]["counts"]["nodes"]
        return data.reshape(-1, data.size // nodes
                            if name in ("ub", "value_data") else 1)

    def _at(self, name: str, row: int, decoder) -> str:
        def spell(dim, code):
            try:
                return decoder(dim, code)
            except Exception:  # no decoder, or a code past its labels
                return code

        rows, owner = self._rows(name), row
        if row >= len(rows):
            return "no row"
        if name[5:] in ("key", "child", "target"):  # an edge or link row
            start = self._rows(name[:5] + "start")[:, 0]
            owner = int(np.searchsorted(start, row, side="right")) - 1
        if owner < self["meta"]["counts"]["nodes"]:
            bound = self._rows("ub")[owner].tolist()
            return format_cell(tuple(ALL if v < 0 else v for v in bound),
                               spell) + f" {rows[row].tolist()}"
        return str(rows[row].tolist())


# -- attach ------------------------------------------------------------------


class AttachedSnapshot:
    """A ``QCTREE/3`` blob attached in place.

    Holds the attached :class:`~repro.core.frozen.FrozenQCTree`, the
    :class:`~repro.cube.table.BaseTable` whose code and measure
    matrices view the blob's sections when the blob carried one, the
    serving ``stamp``, and the exported memoryviews.  Call
    :meth:`release` before closing the underlying shared-memory segment
    or mmap — it drops every exported buffer view so the mapping can
    close without ``BufferError``.
    """

    __slots__ = ("tree", "table", "stamp", "nbytes", "meta", "_views")

    def __init__(self, tree, table, stamp, nbytes, meta, views):
        self.tree = tree
        self.table = table
        self.stamp = stamp
        self.nbytes = nbytes
        self.meta = meta
        self._views = views

    def serving_snapshot(self):
        from repro.serving.scatter import PieceView
        from repro.serving.snapshot import ServingSnapshot

        if self.table is None:
            raise SerializationError(
                "packed snapshot has no base table; pack with table= to "
                "serve raw-label queries from it"
            )
        return ServingSnapshot(
            [PieceView(self.tree, self.table)], self.tree.aggregate,
            stamp=self.stamp,
        )

    def release(self) -> None:
        """Release every memoryview exported from the backing buffer."""
        tree = self.tree
        if tree is not None:
            # Drop the tree's buffer-backed slots so nothing keeps an
            # export alive past release().
            for name in BUFFER_SECTIONS:
                object.__setattr__(tree, "_" + name, ())
        self.tree = None
        self.table = None
        for view in self._views:
            try:
                view.release()
            except Exception:
                pass
        self._views = []


def attach_packed(buffer, verify: bool = False) -> AttachedSnapshot:
    """Attach a ``QCTREE/3`` blob and traverse it in place.

    ``buffer`` may be ``bytes``, a ``memoryview`` (e.g.
    ``SharedMemory.buf``), or an ``mmap`` object.  ``verify=True``
    checks the header CRC over meta+body.  A shard worker attaches
    without it — the blob was published by the local writer a moment
    ago and the attach must stay O(1) — while bytes read back from a
    file or an mmap may have rotted, so a reader of those passes True.
    """
    view = memoryview(buffer)
    views = [view]
    try:
        return _attach_views(view, views, verify)
    except BaseException:
        # Leave no exported pointers behind on a failed attach, so the
        # caller can still close its mmap / shared-memory handle.
        for stale in views:
            try:
                stale.release()
            except BufferError:  # pragma: no cover - defensive
                pass
        raise


def _attach_views(view, views, verify: bool):
    head = bytes(view[:256])
    nl = head.find(b"\n")
    if nl < 0:
        raise SerializationError("truncated QCTREE/3 header")
    match = _V3_HEADER.match(head[:nl])
    if match is None:
        raise SerializationError(
            f"malformed QCTREE/3 header {head[:nl]!r}"
        )
    want_crc = int(match.group(1), 16)
    meta_len = int(match.group(2))
    body_len = int(match.group(3))
    meta_off = nl + 1
    body_off = meta_off + meta_len + ((-(meta_off + meta_len)) % 8)
    if body_off + body_len > len(view):
        raise SerializationError(
            f"truncated QCTREE/3 blob: header promises {body_len} body "
            f"bytes at offset {body_off}, buffer has {len(view)}"
        )
    meta_bytes = bytes(view[meta_off:meta_off + meta_len])
    if verify:
        crc = zlib.crc32(meta_bytes)
        crc = zlib.crc32(view[body_off:body_off + body_len], crc) & 0xFFFFFFFF
        if crc != want_crc:
            raise SerializationError(
                f"QCTREE/3 checksum mismatch: header says "
                f"crc32={want_crc:08x}, blob has {crc:08x} "
                "(truncated or corrupt snapshot)"
            )
    try:
        meta = json.loads(meta_bytes)
    except json.JSONDecodeError as exc:
        raise SerializationError(
            f"malformed QCTREE/3 meta block: {exc.msg}"
        ) from exc

    section_views = {}
    try:
        for name, fmt, offset, count in meta["sections"]:
            lo = body_off + offset
            section = view[lo:lo + 8 * count].cast(fmt)
            section_views[name] = section
            views.append(section)
        tree = FrozenQCTree.from_buffers(meta, section_views)
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializationError(
            f"corrupt QCTREE/3 payload: {exc}"
        ) from exc

    table = None
    table_meta = meta.get("table")
    if table_meta is not None:
        n_rows = table_meta["n_rows"]
        n_dims = meta["n_dims"]
        decoders = [list(labels) for labels in table_meta["labels"]]
        encoders = [
            {label: code for code, label in enumerate(labels)}
            for labels in decoders
        ]
        schema = Schema(
            dimensions=tuple(meta["dim_names"]),
            measures=tuple(table_meta["measure_names"]),
        )
        measures = np.frombuffer(
            section_views["table_measures"], dtype="<f8"
        ).reshape(n_rows, len(table_meta["measure_names"]))
        measures.flags.writeable = False
        codes = np.frombuffer(
            section_views["table_rows"], dtype="<i8"
        ).reshape(n_rows, n_dims)
        table = BaseTable(schema, codes, measures, decoders, encoders)

    stamp = tuple(meta.get("stamp") or (0, 0))
    return AttachedSnapshot(
        tree, table, stamp, body_off + body_len, meta, views
    )
