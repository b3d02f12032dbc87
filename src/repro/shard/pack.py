"""``QCTREE/3`` — the packed, shareable snapshot codec.

A heap :class:`~repro.core.frozen.FrozenQCTree` is already pointer-free
CSR arrays, but they are *Python* arrays: tuples of ints, per-node
routing dicts, boxed aggregate states.  Packing flattens the whole
serving snapshot — tree topology, upper bounds, aggregate state/value
vectors, and the base table — into a handful of typed little-endian
buffers (``int64`` / ``float64``) plus one small JSON meta block that
interns every string exactly once (dimension names, the aggregate spec,
and the per-dimension label dictionaries; rows and tree labels store
only int codes).  The result is byte-layout-stable::

    QCTREE/3 crc32=XXXXXXXX meta=M body=B\\n
    <M bytes of JSON meta>
    <zero padding to an 8-byte boundary>
    <B bytes of section data, 8-byte aligned, little-endian>

and therefore *attachable*: map the bytes — from
``multiprocessing.shared_memory`` or an mmap'd snapshot file — and
:func:`attach_packed` hands the section views to
:meth:`FrozenQCTree.from_buffers
<repro.core.frozen.FrozenQCTree.from_buffers>`, which is the same tree
class over ``memoryview`` storage: same traversal protocol, same
``_locate`` / ``_point_query`` functions.  Attach cost is parsing the
small meta block and slicing a dozen memoryviews — no deserialization of
nodes, rows, or states — so N worker processes can serve one physical
copy of the snapshot (see :mod:`repro.shard.server`).

This module is the byte layout and nothing else: the one generic writer
(:func:`pack_snapshot_bytes`, which walks the traversal protocol and so
packs a dict tree, a heap tree with overlays and tombstones, or an
attached tree alike), the header/CRC parsing of :func:`attach_packed`,
the packed base-table view, and the ``QCTREE/3`` → mutable rebuild.

Aggregate states and values are packed as fixed-shape ``float64`` rows:
every class of one tree shares its state *shape* (e.g. ``(sum, count)``
for AVG), so the shape is recorded once as a template of ``"i"`` /
``"f"`` leaves and each state flattens to ``S`` numbers.  Exotic
aggregates whose states are not uniform numeric tuples cannot be packed
and raise :class:`~repro.errors.SerializationError` — the thread-based
server still serves them; the multi-process path requires packability.
"""

from __future__ import annotations

import json
import mmap
import re
import sys
import zlib
from array import array

import numpy as np

from repro.core.cells import ALL
from repro.core.frozen import BUFFER_SECTIONS, FrozenQCTree, template_width
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
    ("ub", "q"), ("class_kind", "q"),
    ("state_data", "d"), ("value_data", "d"),
    ("table_rows", "q"), ("table_measures", "d"),
)

_MAX_EXACT_INT = 2 ** 53


# -- state/value templates ---------------------------------------------------


def _template_of(sample):
    """The shape template of one aggregate state/value: nested lists of
    ``"i"`` (int leaf) / ``"f"`` (float leaf)."""
    if isinstance(sample, tuple):
        return [_template_of(part) for part in sample]
    if isinstance(sample, bool) or not isinstance(sample, (int, float)):
        raise SerializationError(
            f"cannot pack aggregate payload {sample!r}: only ints, floats "
            "and (nested) tuples of them are packable"
        )
    return "i" if isinstance(sample, int) else "f"


def _flatten_into(value, template, out) -> None:
    """Append ``value``'s leaves to ``out``, verifying it matches the
    template shape and leaf types exactly (so reconstruction is lossless)."""
    if isinstance(template, list):
        if not isinstance(value, tuple) or len(value) != len(template):
            raise SerializationError(
                f"aggregate payload {value!r} does not match the tree's "
                f"uniform shape {template!r}"
            )
        for part, sub in zip(value, template):
            _flatten_into(part, sub, out)
        return
    if template == "i":
        if (isinstance(value, bool) or not isinstance(value, int)
                or not -_MAX_EXACT_INT < value < _MAX_EXACT_INT):
            raise SerializationError(
                f"aggregate int payload {value!r} is not exactly packable "
                "as float64"
            )
    elif not isinstance(value, float):
        raise SerializationError(
            f"aggregate payload {value!r} does not match the tree's "
            f"uniform leaf type {template!r}"
        )
    out.append(float(value))


# -- packing -----------------------------------------------------------------


def _check_label(value):
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise SerializationError(
            f"cannot pack label {value!r}: the packed layout requires "
            "dictionary-encoded non-negative int codes (build the tree "
            "from a BaseTable)"
        )
    return value


def pack_snapshot_bytes(tree, table=None, stamp=(0, 0),
                        snapshot_meta=None) -> bytes:
    """Serialize a serving snapshot to the ``QCTREE/3`` byte layout.

    ``tree`` may be frozen, packed, or dict-backed — packing walks the
    shared traversal protocol, so patched frozen views (overlays,
    tombstones) compact transparently into fresh contiguous ids.
    ``table`` rides along when given, making the blob a complete
    self-contained snapshot a worker process can serve from.
    """
    order = list(tree.iter_nodes())
    remap = {old: i for i, old in enumerate(order)}
    n = len(order)
    n_dims = tree.n_dims
    if n == 0:
        raise SerializationError("cannot pack an empty QC-tree (no root)")

    per_edges = []
    per_links = []
    ubs = []
    max_label = -1
    states = tree.state
    state_template = None
    value_template = None
    state_rows = []
    value_rows = []
    class_kind = array("q", bytes(8 * n))
    for i, old in enumerate(order):
        edges = sorted(
            ((dim, _check_label(val)), remap[child])
            for dim, val, child in tree.iter_children_of(old)
        )
        links = sorted(
            ((dim, _check_label(val)), remap[target])
            for dim, val, target in tree.iter_links_of(old)
        )
        per_edges.append(edges)
        per_links.append(links)
        for (_, val), _child in edges:
            if val > max_label:
                max_label = val
        for (_, val), _target in links:
            if val > max_label:
                max_label = val
        ub = tree.upper_bound_of(old)
        for val in ub:
            if val is not ALL:
                _check_label(val)
                if val > max_label:
                    max_label = val
        ubs.append(ub)
        state = states[old]
        if state is not None:
            class_kind[i] = 1
            value = tree.value_at(old)
            if state_template is None:
                state_template = _template_of(state)
                value_template = _template_of(value)
            srow: list = []
            _flatten_into(state, state_template, srow)
            vrow: list = []
            _flatten_into(value, value_template, vrow)
            state_rows.append((i, srow))
            value_rows.append((i, vrow))

    stride = max_label + 1 if max_label >= 0 else 1

    edge_start = array("q", [0] * (n + 1))
    edge_key = array("q")
    edge_child = array("q")
    link_start = array("q", [0] * (n + 1))
    link_key = array("q")
    link_target = array("q")
    last_dim = array("q", [-1] * n)
    forced = array("q", [-1] * n)
    for i in range(n):
        edges = per_edges[i]
        for (dim, val), child in edges:
            edge_key.append(dim * stride + val)
            edge_child.append(child)
        edge_start[i + 1] = len(edge_key)
        for (dim, val), target in per_links[i]:
            link_key.append(dim * stride + val)
            link_target.append(target)
        link_start[i + 1] = len(link_key)
        if edges:
            last = edges[-1][0][0]
            last_dim[i] = last
            in_last = [c for (d, _), c in edges if d == last]
            if len(in_last) == 1:
                forced[i] = in_last[0]

    ub_flat = array("q", bytes(8 * n * n_dims))
    for i, ub in enumerate(ubs):
        base = i * n_dims
        for j, val in enumerate(ub):
            ub_flat[base + j] = -1 if val is ALL else val

    s_width = template_width(state_template)
    v_width = template_width(value_template)
    state_data = array("d", bytes(8 * n * s_width))
    for i, row in state_rows:
        state_data[i * s_width:(i + 1) * s_width] = array("d", row)
    value_data = array("d", bytes(8 * n * v_width))
    for i, row in value_rows:
        value_data[i * v_width:(i + 1) * v_width] = array("d", row)

    table_rows = array("q")
    table_measures = array("d")
    table_meta = None
    if table is not None:
        n_rows = table.n_rows
        labels = [list(table._decoders[j]) for j in range(n_dims)]
        try:
            json.dumps(labels)
        except (TypeError, ValueError) as exc:
            raise SerializationError(
                f"table labels are not JSON-serializable: {exc}"
            ) from exc
        table_rows = array("q", (v for row in table.rows for v in row))
        table_measures = array(
            "d", np.asarray(table.measures, dtype=np.float64).reshape(-1)
        )
        table_meta = {
            "n_rows": n_rows,
            "measure_names": list(table.schema.measure_names),
            "labels": labels,
        }

    arrays = {
        "edge_start": edge_start, "edge_key": edge_key,
        "edge_child": edge_child,
        "link_start": link_start, "link_key": link_key,
        "link_target": link_target,
        "last_dim": last_dim, "forced": forced,
        "ub": ub_flat, "class_kind": class_kind,
        "state_data": state_data, "value_data": value_data,
        "table_rows": table_rows, "table_measures": table_measures,
    }
    sections = []
    chunks = []
    offset = 0
    for name, fmt in SECTIONS:
        arr = arrays[name]
        if sys.byteorder != "little":  # pragma: no cover - LE containers
            arr = array(fmt, arr)
            arr.byteswap()
        raw = arr.tobytes()
        sections.append([name, fmt, offset, len(arr)])
        chunks.append(raw)
        offset += len(raw)
    body = b"".join(chunks)

    lsn, epoch = (stamp if stamp is not None else (0, 0))
    meta = {
        "version": 3,
        "n_dims": n_dims,
        "dim_names": list(tree.dim_names),
        "aggregate": _aggregate_spec_json(tree.aggregate),
        "stride": stride,
        "counts": {
            "nodes": n, "edges": len(edge_key), "links": len(link_key),
            "classes": len(state_rows),
        },
        "state_template": state_template,
        "value_template": value_template,
        "stamp": [int(lsn), int(epoch)],
        "snapshot_meta": dict(
            snapshot_meta if snapshot_meta is not None
            else getattr(tree, "snapshot_meta", {}) or {}
        ),
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
    crc = zlib.crc32(body, crc) & 0xFFFFFFFF
    header = (
        f"QCTREE/3 crc32={crc:08x} meta={len(meta_bytes)} "
        f"body={len(body)}\n"
    ).encode("ascii")
    pad = (-(len(header) + len(meta_bytes))) % 8
    return header + meta_bytes + b"\0" * pad + body


def _aggregate_spec_json(aggregate):
    from repro.core.serialize import _spec_to_json
    from repro.cube.aggregates import aggregate_spec

    return _spec_to_json(aggregate_spec(aggregate))


# -- packed base table -------------------------------------------------------


class _PackedRows:
    """Read-only sequence view presenting the flat row buffer as the
    list-of-int-tuples shape :class:`~repro.cube.table.BaseTable` uses."""

    __slots__ = ("_flat", "_n", "_width")

    def __init__(self, flat, n_rows: int, width: int):
        self._flat = flat
        self._n = n_rows
        self._width = width

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, i: int):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(self._n))]
        if i < 0:
            i += self._n
        if not 0 <= i < self._n:
            raise IndexError(i)
        base = i * self._width
        return tuple(self._flat[base:base + self._width])

    def __iter__(self):
        flat, width = self._flat, self._width
        for i in range(self._n):
            base = i * width
            yield tuple(flat[base:base + width])


# -- attach ------------------------------------------------------------------


class AttachedSnapshot:
    """A ``QCTREE/3`` blob attached in place.

    Holds the attached :class:`~repro.core.frozen.FrozenQCTree`, the
    reconstructed (row-view-backed)
    :class:`~repro.cube.table.BaseTable` when the blob carried one, the
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

    def serving_snapshot(self, index_key=None):
        from repro.serving.snapshot import ServingSnapshot

        if self.table is None:
            raise SerializationError(
                "packed snapshot has no base table; pack with table= to "
                "serve raw-label queries from it"
            )
        return ServingSnapshot(
            self.tree, self.table, self.tree.aggregate,
            stamp=self.stamp, index_key=index_key,
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
    checks the header CRC over meta+body (used for file loads; shared
    memory published by the local writer skips it for instant attach).
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
        rows = _PackedRows(section_views["table_rows"], n_rows, n_dims)
        table = BaseTable(schema, rows, measures, decoders, encoders)

    stamp = tuple(meta.get("stamp") or (0, 0))
    return AttachedSnapshot(
        tree, table, stamp, body_off + body_len, meta, views
    )


def attach_packed_file(path, verify: bool = True) -> AttachedSnapshot:
    """mmap a ``QCTREE/3`` snapshot file and attach it zero-copy.

    The mapping is held by the returned views; page cache makes repeat
    attaches effectively free, which is the "instant load" property the
    packed layout exists for.
    """
    with open(path, "rb") as fp:
        mapped = mmap.mmap(fp.fileno(), 0, access=mmap.ACCESS_READ)
    try:
        return attach_packed(mapped, verify=verify)
    except SerializationError as exc:
        mapped.close()
        raise SerializationError(f"{path}: {exc}") from exc


# -- packed -> mutable reconstruction ---------------------------------------


def packed_to_document(attached_or_tree) -> dict:
    """The ``QCTREE/2`` JSON document equivalent of a packed tree.

    Lets :func:`repro.core.serialize._tree_from_document` rebuild a
    mutable :class:`~repro.core.qctree.QCTree` from a packed snapshot —
    the ``QCTREE/3`` half of "v2 still loads and re-packs".
    """
    from repro.core.serialize import _state_to_json

    attached = attached_or_tree
    tree = getattr(attached, "tree", attached)
    order = []
    parent_row = {}
    stack = [(tree.root, -1, -1, -1)]
    while stack:
        node, dim, value, parent_idx = stack.pop()
        idx = len(order)
        order.append(node)
        parent_row[node] = (dim, value, parent_idx)
        children = sorted(tree.iter_children_of(node), reverse=True)
        for cdim, cvalue, child in children:
            stack.append((child, cdim, cvalue, idx))
    remap = {node: i for i, node in enumerate(order)}
    nodes = []
    for node in order:
        dim, value, parent_idx = parent_row[node]
        nodes.append([
            dim, None if value < 0 else value, parent_idx,
            _state_to_json(tree.state[node]),
        ])
    links = [
        [remap[src], dim, value, remap[dst]]
        for src, dim, value, dst in tree.iter_links()
    ]
    document = {
        "n_dims": tree.n_dims,
        "dim_names": list(tree.dim_names),
        "aggregate": _aggregate_spec_json(tree.aggregate),
        "nodes": nodes,
        "links": links,
    }
    meta = getattr(tree, "snapshot_meta", None)
    if meta:
        document["meta"] = dict(meta)
    table_meta = None
    if attached is not tree:
        table_meta = (attached.meta or {}).get("table")
    if table_meta is not None:
        document["labels"] = [list(d) for d in table_meta["labels"]]
    return document
