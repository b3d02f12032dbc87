"""The pre-columnar ``QCTREE/3`` writer, kept verbatim as a test oracle.

This is ``repro.shard.pack.pack_snapshot_bytes`` as it stood before the
columnar writer replaced it: one Python pass per node over the traversal
protocol (``iter_children_of`` / ``iter_links_of`` / ``upper_bound_of`` /
``_flatten_into``).  It is slow and generic, which makes it the right
oracle: the production writer must emit *exactly these bytes* for every
tree representation (``tests/test_pack_oracle.py``), and must stay well
ahead of it on the clock (the no-wall-clock-constant regression guard).

Do not "improve" this file — its value is that it does not change.
"""

from __future__ import annotations

import json
import sys
import zlib
from array import array

import numpy as np

from repro.core.cells import ALL
from repro.core.frozen import template_width
from repro.errors import SerializationError

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


def reference_pack(tree, table=None, stamp=(0, 0)) -> bytes:
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
    from repro.cube.aggregates import _spec_to_json, aggregate_spec

    return _spec_to_json(aggregate_spec(aggregate))
