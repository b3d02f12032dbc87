"""The columnar ``QCTREE/3`` writer against its byte-identity oracle.

``repro.shard.pack.pack_snapshot_bytes`` reads a frozen tree's arrays in
bulk; ``tests/reference_pack.py`` is the per-node protocol walker it
replaced, kept verbatim.  The contract: for every input the two emit
the same bytes, whatever representation it is — the dict tree, a
frozen view compiled in-process in any ``patch_stats["mode"]`` (fresh,
patched with overlay rows + tombstones + appended slots, compacted,
full), or an attached blob packed again — for every packable
aggregate.  Edge cases the bulk path could silently change are pinned
one by one, and a relative-speed guard (no wall-clock constant) fails
if the writer ever slides back to per-node Python.
"""

from __future__ import annotations

import random
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.construct import build_qctree
from repro.core.maintenance import apply_deletions, apply_insertions
from repro.core.point_query import point_query
from repro.core.warehouse import QCWarehouse
from repro.cube.schema import Schema
from repro.cube.table import BaseTable
from repro.errors import SerializationError
from repro.shard import ShardServer, created_segments
from repro.shard import server as server_module
from repro.shard.pack import attach_packed, pack_snapshot_bytes
from tests import model
from tests.conftest import (
    all_cells,
    make_random_table,
    patch_with,
    refreeze_ratios,
)
from tests.reference_pack import reference_pack
from tests.test_frozen_patch import _mutate_once

AGGREGATES = {
    "sum": ("sum", "m"),
    "avg": ("avg", "m"),
    "min": ("min", "m"),
    "max": ("max", "m"),
    "count": "count",
    "var": ("var", "m"),
    "multi": [("sum", "m"), "count", ("avg", "m"), ("var", "m"),
              ("min", "m")],
}

#: ``(FULL_REFREEZE_RATIO, COMPACT_RATIO)`` values steering
#: :meth:`FrozenQCTree.patch` into each of its outcomes.
RATIOS = {
    "splice": (1.0, 1e9),     # always patch, never compact
    "default": (0.9, 0.5),    # patch until the debt compacts
    "recompile": (0.0, 0.5),  # always a full recompile
}


def _drive(seed, ops, aggregate, ratios):
    """Build a tree, then maintain it through ``ops`` while patching a
    frozen view alongside.  Returns ``(dict tree, frozen view, table,
    modes seen)``."""
    table = model.make_program(seed % 50, 0, n_rows=10)[0]
    tree = build_qctree(table, aggregate)
    frozen = tree.freeze()
    modes = [frozen.patch_stats["mode"]]
    rng = random.Random(seed)
    full, compact = ratios
    for op in ops:
        table, delta = _mutate_once(tree, table, rng, op=op)
        frozen = patch_with(frozen, delta, full=full, compact=compact)
        modes.append(frozen.patch_stats["mode"])
    return tree, frozen, table, modes


def _assert_same_bytes(tree, frozen, table):
    """``pack(x) == reference_pack(x)`` for every representation ``x``
    of one content: the dict tree, the (possibly patched) frozen view, and
    the attached blob packed again.  (Across representations the bytes
    may differ — a patched view numbers appended nodes after the
    preorder prefix — which is exactly why the oracle is per input.)"""
    for rep in (tree, frozen):
        want = reference_pack(rep, table, stamp=(5, 9))
        assert pack_snapshot_bytes(rep, table, stamp=(5, 9)) == want
        attached = attach_packed(want, verify=True)
        try:
            again = pack_snapshot_bytes(
                attached.tree, attached.table, stamp=(7, 1)
            )
            assert again == reference_pack(
                attached.tree, attached.table, stamp=(7, 1)
            )
        finally:
            attached.release()
    # Without a table the table sections are empty, nothing else moves.
    assert pack_snapshot_bytes(frozen) == reference_pack(frozen)


OPS = st.lists(st.sampled_from(["insert", "insert_new", "delete"]),
               min_size=0, max_size=8)


class TestByteIdentity:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000), ops=OPS,
           aggregate=st.sampled_from(sorted(AGGREGATES)),
           ratios=st.sampled_from(sorted(RATIOS)))
    def test_every_representation_matches_the_oracle(
            self, seed, ops, aggregate, ratios):
        tree, frozen, table, _ = _drive(
            seed, ops, AGGREGATES[aggregate], RATIOS[ratios]
        )
        _assert_same_bytes(tree, frozen, table)

    @pytest.mark.parametrize("aggregate", sorted(AGGREGATES))
    def test_every_patch_mode_is_reached_and_matches(self, aggregate):
        """The hypothesis search above is only as good as the modes it
        lands in: walk fixed sequences and insist on all four, and on a
        patched view that has overlay rows, tombstones *and* appended
        slots at once."""
        seen = set()
        saw_rich_patch = False
        ops = ["insert_new", "delete", "insert", "insert_new", "delete",
               "delete", "insert_new", "insert"]
        for seed in range(6):
            for ratios in RATIOS.values():
                for upto in range(len(ops) + 1):
                    tree, frozen, table, modes = _drive(
                        seed, ops[:upto], AGGREGATES[aggregate], ratios
                    )
                    seen.add(modes[-1])
                    stats = frozen.patch_stats
                    if (stats["mode"] == "patched" and frozen._dead
                            and frozen._edge_over
                            and stats["slots"] > len(frozen._edge_start) - 1
                            and stats["restated"] > 0):
                        saw_rich_patch = True
                    _assert_same_bytes(tree, frozen, table)
        assert seen >= {"fresh", "patched", "compacted", "full"}
        assert saw_rich_patch

    def test_warehouse_snapshots_match(self, extended_sales_table):
        """The serving path's own (tree, table) pairs — string labels,
        views patched by the warehouse (the ratio lifted so the tiny
        tree patches instead of recompiling)."""
        wh = QCWarehouse(extended_sales_table, "avg(Sale)", cache_size=0)
        wh.serving_tree
        for inserts, deletes in [
            ([("S3", "P1", "s", 7.0)], []),
            ([], [("S2", "P2", "f", 4.0)]),
            ([("S1", "P9", "w", 2.5)], [("S3", "P1", "s", 7.0)]),
        ]:
            wh.maintain(inserts=inserts, deletes=deletes)
            with refreeze_ratios(full=1.0):
                snap = wh.snapshot_view()
            _assert_same_bytes(wh.tree, snap.tree, snap.table)


def _poke(frozen, **slots):
    """Overwrite slots of an (immutable) frozen tree, for corruption
    and exotic-payload tests."""
    for name, value in slots.items():
        object.__setattr__(frozen, name, value)


def _count_tree(seed=3):
    table = make_random_table(seed, n_dims=3, cardinality=3, n_rows=10)
    return table, build_qctree(table, "count")


class TestEdgeCases:
    def test_root_only_tree_packs_with_stride_one(self):
        table = make_random_table(1, n_dims=2, cardinality=2, n_rows=3)
        wh = QCWarehouse(table, ("sum", "m"), cache_size=0)
        wh.serving_tree
        wh.delete([table.decode_cell(row) + tuple(measure)
                   for row, measure in zip(table.rows, table.measures)])
        snap = wh.snapshot_view()
        assert snap.tree.n_nodes == 1 and snap.tree._stride > 0
        for cell in [*all_cells(snap.table), (0, 5), ("x", 1.0)]:
            assert point_query(snap.tree, cell) is None
        blob = pack_snapshot_bytes(snap.tree, snap.table)
        assert blob == reference_pack(snap.tree, snap.table)
        attached = attach_packed(blob, verify=True)
        try:
            assert attached.meta["stride"] == 1
            assert attached.meta["counts"] == {
                "nodes": 1, "edges": 0, "links": 0, "classes": 0,
            }
            assert attached.meta["state_template"] is None
        finally:
            attached.release()

    def test_shard_server_publishes_through_empty_and_back(
            self, sales_table):
        wh = QCWarehouse(sales_table, "avg(Sale)")
        everything = [
            sales_table.decode_cell(row) + tuple(measure)
            for row, measure in zip(sales_table.rows, sales_table.measures)
        ]
        with ShardServer(wh, processes=1) as server:
            server.write(deletes=everything)
            assert server.snapshot.tree.n_nodes == 1
            assert server.point(("*", "*", "*")) is None
            server.write(inserts=[("S7", "P1", "s", 4.0)])
            assert server.point(("S7", "*", "*")) == 4.0
        assert created_segments() == []

    def test_patch_on_a_root_only_base_keeps_tuple_keys_packable(self):
        """A view frozen while root-only still has a positive stride, so
        patched (not recompiled) it carries its new labels as int keys,
        and packs to the oracle's bytes."""
        table = make_random_table(2, n_dims=2, cardinality=2, n_rows=1)
        tree = build_qctree(table, ("sum", "m"))
        victim = table.decode_cell(table.rows[0]) + tuple(table.measures[0])
        table = apply_deletions(tree, table, [victim])
        frozen = tree.freeze()
        assert frozen.n_nodes == 1 and frozen._stride > 0
        tree.begin_delta()
        table = apply_insertions(tree, table, [(1, 0, 2.0), (0, 1, 3.0)])
        frozen = patch_with(frozen, tree.end_delta(), full=1e9,
                            compact=1e9)
        assert frozen.patch_stats["mode"] == "patched"
        assert frozen._stride > 0 and frozen.n_nodes > 1
        _assert_same_bytes(tree, frozen, table)

    def test_exotic_labels_are_rejected(self):
        schema = Schema(dimensions=("A", "B"), measures=("m",))
        table = BaseTable.from_records(
            [("x", "y", 1.0), ("x", "z", 2.0)], schema
        )
        tree = build_qctree(table, ("sum", "m"))
        # Bypass the dictionary: label the tree with the raw strings.
        for node in range(len(tree.node_value)):
            for by_value in tree.children[node].values():
                for code in list(by_value):
                    by_value[f"L{code}"] = by_value.pop(code)
            if node != tree.root:
                tree.node_value[node] = f"L{tree.node_value[node]}"
        with pytest.raises(SerializationError, match="label 'L0'"):
            pack_snapshot_bytes(tree)
        # The frozen tree is its packed sections: it cannot hold them.
        with pytest.raises(SerializationError, match="label 'L0'"):
            tree.freeze()

    @pytest.mark.parametrize("bad", [2 ** 53, -(2 ** 53), 10 ** 400])
    def test_inexact_int_state_is_rejected(self, bad):
        table, tree = _count_tree()
        tree.state[next(iter(tree.iter_class_nodes()))] = bad
        with pytest.raises(SerializationError, match=str(bad)):
            pack_snapshot_bytes(tree, table)
        with pytest.raises(SerializationError, match=str(bad)):
            tree.freeze()

    def test_largest_exact_int_state_round_trips(self):
        table, tree = _count_tree()
        node = next(iter(tree.iter_class_nodes()))
        tree.state[node] = 2 ** 53 - 1
        blob = pack_snapshot_bytes(tree, table)
        assert blob == reference_pack(tree, table)

    def test_bool_leaves_are_rejected(self):
        table, tree = _count_tree()
        nodes = list(tree.iter_class_nodes())
        tree.state[nodes[-1]] = True  # a later class: the column check
        with pytest.raises(SerializationError, match="True"):
            pack_snapshot_bytes(tree.freeze(), table)
        tree.state[nodes[0]] = True  # the first class: the template
        with pytest.raises(SerializationError, match="True"):
            pack_snapshot_bytes(tree.freeze(), table)

    def test_mixed_leaf_types_and_shapes_are_rejected(self):
        table = make_random_table(3, n_dims=3, cardinality=3, n_rows=10)
        tree = build_qctree(table, ("avg", "m"))
        nodes = list(tree.iter_class_nodes())
        tree.state[nodes[-1]] = (1, 2)  # int where float
        with pytest.raises(SerializationError, match="leaf type"):
            pack_snapshot_bytes(tree.freeze(), table)
        tree.state[nodes[-1]] = (1.0, 2, 3)  # wrong arity
        with pytest.raises(SerializationError, match="uniform shape"):
            pack_snapshot_bytes(tree.freeze(), table)

    def test_numpy_float_leaves_are_accepted(self):
        table = make_random_table(3, n_dims=3, cardinality=3, n_rows=10)
        tree = build_qctree(table, ("sum", "m"))
        for node in tree.iter_class_nodes():
            tree.state[node] = np.float64(tree.state[node])
        frozen = tree.freeze()
        assert pack_snapshot_bytes(frozen, table) == \
            reference_pack(frozen, table)

    def test_edge_into_a_tombstoned_slot_is_rejected(self):
        tree, frozen, table, _ = _drive(
            0, ["insert_new", "delete", "insert_new", "delete"],
            ("sum", "m"), RATIOS["splice"],
        )
        assert frozen._dead
        dead = min(frozen._dead)
        for family in ("_edge_over", "_link_over"):
            over = dict(getattr(frozen, family))
            keys, targets = over.get(0) or ((frozen._stride * 2,), (0,))
            saved = getattr(frozen, family)
            over[0] = (keys, (dead,) + tuple(targets[1:]))
            _poke(frozen, **{family: over})
            with pytest.raises(SerializationError,
                               match=f"slot {dead}, which is tombstoned"):
                pack_snapshot_bytes(frozen, table)
            _poke(frozen, **{family: saved})
        assert pack_snapshot_bytes(frozen, table) == \
            reference_pack(frozen, table)

    def test_failed_pack_inside_publish_creates_no_segment(
            self, sales_table, monkeypatch):
        """Every ``SerializationError`` is raised before the publish
        protocol creates a shared-memory segment."""
        schema = Schema(dimensions=("Year", "Kind"), measures=("M",))
        wh = QCWarehouse.from_records([(2001, "a", 1.0)], schema, "sum(M)")
        with ShardServer(wh, processes=1) as server:
            before = created_segments()
            epoch = server.shard_health()["current_epoch"]
            wh.insert([(2099, "a", 1.0)])
            def unpackable(*args, **kwargs):
                raise SerializationError(
                    "snapshot meta is not JSON-serializable: injected")

            monkeypatch.setattr(server_module, "pack_snapshot_bytes",
                                unpackable)
            with pytest.raises(SerializationError, match="JSON"):
                server._publish()
            assert created_segments() == before
            assert server.shard_health()["current_epoch"] == epoch
        assert created_segments() == []


    def test_a_numpy_label_publishes_and_reads(self):
        """A NumPy scalar is an ``int`` / ``str`` label that a write
        accepts; the table stores its Python scalar, so it rides in the
        JSON label dictionary of every later publish."""
        schema = Schema(dimensions=("Year", "Kind"), measures=("M",))
        wh = QCWarehouse.from_records([(2001, "a", 1.0)], schema, "sum(M)")
        with ShardServer(wh, processes=1) as server:
            wh.insert([(np.int64(2099), "a", 1.0),
                       (2001, np.str_("b"), 2.0)])
            server._publish()
            assert server.point((2099, "*")) == 1.0
            assert server.point(("*", "b")) == 2.0
        assert [type(label) for label in wh.table._decoders[0]] == [int, int]
        assert created_segments() == []


class TestNoPerNodeRegression:
    def test_columnar_writer_outruns_the_walker(self):
        """Relative, same-process, best of three: the writer is ~15x
        ahead of the per-node walker on a patched tree of this size, so
        4x only fails if packing slid back to node-at-a-time Python."""
        rng = random.Random(11)
        schema = Schema(dimensions=[f"D{j}" for j in range(5)],
                        measures=("m",))
        rows = [tuple(rng.randrange(8) for _ in range(5))
                for _ in range(1500)]
        table = BaseTable.from_encoded(
            rows, [[float(rng.randint(0, 20))] for _ in rows], schema,
            cardinalities=[8] * 5,
        )
        wh = QCWarehouse(table, ("avg", "m"), cache_size=0)
        wh.serving_tree
        wh.insert([(8, i, 8, 9, i, 1.0) for i in range(4)])
        wh.delete([table.decode_cell(rows[0]) + (float(table.measures[0][0]),)])
        snap = wh.snapshot_view()
        assert snap.tree.patch_stats["mode"] == "patched"
        assert snap.tree.n_nodes >= 5000

        def best_of_three(pack):
            best = float("inf")
            for _ in range(3):
                start = time.perf_counter()
                blob = pack(snap.tree, snap.table)
                best = min(best, time.perf_counter() - start)
            return best, blob

        slow, want = best_of_three(reference_pack)
        fast, blob = best_of_three(pack_snapshot_bytes)
        assert blob == want
        assert fast * 4 <= slow, (
            f"columnar pack {fast * 1e3:.1f} ms vs per-node walker "
            f"{slow * 1e3:.1f} ms: less than 4x apart"
        )
