"""Incremental refreeze: delta recording and ``FrozenQCTree.patch``.

The contract under test: a patched frozen view is *observationally
identical* to a from-scratch ``freeze()`` of the mutated dict tree —
same signature (upper bounds, aggregates, links), same answers for
every query family — no matter how mutations chain, which fallback
path fires, or how often compaction reclaims spare capacity.  Chained
and merged patches against the lattice are the model's machine
(``tests/test_stateful.py``: its ``refreeze`` and ``burst`` rules); the
pinned programs below are its corpus here, on the ``frozen``
configuration.
"""

from __future__ import annotations

import random

import pytest

from repro.core.construct import build_qctree
from repro.core.maintenance import (
    MaintenanceDelta,
    apply_deletions,
    apply_insertions,
)
from repro.core.point_query import point_query
from repro.core.warehouse import QCWarehouse
from repro.data.synthetic import zipf_table
from repro.shard.pack import pack_snapshot_bytes
from tests import model
from tests.conftest import (
    all_cells,
    make_random_table,
    patch_with,
)
from tests.reference_pack import reference_pack
from tests.test_stateful import replay


def _build(seed, n_rows):
    """A model base table of ``n_rows`` rows and its tree."""
    table = model.make_program(seed, 0, n_rows=n_rows)[0]
    return table, build_qctree(table, model.AGGREGATE)


def _mutate_once(tree, table, rng, op):
    """One recorded mutation — a delete of a present row, or an insert
    of a model record — returns ``(table, delta)``."""
    tree.begin_delta()
    try:
        if op == "delete" and table.n_rows:
            i = rng.randrange(table.n_rows)
            rec = table.decode_cell(table.codes[i].tolist()) \
                + tuple(table.measures[i])
            table = apply_deletions(tree, table, [rec])
        else:
            rec = model.gen_record(rng, fresh=op == "insert_new")
            table = apply_insertions(tree, table, [rec])
    finally:
        delta = tree.end_delta()
    return table, delta


def _assert_equivalent(patched, tree, table):
    """Patched view vs from-scratch compile: structure and answers."""
    full = tree.freeze()
    assert patched.signature() == full.signature()
    assert patched.n_nodes == full.n_nodes
    assert patched.n_links == full.n_links
    assert patched.n_classes == full.n_classes
    if table.n_rows and table.n_dims <= 3:
        for cell in all_cells(table):
            assert point_query(patched, cell) == point_query(full, cell)


class TestDeltaRecording:
    def test_insert_records_dirty_nodes(self):
        table, tree = _build(0, n_rows=8)
        delta = tree.begin_delta()
        apply_insertions(tree, table, [("9", "9", "9", 1.0)])
        assert tree.end_delta() is delta
        assert delta.created  # brand-new path/class nodes
        assert len(delta) == len(delta.dirty) > 0
        assert delta.tree is tree

    def test_delete_records_removed_nodes(self):
        table, tree = _build(1, n_rows=6)
        rec = table.decode_cell(table.rows[0]) + tuple(table.measures[0])
        tree.begin_delta()
        apply_deletions(tree, table, [rec])
        delta = tree.end_delta()
        assert delta.restated or delta.removed
        free = tree._free_ids
        assert delta.removed <= free | delta.created

    def test_recording_stops_after_end_delta(self):
        table, tree = _build(2, n_rows=8)
        tree.begin_delta()
        delta = tree.end_delta()
        before = len(delta)
        apply_insertions(tree, table, [("9", "9", "9", 1.0)])
        assert len(delta) == before

    def test_empty_delta_patch_returns_same_view(self):
        _, tree = _build(3, n_rows=8)
        frozen = tree.freeze()
        tree.begin_delta()
        delta = tree.end_delta()
        assert len(delta) == 0
        assert frozen.patch(delta) is frozen

    def test_merge_unions_categories(self):
        _, tree = _build(4, n_rows=4)
        a, b = MaintenanceDelta(tree), MaintenanceDelta(tree)
        a.note_created(1)
        a.note_state(2)
        b.note_removed(3)
        b.note_links(2)
        merged = a.merge(b)
        assert merged.created == {1}
        assert merged.removed == {3}
        assert merged.dirty == {1, 2, 3}

    def test_merge_rejects_foreign_tree(self):
        _, tree_a = _build(5, n_rows=4)
        _, tree_b = _build(6, n_rows=4)
        with pytest.raises(ValueError):
            MaintenanceDelta(tree_a).merge(MaintenanceDelta(tree_b))

    def test_copy_does_not_inherit_recorder(self):
        table, tree = _build(7, n_rows=8)
        delta = tree.begin_delta()
        clone = tree.copy()
        apply_insertions(clone, table, [("9", "9", "9", 1.0)])
        tree.end_delta()
        # what_if / transactional copies must not pollute the recording.
        assert len(delta) == 0


class TestPatchEquivalence:
    PATCHES = ("refreeze", "burst", "write_one")

    @pytest.mark.parametrize("seed", range(12))
    def test_chained_single_tuple_mutations(self, seed):
        replay(seed, ("refreeze", "write_one"), steps=3, configs=("frozen",))

    @pytest.mark.parametrize("seed", range(6))
    def test_merged_multi_batch_delta(self, seed):
        """Several batches merged into one delta, patched once."""
        replay(seed + 100, ("burst",), steps=2, configs=("frozen",))

    @pytest.mark.usefixtures("maintained")
    def test_modify_through_warehouse(self):
        table, _ = _build(3, n_rows=10)
        wh = QCWarehouse(table, ("sum", "m"), cache_size=0)
        wh.view  # compile the initial frozen view
        old = table.decode_cell(table.rows[0]) + tuple(table.measures[0])
        wh.modify([old], [("9", "9", "9", 5.0)])
        _assert_equivalent(wh.serving_tree, wh.tree, wh.table)
        assert wh.last_refreeze["mode"] in ("patched", "full", "compacted")

    def test_hypothesis_mutation_sequences(self):
        """Chained patches of every kind over fixed seeds (the random
        search is the machine's)."""
        for seed in range(100, 103):
            replay(seed, self.PATCHES, configs=("frozen",))

    def test_all_query_families_agree(self, extended_sales_table):
        """Point, range, iceberg, and exploration answers after a patch
        match a recompiled warehouse exactly."""
        wh = QCWarehouse(
            extended_sales_table, ("sum", "Sale"), cache_size=0
        )
        wh.view
        wh.insert([("S3", "P1", "s", 7.0), ("S1", "P3", "f", 2.0)])
        wh.delete([("S2", "P2", "f", 4.0)])
        oracle = QCWarehouse(wh.table, ("sum", "Sale"), cache_size=0)
        assert wh.serving_tree is not None
        for cell in [("S1", "*", "*"), ("S3", "P1", "s"), ("*", "*", "*"),
                     ("S2", "P3", "f"), ("nope", "*", "*")]:
            assert wh.point(cell) == oracle.point(cell)
        spec = (["S1", "S3"], "*", "s")
        assert wh.range(spec) == oracle.range(spec)
        assert wh.iceberg(10.0) == oracle.iceberg(10.0)
        assert wh.iceberg_in_range(spec, 5.0) == \
            oracle.iceberg_in_range(spec, 5.0)
        assert wh.class_of(("S1", "*", "s")) == oracle.class_of(("S1", "*", "s"))
        assert wh.rollup(("S3", "P1", "s")) == oracle.rollup(("S3", "P1", "s"))
        assert wh.drilldowns(("*", "*", "*")) == \
            oracle.drilldowns(("*", "*", "*"))
        assert wh.open_class(("S1", "*", "s")) == \
            oracle.open_class(("S1", "*", "s"))


class TestColumnWrites:
    """A node whose state alone changed is a column write: no overlay
    row, no upper-bound walk, no routing reset."""

    @pytest.mark.parametrize("seed", range(6))
    def test_reinserted_row_is_written_as_columns(self, seed):
        """Re-inserting a row the table holds changes no class bound or
        edge: every fate is an update.  Maintenance may still remove a
        link and add it back (a retarget), which records its source as
        relinked; that source alone gets an overlay row."""
        table, tree = _build(seed, n_rows=40)
        frozen = tree.freeze()
        row = table.decode_cell(table.rows[0]) + tuple(table.measures[0])
        tree.begin_delta()
        table = apply_insertions(tree, table, [row])
        delta = tree.end_delta()
        assert not (delta.created or delta.removed or delta.reedged)
        patched = patch_with(frozen, delta, full=1.0)
        stats = patched.patch_stats
        assert stats["mode"] == "patched" and stats["appended"] == 0
        assert stats["restated"] == len(delta.dirty - delta.relinked)
        assert stats["touched"] == len(delta.relinked)
        assert not patched._edge_over
        if not delta.relinked:
            assert stats["restated"] == stats["dirty"] > 0
            assert stats["touched"] == 0 and not patched._link_over
        _assert_equivalent(patched, tree, table)
        assert patched.class_upper_bounds() == tree.class_upper_bounds()
        assert pack_snapshot_bytes(patched, table) == \
            reference_pack(patched, table)

    def test_some_reinserts_are_pure_updates(self):
        """The seeds above include re-inserts with no retarget at all,
        where the patch writes every dirty id as a column."""
        quiet = 0
        for seed in range(6):
            table, tree = _build(seed, n_rows=40)
            row = table.decode_cell(table.rows[0]) + tuple(table.measures[0])
            tree.begin_delta()
            apply_insertions(tree, table, [row])
            delta = tree.end_delta()
            quiet += delta.dirty == delta.restated
        assert quiet >= 3

    def test_benchmark_shaped_batch_is_mostly_column_writes(self):
        """A 32-row insert into a 5,000-row Zipf store, then its delete:
        each writes at least 75 % of its dirty ids as columns (a count).
        The share is the data's: over table seeds 0–7 it reads 0.70–0.81
        (seed 1's delete 0.749), and still 0.73–0.84 with the links that
        a retarget leaves unchanged counted as column writes; seed 3 is
        pinned."""
        table = zipf_table(5000, 6, 30, zipf=2.0, seed=3)
        first = {}
        extra = zipf_table(2000, 6, 30, zipf=2.0, seed=3 + 7919)
        for row, measure in zip(extra.rows, extra.measures):
            first.setdefault(row, tuple(map(int, row)) + (float(measure[0]),))
        batch = list(first.values())[:32]
        wh = QCWarehouse(table, ("sum", "M0"), cache_size=0)
        wh.serving_tree
        for write in (wh.insert, wh.delete):
            write(batch)
            stats = wh.serving_tree.patch_stats
            assert stats["mode"] == "patched"
            assert stats["restated"] >= 0.75 * stats["dirty"]
            assert stats["restated"] + stats["touched"] <= stats["dirty"]
        _assert_equivalent(wh.serving_tree, wh.tree, wh.table)

    def test_column_writes_leave_the_routing_alone(self):
        """A state-only slot keeps its decoded routing dict and upper
        bound; its new state is in the state list and its value in the
        caches and sections."""
        table, tree = _build(2, n_rows=40)
        frozen = tree.freeze()
        for cell in all_cells(table):
            point_query(frozen, cell)  # decode every route on the way
        row = table.decode_cell(table.rows[0]) + tuple(table.measures[0])
        tree.begin_delta()
        apply_insertions(tree, table, [row])
        delta = tree.end_delta()
        patched = patch_with(frozen, delta, full=1.0)
        slots = frozen._source_map
        for d in delta.restated - delta.relinked:
            slot = slots[d]
            assert patched._routes[slot] is frozen._routes[slot]
            assert patched._ubs[slot] is frozen._ubs[slot]
            assert patched.state[slot] == tree.state[d]
            # The sections hold the value: decoded afresh, not from a cache.
            aggregate = patched.aggregate
            assert aggregate.read(patched._value_data,
                                  slot * aggregate.width) == tree.value_at(d)
            assert patched.upper_bound_of(slot) == tree.upper_bound_of(d)


class TestFallbackFuzz:
    """Satellite: force ``FULL_REFREEZE_RATIO`` to 0 and 1 — always-full
    and always-patch must serve identical answers."""

    @pytest.mark.parametrize("seed", range(5))
    def test_ratio_zero_and_one_agree(self, seed):
        """Always-full and always-patch refreezes both answer like the
        lattice (the machine's ``refreeze`` rule draws the mode)."""
        replay(seed, ("refreeze",), steps=3, configs=("frozen",))

    def test_ratio_zero_always_recompiles(self):
        table, tree = _build(9, n_rows=10)
        frozen = tree.freeze()
        rng = random.Random(9)
        table, delta = _mutate_once(tree, table, rng, op="insert_new")
        out = patch_with(frozen, delta, full=0.0)
        assert out.patch_stats["mode"] == "full"
        assert out.patch_stats["reason"] == "dirty-ratio"

    def test_compaction_reclaims_spare_capacity(self):
        """Many appended nodes accumulate overlay + tombstone debt until
        a patch compacts — and the compacted view is dense again."""
        table, tree = _build(10, n_rows=6)
        frozen = tree.freeze()
        rng = random.Random(10)
        saw_compaction = False
        for step in range(60):
            table, delta = _mutate_once(
                tree, table, rng,
                op="insert_new" if step % 2 == 0 else "delete",
            )
            frozen = patch_with(frozen, delta, full=1.0)
            stats = frozen.patch_stats
            if stats["mode"] == "compacted":
                saw_compaction = True
                # Repacked: no tombstones, no overlay, slots == live nodes.
                assert frozen.n_nodes == len(frozen.state)
                assert not frozen._dead
                assert frozen._edge_over is None
        assert saw_compaction
        _assert_equivalent(frozen, tree, table)

    def test_stride_overflow_falls_back_to_full(self):
        """A label code past the routing-key stride headroom cannot be
        spliced; the patch must recompile instead of mis-routing."""
        table, tree = _build(11, n_rows=30)
        frozen = tree.freeze()
        stride = frozen._stride
        assert stride > 0
        # New labels mint sequential dictionary codes; enough of them in
        # one dimension pushes a code past the stride's 2x headroom.
        records = [(100 + i, 0, 0, 1.0) for i in range(stride)]
        tree.begin_delta()
        table = apply_insertions(tree, table, records)
        delta = tree.end_delta()
        out = patch_with(frozen, delta, full=1.0)
        assert out.patch_stats["mode"] == "full"
        assert out.patch_stats["reason"] == "stride-overflow"
        _assert_equivalent(out, tree, table)


class TestDeltaUnion:
    """Satellite: delta-union semantics — associative, id-reuse-safe,
    and per-tuple unions patching identically to batch recordings."""

    CATEGORIES = ("created", "removed", "restated", "relinked", "reedged")

    def _synthetic(self, tree, **cats):
        delta = MaintenanceDelta(tree)
        for cat, ids in cats.items():
            getattr(delta, cat).update(ids)
        return delta

    def test_merge_is_associative_and_commutative(self):
        _, tree = _build(30, n_rows=4)
        a = self._synthetic(tree, created={1, 2}, restated={3})
        b = self._synthetic(tree, removed={2}, relinked={4})
        c = self._synthetic(tree, created={5}, reedged={1})
        left, right = (a | b) | c, a | (b | c)
        for cat in self.CATEGORIES:
            assert getattr(left, cat) == getattr(right, cat)
            assert getattr(a | b, cat) == getattr(b | a, cat)

    def test_union_folds_like_pairwise_merge(self):
        _, tree = _build(31, n_rows=4)
        deltas = [
            self._synthetic(tree, created={i}, restated={i + 10})
            for i in range(4)
        ]
        folded = MaintenanceDelta.union(tree, deltas)
        pairwise = deltas[0]
        for delta in deltas[1:]:
            pairwise = pairwise | delta
        for cat in self.CATEGORIES:
            assert getattr(folded, cat) == getattr(pairwise, cat)

    def test_update_is_in_place_merge(self):
        _, tree = _build(32, n_rows=4)
        a = self._synthetic(tree, created={1})
        b = self._synthetic(tree, removed={2}, restated={1})
        a.update(b)
        assert a.created == {1} and a.removed == {2} and a.restated == {1}

    def test_union_rejects_foreign_tree(self):
        _, tree_a = _build(33, n_rows=4)
        _, tree_b = _build(34, n_rows=4)
        with pytest.raises(ValueError):
            MaintenanceDelta.union(
                tree_a, [MaintenanceDelta(tree_b)]
            )

    def test_empty_union_patches_as_noop(self):
        _, tree = _build(35, n_rows=8)
        frozen = tree.freeze()
        empty = MaintenanceDelta.union(tree, [])
        assert len(empty) == 0
        assert frozen.patch(empty) is frozen

    def _run_stream(self, tree, table, seed, per_tuple):
        """A deterministic mutation stream; returns the final table and
        either per-mutation deltas folded via union, or one delta
        recorded across the whole stream."""
        rng = random.Random(seed)
        deltas = []
        whole = None if per_tuple else tree.begin_delta()
        for step in range(8):
            op = ("insert_new", "delete", "insert")[step % 3]
            if per_tuple:
                tree.begin_delta()
            try:
                if op == "delete" and table.n_rows:
                    i = rng.randrange(table.n_rows)
                    rec = table.decode_cell(table.codes[i].tolist()) \
                        + tuple(table.measures[i])
                    table = apply_deletions(tree, table, [rec])
                else:
                    rec = model.gen_record(rng, fresh=op == "insert_new")
                    table = apply_insertions(tree, table, [rec])
            finally:
                if per_tuple:
                    deltas.append(tree.end_delta())
        if not per_tuple:
            whole = tree.end_delta()
        return table, (
            MaintenanceDelta.union(tree, deltas) if per_tuple else whole
        )

    @pytest.mark.parametrize("seed", range(6))
    def test_per_tuple_union_equals_stream_recording(self, seed):
        """Union of per-tuple deltas vs one whole-stream recording of the
        identical mutation stream: same dirty set, and both patch a
        stale frozen view to the same final tree.  ``removed`` may keep
        ids the stream recorder dropped (pruned-then-reallocated), but
        those ids are then in ``created`` too — dirty either way."""
        table, tree = _build(seed, n_rows=10)
        clone = tree.copy()
        frozen_a, frozen_b = tree.freeze(), clone.freeze()
        _, union = self._run_stream(tree, table, seed, per_tuple=True)
        _, whole = self._run_stream(clone, table, seed, per_tuple=False)
        assert union.dirty == whole.dirty
        assert union.created == whole.created
        assert union.restated == whole.restated
        assert union.relinked == whole.relinked
        assert union.reedged == whole.reedged
        assert whole.removed <= union.removed
        assert union.removed - whole.removed <= union.created
        patched_a = patch_with(frozen_a, union, full=1.0)
        patched_b = patch_with(frozen_b, whole, full=1.0)
        assert patched_a.signature() == tree.freeze().signature()
        assert patched_b.signature() == clone.freeze().signature()
        assert patched_a.signature() == patched_b.signature()

    def test_id_reuse_between_merged_batches_is_safe(self):
        """A node pruned by one batch whose id is reused by a later batch
        must patch correctly from the merged delta (the id is read back
        from the post-mutation tree, not replayed as an event)."""
        table, tree = _build(36, n_rows=8)
        frozen = tree.freeze()
        fresh = ("7", "7", "7", 3.0)
        deltas = []
        tables = [table]
        for op, rec in (("ins", fresh), ("del", fresh), ("ins", ("8", "8", "8", 4.0))):
            tree.begin_delta()
            try:
                if op == "ins":
                    tables.append(apply_insertions(tree, tables[-1], [rec]))
                else:
                    tables.append(apply_deletions(tree, tables[-1], [rec]))
            finally:
                deltas.append(tree.end_delta())
        # The prune + re-create across batches shares ids: the union
        # holds them in removed AND created simultaneously.
        merged = MaintenanceDelta.union(tree, deltas)
        reused = merged.removed & merged.created
        assert reused, "expected pruned ids to be reallocated"
        patched = patch_with(frozen, merged, full=1.0)
        _assert_equivalent(patched, tree, tables[-1])


class TestWarehouseIntegration:
    def test_small_write_patches_large_tree(self):
        table = make_random_table(20, n_dims=4, cardinality=5, n_rows=120)
        wh = QCWarehouse(table, ("sum", "m"), cache_size=0)
        wh.view
        wh.insert([(0, 1, 2, 3, 1.0)])
        assert wh.serving_tree is not None
        assert wh.last_refreeze["mode"] == "patched"
        assert wh.stats()["refreeze"]["mode"] == "patched"

    def test_failed_batch_leaves_patch_path_healthy(self):
        table = make_random_table(21, n_dims=3, cardinality=3, n_rows=10)
        wh = QCWarehouse(table, ("sum", "m"), cache_size=0)
        wh.view
        with pytest.raises(Exception):
            wh.delete([(99, 99, 99, 1.0)])
        wh.insert([(9, 9, 9, 1.0)])
        _assert_equivalent(wh.serving_tree, wh.tree, wh.table)

    def test_rebuild_resets_to_fresh_compile(self):
        table = make_random_table(22, n_dims=3, cardinality=3, n_rows=10)
        wh = QCWarehouse(table, ("sum", "m"), cache_size=0)
        wh.view
        wh.insert([(9, 9, 9, 1.0)])
        wh.rebuild()
        assert wh.serving_tree.patch_stats["mode"] == "fresh"
        _assert_equivalent(wh.serving_tree, wh.tree, wh.table)

    def test_pending_deltas_accumulate_between_reads(self):
        """Several writes with no read in between still produce one
        correct patch when the serving tree is finally demanded."""
        table = make_random_table(23, n_dims=3, cardinality=3, n_rows=12)
        wh = QCWarehouse(table, ("sum", "m"), cache_size=0)
        wh.view
        rng = random.Random(23)
        for _ in range(4):
            # The table's labels are ints: the model's record, its codes
            # as the labels.
            *labels, measure = model.gen_record(rng)
            wh.insert([tuple(int(label[1:]) for label in labels)
                       + (measure,)])
        _assert_equivalent(wh.serving_tree, wh.tree, wh.table)
