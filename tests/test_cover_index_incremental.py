"""Differential tests for the incremental (long-lived) cover index.

The contract under test: a :class:`CoverIndex` patched in place by
``apply_inserts`` / ``apply_deletes`` is *equivalent* to an index built
from scratch over the final row set — posting-for-posting (after
translating stable ids to table positions) and closure-for-closure —
under arbitrary interleavings of insert batches, delete batches, and
cache-warming queries.  Plus regression tests for the two bugfixes
that rode along: constructor validation and the unified rows/closure
cache.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cells import ALL, meet_of_tuples
from repro.core.construct import build_qctree
from repro.core.maintenance import maintain_batch
from repro.core.warehouse import QCWarehouse
from repro.cube.cover_index import CoverIndex
from repro.cube.schema import Schema
from repro.errors import MaintenanceError, SchemaError
from repro.reliability.fsck import fsck_tree
from tests.conftest import make_random_table

N_DIMS = 3
CARD = 4


def all_domain_cells():
    """Every cell over the 3-dim, card-4 test domain (125 cells)."""
    from itertools import product

    domain = [ALL] + list(range(CARD))
    return list(product(domain, repeat=N_DIMS))


CELLS = all_domain_cells()


def assert_equivalent(patched: CoverIndex, model_rows: list) -> None:
    """patched ≡ freshly built, posting- and closure-for-closure."""
    fresh = CoverIndex(rows=model_rows, n_dims=N_DIMS)
    for j in range(N_DIMS):
        assert patched.postings(j) == fresh.postings(j), f"dim {j}"
    for cell in CELLS:
        assert patched.positions(cell) == fresh.rows(cell), cell
        assert patched.closure(cell) == fresh.closure(cell), cell
        assert bool(patched.rows(cell)) == bool(fresh.rows(cell)), cell


rows_strategy = st.lists(
    st.tuples(*[st.integers(0, CARD - 1)] * N_DIMS), max_size=6
)
step_strategy = st.tuples(
    rows_strategy,                      # rows to insert
    st.lists(st.integers(0, 200), max_size=4),  # delete picks (mod size)
    st.lists(st.integers(0, len(CELLS) - 1), max_size=8),  # cells to warm
)


class TestIncrementalDifferential:
    @given(
        st.lists(
            st.tuples(*[st.integers(0, CARD - 1)] * N_DIMS),
            min_size=1, max_size=10,
        ),
        st.lists(step_strategy, max_size=6),
    )
    @settings(max_examples=120, deadline=None)
    def test_patched_equals_rebuilt(self, initial, program):
        """Random mutation programs: patched ≡ rebuilt after every step.

        Queries run *before* each mutation so the memo caches are
        populated and the invalidation rule — not an empty cache — is
        what the equivalence check exercises.
        """
        index = CoverIndex(rows=initial, n_dims=N_DIMS)
        model = list(initial)
        for inserts, delete_picks, warm in program:
            # Warm some memo entries against the pre-mutation state.
            for k in warm:
                index.closure_and_rows(CELLS[k])
            # Deletes first (the maintain_batch ordering), de-duplicated
            # positions drawn against the current table size.
            if model and delete_picks:
                positions = sorted({p % len(model) for p in delete_picks})
                index.apply_deletes(positions)
                model = [r for i, r in enumerate(model) if i not in positions]
            if inserts:
                index.apply_inserts(inserts)
                model.extend(inserts)
            assert_equivalent(index, model)

    @given(
        st.lists(st.tuples(*[st.integers(0, CARD - 1)] * N_DIMS),
                 min_size=1, max_size=10),
        st.lists(st.integers(0, 200), max_size=4),
        rows_strategy,
    )
    @settings(max_examples=120, deadline=None)
    def test_closure_is_the_meet_of_the_cover(self, initial, picks, inserts):
        """The closure read off the postings ≡ the definition, a meet
        over ``rows(cell)`` — fresh, after deletes, after inserts."""
        def check(index):
            for cell in CELLS:
                cover = index.rows(cell)
                assert index.closure(cell) == (
                    meet_of_tuples(index.row(i) for i in cover)
                    if cover else None
                ), cell

        index = CoverIndex(rows=initial, n_dims=N_DIMS)
        check(index)
        index.apply_deletes(sorted({p % len(initial) for p in picks}))
        check(index)
        index.apply_inserts(inserts)
        check(index)

    def test_delete_to_empty_posting_then_reinsert(self):
        """A posting emptied by deletes must vanish (not linger as a
        falsy bucket) and come back on re-insert of the same value."""
        rows = [(0, 1, 2), (0, 1, 3), (1, 2, 2)]
        index = CoverIndex(rows=rows, n_dims=N_DIMS)
        probe = (0, 1, ALL)
        assert index.rows(probe) == frozenset({0, 1})
        index.apply_deletes([0, 1])     # dim-0 value 0 posting empties
        assert index.rows(probe) == frozenset()
        assert not bool(index.rows((0, ALL, ALL)))
        assert index.closure(probe) is None
        assert_equivalent(index, [(1, 2, 2)])
        # Re-insert a previously deleted value: the cached-empty answer
        # must be invalidated even though its posting did not exist.
        index.apply_inserts([(0, 1, 2)])
        assert index.positions(probe) == frozenset({1})
        assert index.closure(probe) == (0, 1, 2)
        assert_equivalent(index, [(1, 2, 2), (0, 1, 2)])

    def test_delete_everything_then_repopulate(self):
        rows = [(0, 0, 0), (1, 1, 1)]
        index = CoverIndex(rows=rows, n_dims=N_DIMS)
        assert bool(index.rows((ALL, ALL, ALL)))
        index.apply_deletes([0, 1])
        assert index.n_rows == 0
        assert index.rows((ALL, ALL, ALL)) == frozenset()
        assert not bool(index.rows((ALL, ALL, ALL)))
        index.apply_inserts([(2, 2, 2)])
        assert index.positions((ALL, ALL, ALL)) == frozenset({0})
        assert_equivalent(index, [(2, 2, 2)])

    def test_positions_translate_after_deletes(self):
        rows = [(0, 0, 0), (1, 1, 1), (2, 2, 2), (3, 3, 3)]
        index = CoverIndex(rows=rows, n_dims=N_DIMS)
        index.apply_deletes([1])
        # Surviving rows compact to positions 0, 1, 2.
        assert index.positions((ALL, ALL, ALL)) == frozenset({0, 1, 2})
        assert index.positions((3, ALL, ALL)) == frozenset({2})
        # rows() keeps stable ids; row() resolves them.
        (rid,) = index.rows((3, ALL, ALL))
        assert index.row(rid) == (3, 3, 3)

    def test_id_span_stays_bounded_over_one_row_laps(self):
        """2,000 one-row insert+delete laps: a mask is as wide as the
        largest id, so the id span must stay within ``2 x live + 64``,
        and right after each renumber patched ≡ fresh still holds."""
        rng = random.Random(7)

        def draw():
            return tuple(rng.randrange(CARD) for _ in range(N_DIMS))

        model = [draw() for _ in range(8)]
        index = CoverIndex(rows=model, n_dims=N_DIMS)
        renumbers = 0
        for _ in range(2000):
            row = draw()
            index.apply_inserts([row])
            model.append(row)
            span = index.stats()["id_span"]
            p = rng.randrange(len(model))
            index.apply_deletes([p])
            del model[p]
            stats = index.stats()
            assert stats["id_span"] <= 2 * stats["live_rows"] + 64
            if stats["id_span"] < span:
                renumbers += 1
                assert_equivalent(index, model)
        assert renumbers >= 20

    def test_min_delete_reads_positions_across_a_renumber(self):
        """MIN's delete path recomputes states from ``positions()``; one-row
        laps over a long-lived index cross several renumbers and the tree
        must match a rebuild after each."""
        table = make_random_table(3, n_dims=N_DIMS, cardinality=CARD,
                                  n_rows=8)
        tree = build_qctree(table, ("min", "m"))
        index = CoverIndex(table)
        rng = random.Random(5)
        renumbers = 0
        for lap in range(160):
            row = tuple(rng.randrange(CARD) for _ in range(N_DIMS))
            table = maintain_batch(
                tree, table, inserts=[table.decode_cell(row) + (lap,)],
                cover_index=index,
            ).table
            span = index.stats()["id_span"]
            p = rng.randrange(table.n_rows)
            victim = table.decode_cell(table.rows[p]) + (0.0,)
            table = maintain_batch(tree, table, deletes=[victim],
                                   cover_index=index).table
            if index.stats()["id_span"] < span:
                renumbers += 1
                assert tree.signature() == \
                    build_qctree(table, ("min", "m")).signature()
                assert_equivalent(index, list(table.rows))
        assert renumbers >= 2

    def test_apply_deletes_validates_positions(self):
        index = CoverIndex(rows=[(0, 0, 0)], n_dims=N_DIMS)
        with pytest.raises(SchemaError):
            index.apply_deletes([1])
        with pytest.raises(SchemaError):
            index.apply_deletes([-1])
        with pytest.raises(SchemaError):
            index.apply_deletes([0, 0])
        # Failed validation must not have mutated anything.
        assert index.n_rows == 1

    def test_apply_inserts_validates_width(self):
        index = CoverIndex(rows=[(0, 0, 0)], n_dims=N_DIMS)
        with pytest.raises(SchemaError):
            index.apply_inserts([(0, 0)])
        assert index.n_rows == 1


class TestConstructorValidation:
    def test_no_arguments_is_a_clear_error(self):
        with pytest.raises(SchemaError, match="table= or an explicit"):
            CoverIndex()

    def test_n_dims_derived_from_first_row(self):
        index = CoverIndex(rows=[(0, 1), (2, 3)])
        assert index.n_dims == 2
        assert index.rows((0, ALL)) == frozenset({0})

    def test_empty_rows_without_n_dims(self):
        with pytest.raises(SchemaError, match="empty row set"):
            CoverIndex(rows=[])

    def test_empty_rows_with_n_dims_is_fine(self):
        index = CoverIndex(rows=[], n_dims=2)
        assert index.rows((ALL, ALL)) == frozenset()

    def test_inconsistent_row_widths(self):
        with pytest.raises(SchemaError, match="inconsistent row width"):
            CoverIndex(rows=[(0, 1), (0,)])
        with pytest.raises(SchemaError, match="inconsistent row width"):
            CoverIndex(rows=[(0,)], n_dims=2)

    def test_bad_n_dims(self):
        with pytest.raises(SchemaError, match="non-negative int"):
            CoverIndex(rows=[(0,)], n_dims=-1)
        with pytest.raises(SchemaError, match="non-negative int"):
            CoverIndex(rows=[(0,)], n_dims="1")


class TestUnifiedClosureCache:
    def _assert_closure_subset_of_rows(self, index):
        assert set(index._closure_cache) <= set(index._rows_cache)

    def test_closure_cache_never_outlives_rows_cache(self):
        rows = [(0, 0, 0), (0, 1, 1), (1, 1, 1)]
        index = CoverIndex(rows=rows, n_dims=N_DIMS)
        for cell in CELLS:
            index.closure(cell)
        self._assert_closure_subset_of_rows(index)
        index.apply_inserts([(0, 2, 3)])
        self._assert_closure_subset_of_rows(index)
        index.apply_deletes([0])
        self._assert_closure_subset_of_rows(index)
        # Both entries for a touched cell are gone together.
        cell = (0, ALL, ALL)
        assert cell not in index._rows_cache
        assert cell not in index._closure_cache
        # And both refill through the one helper.
        ub, cover = index.closure_and_rows(cell)
        assert cell in index._rows_cache
        assert index.closure(cell) == ub

    def test_closure_and_rows_equal_separate_calls(self):
        table = make_random_table(5, n_dims=3, cardinality=3, n_rows=10)
        index = CoverIndex(table)
        other = CoverIndex(table)
        from tests.conftest import all_cells

        for cell in all_cells(table):
            ub, cover = index.closure_and_rows(cell)
            assert ub == other.closure(cell)
            assert cover == other.rows(cell)


def _records_for(table, rows):
    return [table.decode_cell(r) + (1.0,) for r in rows]


class TestMaintenanceWithPersistentIndex:
    """maintain_batch driving one long-lived index across batches must
    produce the same tree as a caller that lends none (an index built
    per batch), and leave the index posting-equivalent to a fresh build
    of the final table."""

    @given(st.lists(step_strategy, min_size=1, max_size=5))
    @settings(max_examples=40, deadline=None)
    def test_batches_with_shared_index_match_rebuild(self, program):
        table = make_random_table(11, n_dims=N_DIMS, cardinality=CARD,
                                  n_rows=8)
        tree_a = build_qctree(table, "count")
        tree_b = tree_a.copy()
        table_a = table_b = table
        index = CoverIndex(table)
        for inserts, delete_picks, _warm in program:
            deletes = []
            if delete_picks and table_a.n_rows:
                picks = sorted({p % table_a.n_rows for p in delete_picks})
                deletes = [
                    table_a.decode_cell(table_a.rows[i])
                    + tuple(table_a.measures[i])
                    for i in picks
                ]
            records = _records_for(table_a, inserts)
            result_a = maintain_batch(tree_a, table_a, inserts=records,
                                      deletes=deletes, cover_index=index)
            result_b = maintain_batch(tree_b, table_b, inserts=records,
                                      deletes=deletes)
            table_a, table_b = result_a.table, result_b.table
            assert tree_a.signature() == tree_b.signature()
        fresh = CoverIndex(table_a)
        for j in range(N_DIMS):
            assert index.postings(j) == fresh.postings(j)
        assert tree_a.signature() == build_qctree(table_a, "count").signature()

    def test_warehouse_counters_and_failure_recovery(self):
        schema = Schema(dimensions=("A", "B"), measures=("m",))
        wh = QCWarehouse.from_records(
            [("a", "x", 1.0), ("b", "y", 2.0)], schema
        )
        wh.insert([("c", "z", 3.0)])
        wh.delete([("a", "x", 0.0)])
        stats = wh.stats()["cover_index"]
        assert stats["rebuilt"] == 1      # built once, on the first write
        assert stats["patched"] == 2      # then patched per batch
        assert stats["live_rows"] == wh.table.n_rows
        # A failing batch leaves the index suspect: it must be dropped
        # and lazily rebuilt by the next successful write.
        with pytest.raises(MaintenanceError):
            wh.delete([("nope", "nope", 0.0)])
        assert wh.pieces()[0].live_cover_index is None
        wh.insert([("d", "w", 4.0)])
        stats = wh.stats()["cover_index"]
        assert stats["rebuilt"] == 2
        assert wh.point(("d", "*")) == 1

    def test_warehouse_index_stays_equivalent(self):
        schema = Schema(dimensions=("A", "B", "C"), measures=("m",))
        wh = QCWarehouse.from_records(
            [("a", "x", "p", 1.0), ("b", "y", "q", 2.0),
             ("a", "y", "p", 3.0)], schema
        )
        wh.insert([("c", "x", "q", 4.0), ("a", "x", "q", 5.0)])
        wh.delete([("b", "y", "q", 0.0)])
        wh.modify([("a", "x", "p", 1.0)], [("a", "z", "p", 9.0)])
        index = wh.cover_index
        fresh = CoverIndex(wh.table)
        for j in range(wh.table.n_dims):
            assert index.postings(j) == fresh.postings(j)

    def test_fsck_reuses_live_index(self, sales_table):
        wh = QCWarehouse(sales_table, aggregate=("sum", "Sale"))
        wh.insert([("S3", "P1", "s", 2.0)])
        assert wh.pieces()[0].live_cover_index is not None
        report = wh.verify(deep=True, samples=None)
        assert report.ok, str(report)

    def test_fsck_ignores_stale_index(self, sales_table):
        tree = build_qctree(sales_table, "count")
        stale = CoverIndex(rows=[(0, 0, 0)], n_dims=3)  # wrong row count
        report = fsck_tree(tree, table=sales_table, samples=None,
                           cover_index=stale)
        assert report.ok, str(report)

    def test_recovery_replay_reuses_one_index(self, tmp_path):
        schema = Schema(dimensions=("A", "B"), measures=("m",))
        wh = QCWarehouse.from_records(
            [("a", "x", 1.0), ("b", "y", 2.0)], schema
        )
        wh.attach_wal(tmp_path / "wal.log")
        wh.checkpoint(tmp_path / "ckpt")
        wh.insert([("c", "z", 3.0)])
        wh.delete([("a", "x", 0.0)])
        wh.insert([("d", "w", 4.0), ("e", "v", 5.0)])
        recovered = QCWarehouse.recover(
            tmp_path / "ckpt", tmp_path / "wal.log", schema)
        assert recovered.last_recovery["replayed"] == 3
        assert recovered.tree.signature() == wh.tree.signature()
        # The replay path built the index once and patched it through
        # every replayed batch; it must match a fresh build.
        assert recovered.pieces()[0].live_cover_index is not None
        assert recovered.stats()["cover_index"]["rebuilt"] == 1
        fresh = CoverIndex(recovered.table)
        for j in range(recovered.table.n_dims):
            assert recovered.cover_index.postings(j) == fresh.postings(j)

    def test_empty_batch_does_not_build_an_index(self):
        schema = Schema(dimensions=("A",), measures=("m",))
        wh = QCWarehouse.from_records([("a", 1.0)], schema)
        wh.insert([])
        assert wh.pieces()[0].live_cover_index is None
        assert wh.stats()["cover_index"]["rebuilt"] == 0
