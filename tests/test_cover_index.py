"""Tests for the inverted cover index (repro.cube.cover_index)."""

import gc
import random
import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cells import ALL
from repro.cube.cover_index import CoverIndex
from repro.cube.lattice import closure
from repro.data.synthetic import zipf_table
from tests.conftest import all_cells, make_random_table


class TestAgainstLinearScan:
    @pytest.mark.parametrize("seed", range(15))
    def test_rows_match_select(self, seed):
        table = make_random_table(seed)
        index = CoverIndex(table)
        for cell in all_cells(table):
            assert sorted(index.rows(cell)) == table.select(cell)

    @pytest.mark.parametrize("seed", range(15))
    def test_closure_matches_oracle(self, seed):
        table = make_random_table(seed + 30)
        index = CoverIndex(table)
        for cell in all_cells(table):
            assert index.closure(cell) == closure(table, cell)

    @pytest.mark.parametrize("seed", range(5))
    def test_closure_and_rows(self, seed):
        table = make_random_table(seed + 60)
        index = CoverIndex(table)
        for cell in all_cells(table):
            ub, rows = index.closure_and_rows(cell)
            assert sorted(rows) == table.select(cell)
            assert ub == closure(table, cell)


class TestEdgeCases:
    def test_from_bare_rows(self):
        index = CoverIndex(rows=[(0, 1), (0, 2)], n_dims=2)
        assert index.rows((0, ALL)) == frozenset({0, 1})
        assert index.rows((ALL, 1)) == frozenset({0})
        assert index.closure((0, ALL)) == (0, ALL)

    def test_empty_rows(self):
        index = CoverIndex(rows=[], n_dims=2)
        assert index.rows((ALL, ALL)) == frozenset()
        assert index.closure((ALL, ALL)) is None

    def test_unknown_value_is_empty(self):
        index = CoverIndex(rows=[(0, 0)], n_dims=2)
        assert index.rows((5, ALL)) == frozenset()

    def test_all_star_returns_everything(self):
        index = CoverIndex(rows=[(0, 0), (1, 1), (2, 2)], n_dims=2)
        assert index.rows((ALL, ALL)) == frozenset({0, 1, 2})

    def test_caches_are_per_instance(self):
        a = CoverIndex(rows=[(0,)], n_dims=1)
        b = CoverIndex(rows=[(1,)], n_dims=1)
        assert a.rows((0,)) == frozenset({0})
        assert b.rows((0,)) == frozenset()


class TestHypothesis:
    @given(
        st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
            max_size=15,
        ),
        st.tuples(
            st.one_of(st.just(ALL), st.integers(0, 3)),
            st.one_of(st.just(ALL), st.integers(0, 3)),
            st.one_of(st.just(ALL), st.integers(0, 3)),
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_rows_equal_filter(self, rows, cell):
        from repro.core.cells import covers

        index = CoverIndex(rows=rows, n_dims=3)
        expected = frozenset(
            i for i, row in enumerate(rows) if covers(cell, row)
        )
        assert index.rows(cell) == expected


def _scan_closure(rows, cell):
    """Closure by a scan: the meet of every row the cell covers."""
    from repro.core.cells import covers, meet_of_tuples

    covered = [row for row in rows if covers(cell, row)]
    return meet_of_tuples(covered) if covered else None


class TestMaskReads:
    """``values_at`` and ``closure`` read the cover mask; both must agree
    with a scan over the covered rows."""

    def _check(self, index, rows, cell):
        for j in range(index.n_dims):
            assert index.values_at(cell, j) == sorted(
                {index.row(i)[j] for i in index.rows(cell)}
            ), (cell, j)
        assert index.closure(cell) == _scan_closure(rows, cell), cell

    @given(
        st.lists(st.tuples(*[st.integers(0, 3)] * 3), min_size=1,
                 max_size=15),
        st.tuples(*[st.one_of(st.just(ALL), st.integers(0, 3))] * 3),
        st.tuples(*[st.integers(0, 3)] * 3),
    )
    @settings(max_examples=150, deadline=None)
    def test_values_at_and_closure_match_a_scan(self, rows, cell, extra):
        index = CoverIndex(rows=rows, n_dims=3)
        self._check(index, rows, cell)
        self._check(index, rows, (ALL, ALL, ALL))
        self._check(index, rows, (9, ALL, ALL))  # empty cover
        assert index.values_at((9, ALL, ALL), 1) == []
        # A label minted by the last insert: value 4 exists nowhere else.
        minted = (4,) + extra[1:]
        index.apply_inserts([minted])
        rows = rows + [minted]
        for probe in (cell, (4, ALL, ALL), (ALL,) + minted[1:],
                      (ALL, ALL, ALL)):
            self._check(index, rows, probe)


class TestLargeBatches:
    """A table or a patch of 1,024 rows or more is grouped by one stable
    sort per dimension and each posting packed from its id array; every
    read must still agree with a scan."""

    def test_reads_on_a_large_table_match_a_scan(self):
        table = make_random_table(7, n_dims=4, cardinality=6, n_rows=1500)
        index = CoverIndex(table)
        rng = random.Random(7)
        cells = [(ALL,) * 4] + [
            tuple(rng.choice([ALL, rng.randrange(6)]) for _ in range(4))
            for _ in range(80)
        ]
        rows = table.rows
        for cell in cells:
            covered = table.select(cell)
            assert sorted(index.rows(cell)) == covered, cell
            assert sorted(index.positions(cell)) == covered, cell
            assert index.closure(cell) == closure(table, cell), cell
            for j in range(4):
                assert index.values_at(cell, j) == sorted(
                    {rows[i][j] for i in covered}
                ), (cell, j)

    def test_large_deletes_and_inserts_match_a_scan(self):
        rng = random.Random(11)
        rows = [tuple(rng.randrange(4) for _ in range(3)) for _ in range(3000)]
        index = CoverIndex(rows=rows[:300], n_dims=3)
        index.apply_inserts(rows[300:])  # ids 300.., so every mask shifts
        drop = rng.sample(range(3000), 1100)
        index.apply_deletes(drop)
        assert index.stats()["id_span"] == 3000  # no renumber rebuilt it
        dropped = set(drop)
        rows = [row for p, row in enumerate(rows) if p not in dropped]
        self._check(index, rows)
        added = [tuple(rng.randrange(5) for _ in range(3)) for _ in range(1100)]
        index.apply_inserts(added)
        self._check(index, rows + added)

    @staticmethod
    def _check(index, rows):
        from repro.core.cells import covers

        fresh = CoverIndex(rows=rows, n_dims=3)
        for j in range(3):
            scanned = {}
            for p, row in enumerate(rows):
                scanned.setdefault(row[j], set()).add(p)
            assert index.postings(j) == fresh.postings(j) == {
                x: frozenset(ps) for x, ps in scanned.items()
            }, j
        for cell in product([ALL] + list(range(5)), repeat=3):
            covered = frozenset(
                p for p, row in enumerate(rows) if covers(cell, row)
            )
            assert index.positions(cell) == covered, cell
            assert index.closure(cell) == _scan_closure(rows, cell), cell


class TestRowStorage:
    """The index keeps its rows as one code matrix: built from a table
    it shares the table's, so it holds no Python object per row."""

    def test_a_table_index_retains_little_beyond_its_postings(self):
        table = zipf_table(20000, 6, 30, zipf=2.0, seed=1)
        gc.collect()
        tracemalloc.start()
        try:
            index = CoverIndex(table)
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert index.n_rows == 20000
        assert retained <= 1.5e6, retained

    def test_reads_hold_python_ints_after_patches(self):
        index = CoverIndex(rows=[(0, 1, 2), (0, 1, 3), (1, 1, 2)], n_dims=3)
        index.apply_inserts(np.array([[0, 2, 2], [1, 1, 3]], dtype=np.int32))
        index.apply_deletes([1])
        cell = (0, ALL, ALL)
        (rid, *_) = sorted(index.rows(cell))
        # (1, *, 3) covers one row, fewer than dimension 1's values, so
        # its values_at reads the matrix; the others read the postings.
        reads = [index.row(rid), index.closure(cell),
                 index.closure((ALL, 1, ALL)), index.values_at(cell, 1),
                 index.values_at((ALL, ALL, ALL), 2),
                 index.values_at((1, ALL, 3), 1)]
        assert reads == [(0, 1, 2), (0, ALL, 2), (ALL, 1, ALL), [1, 2],
                         [2, 3], [1]]
        for read in reads:
            assert all(type(v) is int for v in read if v is not ALL), read
