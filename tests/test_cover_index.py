"""Tests for the inverted cover index (repro.cube.cover_index)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cells import ALL
from repro.cube.cover_index import CoverIndex
from repro.cube.lattice import closure
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
