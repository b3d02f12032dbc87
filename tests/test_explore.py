"""Tests for semantic exploration (intelligent roll-up, class drill-in),
the ``cube_*`` functions over one ``(tree, table)`` pair in code space."""

import pytest

from repro.core.construct import build_qctree
from repro.core.explore import (
    TreeCube,
    cube_drilldowns,
    cube_open_class,
    cube_rollup,
    cube_rollup_exceptions,
    cube_rollups,
)
from repro.errors import QueryError
from tests.conftest import make_random_table


@pytest.fixture
def tree(sales_table):
    return build_qctree(sales_table, ("avg", "Sale"))


@pytest.fixture
def cube(tree, sales_table):
    return TreeCube(tree, sales_table)


class TestIntelligentRollup:
    def test_paper_intro_example(self, cube, sales_table):
        """From (S2,P1,f): most general context with AVG 9 is (*,*,*)."""
        cell = sales_table.encode_cell(("S2", "P1", "f"))
        classes = cube_rollup(cube, cell)
        decoded = [sales_table.decode_cell(ub) for ub, _ in classes]
        assert decoded[0] == ("*", "*", "*")
        assert ("S2", "P1", "f") in decoded
        assert all(value == 9.0 for _, value in classes)

    def test_paper_intro_exceptions(self, cube, sales_table):
        """The excluded context is the (*,P1,*) class with AVG 7.5."""
        cell = sales_table.encode_cell(("S2", "P1", "f"))
        exceptions = cube_rollup_exceptions(cube, cell)
        decoded = {
            sales_table.decode_cell(ub): value for ub, value in exceptions
        }
        assert decoded == {("*", "P1", "*"): 7.5}

    def test_searches_at_most_the_ancestor_classes(self, cube, sales_table):
        """The paper: "we only need to search at most 2 classes"."""
        cell = sales_table.encode_cell(("S2", "P1", "f"))
        total = len(cube_rollup(cube, cell)) + len(
            cube_rollup_exceptions(cube, cell)
        )
        assert total == 3  # C1, C6, C3 are the ancestors of (S2, P1, f)

    def test_missing_cell_rejected(self, cube, sales_table):
        with pytest.raises(QueryError, match="not in the cube"):
            cube_rollup(cube, sales_table.encode_cell(("S2", "*", "s")))

    @pytest.mark.parametrize("seed", range(8))
    def test_results_share_the_start_value(self, seed):
        table = make_random_table(seed)
        t = build_qctree(table, "count")
        row = table.rows[0]
        start_value = None
        from repro.core.point_query import point_query

        start_value = point_query(t, row)
        for _, value in cube_rollup(TreeCube(t, table), row):
            assert value == start_value


class TestLatticeNavigation:
    def test_class_of(self, cube, sales_table):
        ub, value = cube.probe(sales_table.encode_cell(("S1", "*", "*")))
        assert sales_table.decode_cell(ub) == ("S1", "*", "s")
        assert value == 9.0

    def test_class_of_missing_cell(self, cube, sales_table):
        assert cube.probe(sales_table.encode_cell(("S2", "*", "s"))) is None

    def test_drilldowns_from_root(self, cube, sales_table):
        classes = cube_drilldowns(
            cube, sales_table.encode_cell(("*", "*", "*")))
        decoded = {sales_table.decode_cell(ub) for ub, _ in classes}
        # One-step drill-downs from C1 reach C2..C6 (Figure 3 lattice).
        assert ("S1", "*", "s") in decoded
        assert ("S2", "P1", "f") in decoded
        assert ("*", "P1", "*") in decoded

    def test_rollups_from_specific_cell(self, cube, sales_table):
        classes = cube_rollups(
            cube, sales_table.encode_cell(("S1", "P1", "s")))
        decoded = {sales_table.decode_cell(ub) for ub, _ in classes}
        # Figure 3: C5's lattice children are C4 and C6.
        assert decoded == {("S1", "*", "s"), ("*", "P1", "*")}

    def test_rollups_from_root_empty(self, cube, sales_table):
        assert cube_rollups(
            cube, sales_table.encode_cell(("*", "*", "*"))) == []


class TestDrillIntoClass:
    def test_paper_figure3_class_c3(self, cube, sales_table):
        structure = cube_open_class(
            cube, sales_table.encode_cell(("S2", "*", "f")))
        decode = sales_table.decode_cell
        assert decode(structure.upper_bound) == ("S2", "P1", "f")
        assert sorted(decode(lb) for lb in structure.lower_bounds) == [
            ("*", "*", "f"), ("S2", "*", "*"),
        ]
        members = {decode(m) for m in structure.members}
        # Figure 3's drill-in shows exactly these six member cells.
        assert members == {
            ("S2", "P1", "f"), ("S2", "P1", "*"), ("*", "P1", "f"),
            ("S2", "*", "f"), ("*", "*", "f"), ("S2", "*", "*"),
        }
        assert structure.value == 9.0

    def test_members_form_intervals(self, cube, sales_table):
        structure = cube_open_class(
            cube, sales_table.encode_cell(("S2", "*", "f")))
        for member in structure.members:
            assert structure.contains(member)
        assert not structure.contains(
            sales_table.encode_cell(("S1", "*", "*"))
        )

    def test_drilldown_edges_stay_inside(self, cube, sales_table):
        structure = cube_open_class(
            cube, sales_table.encode_cell(("S2", "*", "f")))
        members = set(structure.members)
        for src, dst in structure.drilldown_edges:
            assert src in members and dst in members

    @pytest.mark.parametrize("seed", range(6))
    def test_member_count_matches_oracle(self, seed):
        table = make_random_table(seed, n_dims=3, cardinality=3)
        t = build_qctree(table, "count")
        from repro.cube.lattice import quotient_classes

        oracle = {
            c.upper_bound: set(c.members)
            for c in quotient_classes(table, "count")
        }
        for ub, members in list(oracle.items())[:5]:
            structure = cube_open_class(TreeCube(t, table), ub)
            assert set(structure.members) == members
