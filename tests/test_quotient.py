"""Tests for the quotient cube and QC-table (repro.cube.quotient)."""

import pytest

from repro.core.cells import ALL
from repro.cube.lattice import (
    full_cube,
    is_convex_partition,
    quotient_classes,
)
from repro.cube.quotient import QCTable, QuotientCube, class_lower_bounds
from tests.conftest import all_cells, make_random_table


class TestQuotientCube:
    def test_paper_example_has_six_classes(self, sales_table):
        qc = QuotientCube.from_table(sales_table, ("avg", "Sale"))
        assert len(qc) == 6

    def test_paper_class_c3_bounds(self, sales_table):
        qc = QuotientCube.from_table(sales_table, ("avg", "Sale"))
        ub = sales_table.encode_cell(("S2", "P1", "f"))
        c3 = qc.class_of_upper_bound(ub)
        decoded = [sales_table.decode_cell(lb) for lb in c3.lower_bounds]
        # "(*,*,f), (S2,*,*) are the lower bounds ... of class C3"
        assert sorted(decoded) == [("*", "*", "f"), ("S2", "*", "*")]
        assert c3.value == 9.0

    @pytest.mark.parametrize("seed", range(15))
    def test_matches_bruteforce_classes(self, seed):
        table = make_random_table(seed)
        qc = QuotientCube.from_table(table, ("sum", "m"))
        qc.check_well_formed()
        oracle = quotient_classes(table, ("sum", "m"))
        assert {c.upper_bound for c in qc} == {
            c.upper_bound for c in oracle
        }
        by_ub = {c.upper_bound: c for c in oracle}
        for qclass in qc:
            reference = by_ub[qclass.upper_bound]
            assert set(qclass.lower_bounds) == set(reference.lower_bounds)
            assert qclass.value == reference.value

    @pytest.mark.parametrize("seed", range(8))
    def test_cover_partition_is_convex(self, seed):
        table = make_random_table(seed, n_dims=3, cardinality=3)
        oracle = quotient_classes(table, "count")
        assert is_convex_partition(table, oracle)

    @pytest.mark.parametrize("seed", range(8))
    def test_class_of_cell_agrees_with_membership(self, seed):
        table = make_random_table(seed + 40)
        qc = QuotientCube.from_table(table, "count")
        from repro.cube.lattice import closure

        for cell in all_cells(table):
            qclass = qc.class_of_cell(cell)
            expected = closure(table, cell)
            if expected is None:
                assert qclass is None
            else:
                assert qclass.upper_bound == expected

    def test_lattice_child_ids_are_more_general(self, sales_table):
        qc = QuotientCube.from_table(sales_table, "count")
        by_id = {c.class_id: c for c in qc}
        for qclass in qc:
            for child_id in qclass.child_ids:
                child = by_id[child_id]
                # A lattice child is strictly more general: every member of
                # the child generalizes some member here; upper bounds obey
                # child_ub <= some lower bound's region.  Weak check:
                assert child.upper_bound != qclass.upper_bound

    def test_lattice_parents_inverse_of_children(self, sales_table):
        qc = QuotientCube.from_table(sales_table, "count")
        for qclass in qc:
            for child_id in qclass.child_ids:
                assert qclass.class_id in qc.lattice_parents(child_id)


class TestClassLowerBounds:
    @pytest.mark.parametrize("seed", range(10))
    def test_lower_bounds_are_minimal_members(self, seed):
        table = make_random_table(seed + 70)
        from repro.cube.lattice import closure

        for qclass in quotient_classes(table, "count"):
            got = class_lower_bounds(table, qclass.upper_bound)
            assert set(got) == set(qclass.lower_bounds)
            for lb in got:
                assert closure(table, lb) == qclass.upper_bound

    def test_root_class_lower_bound_is_all_star(self, sales_table):
        lbs = class_lower_bounds(sales_table, (ALL, ALL, ALL))
        assert lbs == [(ALL, ALL, ALL)]


class TestQCTable:
    def test_one_row_per_class(self, sales_table):
        qt = QCTable.from_table(sales_table, ("avg", "Sale"))
        assert len(qt) == 6

    def test_rows_sorted_by_bound(self, sales_table):
        from repro.core.cells import dict_sort_key

        qt = QCTable.from_table(sales_table, ("avg", "Sale"))
        keys = [dict_sort_key(ub) for ub, _ in qt.rows]
        assert keys == sorted(keys)

    def test_lookup_upper_bound(self, sales_table):
        qt = QCTable.from_table(sales_table, ("avg", "Sale"))
        ub = sales_table.encode_cell(("S2", "P1", "f"))
        assert qt.lookup_upper_bound(ub) == 9.0
        assert qt.lookup_upper_bound((ALL, 0, 0)) is None

    @pytest.mark.parametrize("seed", range(10))
    def test_point_query_with_base_table(self, seed):
        table = make_random_table(seed)
        qt = QCTable.from_table(table, ("sum", "m"))
        oracle = full_cube(table, ("sum", "m"))
        for cell in list(all_cells(table))[:40]:
            assert qt.point_query(cell, table) == oracle.get(cell)
