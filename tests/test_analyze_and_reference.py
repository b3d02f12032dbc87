"""The reference construction (``build_qctree_reference``) against
Algorithm 1.  The file name is wider than that and is kept so the test
ids stay stable."""

import pytest

from repro.core.construct import build_qctree, build_qctree_reference
from tests.conftest import make_random_table


class TestReferenceConstruction:
    """The closure-relation construction must equal Algorithm 1 exactly —
    the two implementations validate each other."""

    @pytest.mark.parametrize("seed", range(30))
    def test_signature_equality(self, seed):
        table = make_random_table(seed)
        alg1 = build_qctree(table, ("sum", "m"))
        reference = build_qctree_reference(table, ("sum", "m"))
        assert alg1.signature()[0] == reference.signature()[0], "paths"
        assert alg1.signature()[1] == reference.signature()[1], "links"
        assert alg1.equivalent_to(reference)

    def test_paper_example(self, sales_table):
        reference = build_qctree_reference(sales_table, ("avg", "Sale"))
        assert reference.n_nodes == 11
        assert reference.n_links == 5
        assert reference.n_classes == 6

    def test_empty_table(self):
        table = make_random_table(0, n_rows=1).without_rows([0])
        tree = build_qctree_reference(table, "count")
        assert tree.n_classes == 0

    @pytest.mark.parametrize("seed", range(5))
    def test_reference_passes_invariants(self, seed):
        build_qctree_reference(
            make_random_table(seed + 50), "count"
        ).check_invariants()

