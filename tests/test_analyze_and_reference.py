"""The reference construction (``build_qctree_reference``) against
Algorithm 1.  The file name is wider than that and is kept so the test
ids stay stable."""

import math
import random

import pytest

from repro.core.cells import ALL
from repro.core.construct import build_qctree, build_qctree_reference
from repro.cube.schema import Schema
from repro.cube.table import BaseTable
from repro.errors import SchemaError
from tests.conftest import LINKS, make_random_table

#: Every registry aggregate, plus one spec over two measures.
SPECS = {
    "count": "count",
    "sum": ("sum", "m"),
    "avg": ("avg", "m"),
    "var": ("var", "m"),
    "min": ("min", "m"),
    "max": ("max", "m"),
    "two-measure": [("sum", "m"), ("avg", "w"), ("var", "w")],
}


def _table(rows, measures, cardinality=None):
    n_dims = len(rows[0]) if rows else 2
    schema = Schema(dimensions=[f"D{j}" for j in range(n_dims)],
                    measures=("m", "w"))
    cards = None if cardinality is None else [cardinality] * n_dims
    return BaseTable.from_encoded(rows, measures, schema, cards)


def _fractional_table(seed):
    """Measures uniform on [0, 100): a sum's last bits depend on the
    order its rows are added in, unlike the integer measures of
    ``make_random_table``."""
    rng = random.Random(seed)
    n_dims, card = rng.randint(1, 4), rng.randint(1, 4)
    rows = [tuple(rng.randrange(card) for _ in range(n_dims))
            for _ in range(rng.randint(1, 30))]
    measures = [[rng.uniform(0, 100), rng.uniform(0, 100)] for _ in rows]
    return _table(rows, measures, card)


def _exact(tree):
    """Signature plus every class's state, by ``repr`` so that NaN
    states compare too."""
    signature = tree.signature()
    paths = signature["ub"]
    links = [signature[name] for name in LINKS]
    states = sorted(
        (repr(tree.upper_bound_of(n)), repr(tree.state[n]))
        for n in tree.iter_class_nodes()
    )
    return paths, links, states


def assert_same_as_reference(table, spec):
    alg1 = build_qctree(table, spec)
    assert _exact(alg1) == _exact(build_qctree_reference(table, spec))
    alg1.check_invariants()


class TestReferenceConstruction:
    """The closure-relation construction must equal Algorithm 1 exactly —
    the two implementations validate each other."""

    @pytest.mark.parametrize("seed", range(30))
    def test_signature_equality(self, seed):
        table = make_random_table(seed)
        alg1 = build_qctree(table, ("sum", "m"))
        reference = build_qctree_reference(table, ("sum", "m"))
        mine, want = alg1.signature(), reference.signature()
        assert mine["ub"] == want["ub"], "paths: " + mine.diff(want)
        assert all(mine[name] == want[name] for name in LINKS), \
            "links: " + mine.diff(want)
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


class TestBitExactStates:
    """Algorithm 1 sums a level's partitions at once; every state must
    still be bit for bit the one ``AggregateFunction.state`` gives the
    class's rows, which the reference construction calls."""

    @pytest.mark.parametrize("spec", list(SPECS), ids=list(SPECS))
    @pytest.mark.parametrize("seed", range(12))
    def test_signature_and_states_equal_reference(self, seed, spec):
        table = _fractional_table(seed)
        alg1 = build_qctree(table, SPECS[spec])
        reference = build_qctree_reference(table, SPECS[spec])
        assert alg1.signature() == reference.signature()
        assert _exact(alg1) == _exact(reference)

    def test_long_partitions(self):
        # Partitions longer than the position-parallel sums take.
        rng = random.Random(7)
        rows = [(rng.randrange(2), rng.randrange(3)) for _ in range(400)]
        measures = [[rng.uniform(0, 100), rng.uniform(0, 100)] for _ in rows]
        for spec in SPECS.values():
            assert_same_as_reference(_table(rows, measures, 3), spec)


class TestEdgeShapes:
    """Shapes the level-at-a-time partitioner must get right, each
    against the reference construction."""

    @pytest.mark.parametrize("spec", list(SPECS), ids=list(SPECS))
    @pytest.mark.parametrize("shape", [
        "one-row", "one-dimension", "identical", "duplicates", "constant-dim",
    ])
    def test_shape(self, shape, spec):
        rng = random.Random(shape)
        rows = {
            "one-row": [(1, 0, 2)],
            "one-dimension": [(v,) for v in (2, 0, 2, 1, 0)],
            "identical": [(1, 2)] * 6,
            "duplicates": [(0, 1), (1, 1), (0, 1), (1, 0), (0, 1)],
            "constant-dim": [(3, v, w) for v, w in
                             ((0, 1), (1, 1), (0, 0), (2, 1))],
        }[shape]
        measures = [[rng.uniform(0, 100), rng.uniform(0, 100)] for _ in rows]
        assert_same_as_reference(_table(rows, measures), SPECS[spec])

    def test_constant_dimension_closes_at_the_root(self):
        table = _table([(3, 0), (3, 1)], [[1.0, 0.0], [2.0, 0.0]])
        tree = build_qctree(table, "count")
        assert tree.state[tree.root] is None
        assert tree.class_upper_bounds() == {
            (3, ALL): 2, (3, 0): 1, (3, 1): 1}
        assert _exact(tree) == _exact(build_qctree_reference(table, "count"))

    def test_empty_table(self):
        table = _table([], [])
        for spec in SPECS.values():
            tree = build_qctree(table, spec)
            assert tree.n_nodes == 1 and tree.n_classes == 0
            assert _exact(tree) == _exact(build_qctree_reference(table, spec))

    @pytest.mark.parametrize("spec", ["min", "max", "sum", "two-measure"])
    @pytest.mark.parametrize("special", [math.nan, math.inf, -math.inf, -0.0])
    def test_nan_infinite_and_negative_zero_measures(self, special, spec):
        """MIN and MAX order any measure; SUM, AVG and VAR keep exact
        states, which a non-finite measure has none of, so there both
        constructions refuse the table, naming the row (``w`` holds
        -inf in every table here)."""
        rows = [(0, 1), (1, 1), (0, 0), (1, 0), (0, 1)]
        measures = [[3.0, 1.0], [special, special], [-0.0, 2.0],
                    [0.0, -math.inf], [special, 5.0]]
        table = _table(rows, measures)
        if spec == "two-measure" or (spec == "sum"
                                     and not math.isfinite(special)):
            for build in (build_qctree, build_qctree_reference):
                with pytest.raises(SchemaError,
                                   match=r"row \d+ has the non-finite"):
                    build(table, SPECS[spec])
        else:
            assert_same_as_reference(table, SPECS[spec])
