"""Tests for the frozen read-optimized QC-tree representation.

The frozen view must be *observationally identical* to the dict-backed
tree it compiles from: same signature, same answers and node-access
counts for every query kind, same protocol surface — only faster.
"""

import contextlib
import mmap
import pathlib
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core.cells import ALL
from repro.core.construct import build_qctree
from repro.core.frozen import _UNSET, FrozenQCTree
from repro.core.iceberg import MeasureIndex, constrained_iceberg, pure_iceberg
from repro.core.maintenance import apply_deletions, apply_insertions
from repro.core.point_query import (
    descend_to_class,
    locate,
    locate_generic,
    point_query,
    search_route,
)
from repro.core.range_query import range_query
from repro.errors import QueryError
from repro.serving.scatter import _range_states
from repro.core.warehouse import QCWarehouse
from repro.cube.table import BaseTable
from repro.shard.pack import (
    attach_packed,
    canonical_bytes,
    pack_snapshot_bytes,
)
from tests.conftest import (
    all_cells,
    make_random_table,
    refreeze_ratios,
)


def _tree_pair(seed, aggregate=("sum", "m"), **kwargs):
    table = make_random_table(seed, **kwargs)
    tree = build_qctree(table, aggregate)
    return table, tree, tree.freeze()


class TestStructure:
    @pytest.mark.parametrize("seed", range(20))
    def test_signature_matches_dict_tree(self, seed):
        _, tree, frozen = _tree_pair(seed)
        assert frozen.signature() == tree.signature()
        assert canonical_bytes(frozen) == pack_snapshot_bytes(frozen)

    @pytest.mark.parametrize("seed", range(10))
    def test_counts_match(self, seed):
        _, tree, frozen = _tree_pair(seed)
        assert frozen.n_nodes == tree.n_nodes
        assert frozen.n_links == tree.n_links
        assert frozen.n_classes == tree.n_classes

    def test_immutable(self):
        _, _, frozen = _tree_pair(0)
        with pytest.raises(TypeError):
            frozen.root = 5
        with pytest.raises(TypeError):
            del frozen.root
        with pytest.raises(TypeError):
            frozen.brand_new_attribute = 1

    def test_direct_construction_rejected(self):
        with pytest.raises(TypeError):
            FrozenQCTree()

    def test_equivalent_to_both_directions(self):
        _, tree, frozen = _tree_pair(4)
        assert frozen.equivalent_to(tree)
        assert tree.equivalent_to(frozen)

    def test_class_upper_bounds_match(self):
        _, tree, frozen = _tree_pair(5)
        assert frozen.class_upper_bounds() == tree.class_upper_bounds()


class TestPointParity:
    @pytest.mark.parametrize("seed", range(25))
    def test_every_cell_and_every_count(self, seed):
        """Answers AND node-access counts agree across the four walks:
        {dict, frozen} x {protocol reference, the tree's own walk}."""
        table, tree, frozen = _tree_pair(seed)
        for cell in all_cells(table):
            counters = [[0] for _ in range(4)]
            answers = [
                locate(tree, cell, counter=counters[0]),
                locate_generic(tree, cell, counter=counters[1]),
                locate(frozen, cell, counter=counters[2]),
                locate_generic(frozen, cell, counter=counters[3]),
            ]
            bounds = {
                None if node is None else t.upper_bound_of(node)
                for node, t in zip(
                    answers, (tree, tree, frozen, frozen)
                )
            }
            assert len(bounds) == 1, (cell, answers)
            assert len({c[0] for c in counters}) == 1, (cell, counters)
            assert point_query(tree, cell) == point_query(frozen, cell)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_hypothesis_workloads(self, seed):
        table, tree, frozen = _tree_pair(
            seed, aggregate="count", n_dims=3, cardinality=3, n_rows=8
        )
        for cell in all_cells(table):
            assert point_query(tree, cell) == point_query(frozen, cell)

    def test_odd_query_value_types(self):
        """The int-key compression must not change lookup semantics for
        non-int values: a float equal to a code matches (dict semantics),
        anything else misses without raising."""
        table, tree, frozen = _tree_pair(7, n_dims=2, cardinality=4,
                                         n_rows=10)
        probes = [3.0, 3.5, -1, 10**9, "x", True, None]
        for probe in probes:
            for other in (ALL, 0):
                cell = (probe, other)
                assert point_query(tree, cell) == point_query(frozen, cell), (
                    cell
                )

    def test_wrong_arity_rejected(self):
        _, _, frozen = _tree_pair(3, n_dims=3)
        with pytest.raises(QueryError):
            point_query(frozen, (ALL,))


class TestRangeAndIcebergParity:
    @pytest.mark.parametrize("seed", range(15))
    def test_range_queries_match(self, seed):
        table, tree, frozen = _tree_pair(seed + 100)
        rng = random.Random(seed)
        for _ in range(5):
            spec = []
            for j in range(table.n_dims):
                roll = rng.random()
                cj = table.cardinality(j)
                if roll < 0.3:
                    spec.append(ALL)
                else:
                    spec.append(
                        sorted(rng.sample(range(cj), min(cj, rng.randint(1, 3))))
                    )
            expected = range_query(tree, spec)
            got = range_query(frozen, spec)
            assert set(got) == set(expected)
            for cell in got:
                assert got[cell] == expected[cell]

    @pytest.mark.parametrize("seed", range(10))
    def test_pure_iceberg_matches(self, seed):
        _, tree, frozen = _tree_pair(seed + 200)
        for threshold in (0, 5, 20):
            assert pure_iceberg(frozen, threshold) == pure_iceberg(
                tree, threshold
            )

    @pytest.mark.parametrize("seed", range(10))
    def test_constrained_iceberg_mark_and_filter(self, seed):
        """Both iceberg strategies on the frozen tree equal the dict
        tree's filter plan — 'mark' exercises the protocol iterators
        (``iter_children_of``/``iter_links_of``) over the packed arrays."""
        table, tree, frozen = _tree_pair(seed + 300)
        spec = tuple(
            [0] if j == 0 and table.cardinality(0) else ALL
            for j in range(table.n_dims)
        )
        expected = constrained_iceberg(tree, spec, 5, strategy="filter")
        for strategy in ("filter", "mark"):
            index = (
                MeasureIndex(frozen) if strategy == "mark" else None
            )
            got = constrained_iceberg(
                frozen, spec, 5, strategy=strategy, index=index
            )
            assert got == expected


class TestFreezeOnLoad:
    """A recovered store builds its tree from the checkpointed table: the
    serving view is that build frozen, the dict tree stays mutable."""

    def _recovered(self, tmp_path):
        table, _, _ = _tree_pair(11)
        QCWarehouse(table, ("sum", "m")).checkpoint(tmp_path / "ckpt")
        # The table the CSV holds: the rows' labels, none of the unused
        # codes ``from_encoded`` reserves.
        rows = BaseTable.from_records(table.iter_records(), table.schema)
        recovered = QCWarehouse.recover(tmp_path / "ckpt", tmp_path / "wal",
                                        table.schema)
        return build_qctree(rows, ("sum", "m")), recovered

    def test_loads_with_freeze_returns_frozen(self, tmp_path):
        tree, recovered = self._recovered(tmp_path)
        loaded = recovered.serving_tree
        assert isinstance(loaded, FrozenQCTree)
        assert loaded.signature() == tree.signature()

    def test_loads_default_stays_mutable(self, tmp_path):
        tree, recovered = self._recovered(tmp_path)
        loaded = recovered.tree
        assert not isinstance(loaded, FrozenQCTree)
        assert loaded.signature() == tree.signature()


# -- one parity suite over every storage -------------------------------------

STORAGES = ("fresh", "patched", "bytes", "mmap")


@contextlib.contextmanager
def open_storage(kind, seed, tmp_path, **kwargs):
    """``(table, dict tree, array tree)`` with the array tree's sections
    from one of four sources: a fresh in-process compile, that compile
    patched so that it carries overlay rows, appended slots *and*
    tombstones, a ``QCTREE/3`` blob attached from ``bytes``, and one
    attached from an mmap'd file."""
    kwargs.setdefault("n_dims", 3)
    kwargs.setdefault("cardinality", 3)
    kwargs.setdefault("n_rows", 12)
    table = make_random_table(seed, **kwargs)
    tree = build_qctree(table, ("sum", "m"))
    if kind == "patched":
        fresh = (table.cardinality(0) + 1,) * table.n_dims
        table = apply_insertions(tree, table, [fresh + (5.0,)])
        stale = tree.freeze()
        tree.begin_delta()
        # Insert before deleting: the other way round the new path
        # would reuse the ids the delete frees and leave no tombstone.
        newer = (table.cardinality(0) + 2,) * table.n_dims
        table = apply_insertions(tree, table, [newer + (3.0,)])
        table = apply_deletions(tree, table, [fresh + (5.0,)])
        delta = tree.end_delta()
        with refreeze_ratios(full=1.0, compact=100.0):
            array_tree = stale.patch(delta)
        assert array_tree.patch_stats["mode"] == "patched"
        assert array_tree._dead and array_tree._edge_over
        assert array_tree.patch_stats["appended"] > 0
    else:
        array_tree = tree.freeze()
    attached = None
    if kind == "bytes":
        attached = attach_packed(pack_snapshot_bytes(array_tree, table))
    elif kind == "mmap":
        path = tmp_path / f"{seed}.qct3"
        path.write_bytes(pack_snapshot_bytes(array_tree, table))
        with open(path, "rb") as fp:
            mapped = mmap.mmap(fp.fileno(), 0, access=mmap.ACCESS_READ)
        attached = attach_packed(mapped, verify=True)
    try:
        yield table, tree, (attached.tree if attached else array_tree)
    finally:
        if attached is not None:
            attached.release()


def _odd_values():
    return st.one_of(
        st.just(ALL), st.integers(-3, 12), st.just(10**9),
        st.sampled_from([3.0, 3.5, 0.0, "x", "0", True, None]),
    )


@pytest.mark.parametrize("kind", STORAGES)
class TestEveryStorage:
    @pytest.mark.parametrize("seed", range(6))
    def test_locate_answers_and_counts_equal_generic_on_dict_tree(
            self, kind, seed, tmp_path):
        """The array tree's own walk answers — and costs, in the paper's
        node-access count — exactly what Algorithm 3 over the traversal
        protocol does on the source dict tree."""
        with open_storage(kind, seed, tmp_path) as (table, tree, array):
            for cell in all_cells(table):
                want, got = [0], [0]
                want_node = locate_generic(tree, cell, counter=want)
                got_node = array.locate(cell, counter=got)
                assert got == want, cell
                assert (got_node is None) == (want_node is None), cell
                if got_node is not None:
                    assert array.upper_bound_of(got_node) == \
                        tree.upper_bound_of(want_node)
                assert point_query(array, cell) == point_query(tree, cell)
                generic = [0]
                locate_generic(array, cell, counter=generic)
                assert generic == want, cell

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_odd_values_and_wrong_arity(self, kind, tmp_path_factory, data):
        """Out-of-range, negative, float, string, bool, None and
        wrong-arity inputs behave exactly as on the dict tree."""
        tmp_path = tmp_path_factory.mktemp("odd")
        with open_storage(kind, 7, tmp_path, n_dims=2, cardinality=4,
                          n_rows=10) as (table, tree, array):
            cell = tuple(data.draw(
                st.lists(_odd_values(), min_size=1, max_size=3)
            ))
            if len(cell) != table.n_dims:
                with pytest.raises(QueryError):
                    point_query(array, cell)
                with pytest.raises(QueryError):
                    range_query(array, list(cell))
                return
            assert point_query(array, cell) == point_query(tree, cell), cell
            spec = [
                ALL if v is ALL else [v, data.draw(_odd_values().filter(
                    lambda w: w is not ALL and type(w) is type(v)
                ))]
                for v in cell
            ]
            assert range_query(array, spec) == range_query(tree, spec), spec

    @pytest.mark.parametrize("seed", range(4))
    def test_range_states_equal_range_query_cell_for_cell(
            self, kind, seed, tmp_path):
        with open_storage(kind, seed + 50, tmp_path) as (table, tree, array):
            rng = random.Random(seed)
            value = array.aggregate.value
            for _ in range(5):
                spec = [
                    ALL if rng.random() < 0.3 else sorted(rng.sample(
                        range(table.cardinality(j)),
                        rng.randint(1, table.cardinality(j)),
                    ))
                    for j in range(table.n_dims)
                ]
                # An attached tree holds values, not states: its
                # cells are the source tree's.
                states = _range_states(
                    tree if array.state is None else array, spec)
                values = range_query(array, spec)
                assert list(states) == list(values)
                assert values == range_query(tree, spec)
                for cell, state in states.items():
                    assert value(state) == values[cell]

    def test_one_set_of_functions(self, kind, tmp_path):
        """Every storage is the same class, so the protocol and the
        Algorithm-3 walks resolve to the same function objects as on a
        fresh compile; the dict tree's walks are the protocol
        reference itself."""
        with open_storage(kind, 1, tmp_path) as (_, tree, array):
            fresh = tree.freeze()
            assert type(array) is type(fresh) is FrozenQCTree
            for name in (
                "search_route", "descend_to_class", "locate",
                "child", "link_target", "children_in_dim",
                "iter_children_of", "iter_links_of", "signature",
                "equivalent_to", "stats",
            ):
                assert getattr(array, name).__func__ is \
                    getattr(fresh, name).__func__, name
            for name, reference in (
                ("search_route", search_route),
                ("descend_to_class", descend_to_class),
                ("locate", locate_generic),
            ):
                assert getattr(tree, name).__func__ is reference, name

    @pytest.mark.parametrize("seed", range(4))
    def test_constrained_iceberg_mark_equals_filter(
            self, kind, seed, tmp_path):
        """The mark plan (Algorithm 4 with the tree's own
        ``search_route`` pruned to the useful nodes) answers what the
        filter plan does, and what it does on the dict tree."""
        with open_storage(kind, seed + 70, tmp_path) as (table, tree, array):
            rng = random.Random(seed)
            values = sorted(range_query(tree, (ALL,) * table.n_dims)
                            .values())
            for _ in range(4):
                spec = [
                    ALL if rng.random() < 0.3 else sorted(rng.sample(
                        range(table.cardinality(j)),
                        rng.randint(1, table.cardinality(j)),
                    ))
                    for j in range(table.n_dims)
                ]
                threshold = rng.choice(values)
                for op in (">=", ">", "<=", "<"):
                    want = constrained_iceberg(tree, spec, threshold, op,
                                               strategy="filter")
                    for strategy in ("filter", "mark"):
                        assert constrained_iceberg(
                            array, spec, threshold, op, strategy=strategy,
                        ) == want, (spec, threshold, op, strategy)


def test_fast_paths_are_defined_once_in_the_source_tree():
    """Each Algorithm-3 walk is defined once on ``FrozenQCTree`` and once
    as the protocol reference the dict tree borrows, and no caller looks
    a walk up by name."""
    src = pathlib.Path(repro.__file__).parent
    texts = {p.relative_to(src).as_posix(): p.read_text()
             for p in src.rglob("*.py")}
    for name, reference in (("search_route", "search_route"),
                            ("descend_to_class", "descend_to_class"),
                            ("locate", "locate_generic")):
        methods = [path for path, text in texts.items()
                   for _ in re.findall(rf"\n    def {name}\(self,", text)]
        functions = [path for path, text in texts.items()
                     for _ in re.findall(rf"\ndef {reference}\(tree,", text)]
        assert methods == ["core/frozen.py"], (name, methods)
        assert functions == ["core/point_query.py"], (name, functions)
    for path, text in texts.items():
        assert not re.search(
            r"def _(search_route|descend_to_class|locate|point_query)\(",
            text), path
        assert not re.search(r"getattr\(tree,\s*[\"']_", text), path


@pytest.mark.parametrize("kind", ("fresh", "bytes", "mmap"))
def test_attach_decodes_nothing_per_node(kind, tmp_path):
    """A fresh freeze and an attach leave the nodes coded: no routing
    dict, upper bound or value exists until a query visits the node —
    and then only for the nodes on the walk.  States are not decoded at
    all: a compile holds its exact list, an attach holds none."""
    with open_storage(kind, 3, tmp_path) as (table, _, array):
        assert all(route is None for route in array._routes)
        assert all(ub is None for ub in array._ubs)
        assert all(value is _UNSET for value in array._value)
        assert (array.state is None) == (kind != "fresh")
        counter = [0]
        array.locate((ALL,) * table.n_dims, counter=counter)
        built = sum(route is not None for route in array._routes)
        assert built <= counter[0] < array.n_nodes
