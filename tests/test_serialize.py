"""Tests for QC-tree persistence, including corruption handling."""

import json

import pytest

from repro.core.construct import build_qctree
from repro.core.point_query import point_query
from repro.core.serialize import (
    dumps_qctree,
    load_qctree_from,
    loads_qctree,
    save_qctree,
)
from repro.errors import SerializationError
from tests.conftest import all_cells, approx_equal, make_random_table


class TestRoundTrip:
    @pytest.mark.parametrize("seed", range(10))
    def test_structure_preserved(self, seed):
        tree = build_qctree(make_random_table(seed), ("sum", "m"))
        clone = loads_qctree(dumps_qctree(tree))
        assert clone.signature() == tree.signature()
        assert clone.equivalent_to(tree)

    @pytest.mark.parametrize("seed", range(5))
    def test_queries_survive_roundtrip(self, seed):
        table = make_random_table(seed)
        tree = build_qctree(table, ("sum", "m"))
        clone = loads_qctree(dumps_qctree(tree))
        for cell in all_cells(table):
            assert approx_equal(point_query(tree, cell),
                                point_query(clone, cell))

    def test_metadata_preserved(self, sales_table):
        tree = build_qctree(sales_table, ("avg", "Sale"))
        clone = loads_qctree(dumps_qctree(tree))
        assert clone.n_dims == 3
        assert clone.dim_names == ("Store", "Product", "Season")
        assert clone.aggregate.name == "avg(Sale)"

    def test_multi_aggregate_roundtrip(self, sales_table):
        tree = build_qctree(sales_table, [("sum", "Sale"), "count"])
        clone = loads_qctree(dumps_qctree(tree))
        assert clone.equivalent_to(tree)
        assert clone.aggregate.name == tree.aggregate.name

    def test_file_roundtrip(self, sales_table, tmp_path):
        tree = build_qctree(sales_table, ("avg", "Sale"))
        path = tmp_path / "tree.qct"
        save_qctree(tree, path)
        assert load_qctree_from(path).equivalent_to(tree)

    def test_empty_tree_roundtrip(self):
        table = make_random_table(0, n_rows=1).without_rows([0])
        tree = build_qctree(table, "count")
        clone = loads_qctree(dumps_qctree(tree))
        assert clone.n_classes == 0 and clone.n_nodes == 1

    def test_pruned_slots_compacted(self, sales_table):
        from repro.core.maintenance import apply_insertions
        from repro.core.maintenance import apply_deletions

        tree = build_qctree(sales_table, ("avg", "Sale"))
        bigger = apply_insertions(tree, sales_table,
                                  [("S3", "P3", "w", 1.0)])
        apply_deletions(tree, bigger, [("S3", "P3", "w", 0.0)])
        clone = loads_qctree(dumps_qctree(tree))
        assert clone.equivalent_to(tree)
        assert len(clone.node_dim) == clone.n_nodes  # no freed slots on disk


class TestFailureInjection:
    def test_bad_magic(self):
        with pytest.raises(SerializationError):
            loads_qctree("NOTATREE\n{}")

    def test_truncated_payload(self, sales_table):
        text = dumps_qctree(build_qctree(sales_table, "count"))
        with pytest.raises(SerializationError):
            loads_qctree(text[: len(text) // 2])

    def test_malformed_json(self):
        with pytest.raises(SerializationError):
            loads_qctree("QCTREE/1\n{not json")

    def test_missing_keys(self):
        with pytest.raises(SerializationError):
            loads_qctree("QCTREE/1\n" + json.dumps({"n_dims": 2}))

    def test_empty_node_table(self):
        doc = {"n_dims": 2, "dim_names": ["A", "B"], "aggregate": "count",
               "nodes": [], "links": []}
        with pytest.raises(SerializationError):
            loads_qctree("QCTREE/1\n" + json.dumps(doc))

    def test_first_node_not_root(self):
        doc = {"n_dims": 2, "dim_names": ["A", "B"], "aggregate": "count",
               "nodes": [[0, 3, -1, None]], "links": []}
        with pytest.raises(SerializationError):
            loads_qctree("QCTREE/1\n" + json.dumps(doc))

    def test_dangling_parent(self):
        doc = {"n_dims": 2, "dim_names": ["A", "B"], "aggregate": "count",
               "nodes": [[-1, None, -1, None], [0, 1, 7, 1]], "links": []}
        with pytest.raises(SerializationError):
            loads_qctree("QCTREE/1\n" + json.dumps(doc))

    def test_dangling_link(self, sales_table):
        text = dumps_qctree(build_qctree(sales_table, "count"))
        magic, payload = text.split("\n", 1)
        doc = json.loads(payload)
        doc["links"].append([0, 1, 1, 99_999])
        with pytest.raises(SerializationError):
            loads_qctree(magic + "\n" + json.dumps(doc))

    def test_unknown_aggregate_spec(self):
        doc = {"n_dims": 1, "dim_names": ["A"], "aggregate": "median(x)",
               "nodes": [[-1, None, -1, None]], "links": []}
        with pytest.raises(SerializationError):
            loads_qctree("QCTREE/1\n" + json.dumps(doc))


class TestFuzzing:
    """Random corruption must raise SerializationError, never crash oddly."""

    @pytest.mark.parametrize("seed", range(20))
    def test_random_byte_flips(self, sales_table, seed):
        import random

        from repro.core.construct import build_qctree as _build

        rng = random.Random(seed)
        text = dumps_qctree(_build(sales_table, ("avg", "Sale")))
        chars = list(text)
        for _ in range(rng.randint(1, 6)):
            pos = rng.randrange(len(chars))
            chars[pos] = rng.choice('{}[]",:0123456789abcx')
        mutated = "".join(chars)
        try:
            tree = loads_qctree(mutated)
        except SerializationError:
            return  # the expected rejection path
        # Rare lucky mutations still parse; the tree must then be usable.
        tree.stats()

