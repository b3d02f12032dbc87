"""The Δ-restricted walk under Algorithms 5–7, and what is read off it.

:meth:`QCTree.walk_generalizing` is the one place the maintenance engine
says "the part of the tree a batch can touch".  It is checked here
against the definitions it replaces — a filter over *every* node, the
whole-tree link scan that ``batch_insert`` step 3a and ``batch_delete``
(a) used to run, and the ``{target: links}`` map the prune's safety
check used to be given (both kept below as the oracles) — on trees
that have already been through random maintenance programs, so freed
node ids and re-linked nodes are in play.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cells import ALL, covers, generalizes
from repro.core.maintenance import maintain_batch
from repro.core.qctree import QCTree
from repro.cube.cover_index import CoverIndex
from tests.test_maintenance_oracle import (
    CARD, FRESH, N_DIMS, make_program, run_batched,
)

#: Codes a program's tree can hold, and ``*`` (bounds, not only rows).
cell_strategy = st.tuples(
    *[st.sampled_from([ALL] + list(range(CARD + FRESH)))] * N_DIMS
)
program_strategy = st.tuples(st.integers(0, 10**6), st.integers(0, 4))


def maintained(program):
    """``(tree, table)`` after a random mutation program."""
    seed, n_batches = program
    table, batches, _ = make_program(seed, n_batches)
    return run_batched(table, batches)


def stale_links_by_scan(tree, rows) -> set:
    """The whole-tree definition: a link is stale iff its drill-down
    cell covers a Δ row."""
    stale = set()
    for src, j, v, _ in tree.iter_links():
        drill = tree.upper_bound_of(src)
        drill = drill[:j] + (v,) + drill[j + 1:]
        if any(covers(drill, row) for row in rows):
            stale.add((src, j, v))
    return stale


def link_targets_by_scan(tree) -> set:
    """The whole-tree definition: every node some link points at."""
    return {target for _, _, _, target in tree.iter_links()}


class TestWalkGeneralizing:
    @given(program_strategy, st.lists(cell_strategy, max_size=6))
    @settings(max_examples=150, deadline=None)
    def test_visits_exactly_the_generalizing_nodes(self, program, cells):
        tree, table = maintained(program)
        cells = cells + table.rows[:3]
        visited = list(tree.walk_generalizing(cells))
        nodes = [node for node, _ in visited]
        assert len(set(nodes)) == len(nodes), "a node came twice"
        assert set(nodes) == {
            node for node in tree.iter_nodes()
            if any(generalizes(tree.upper_bound_of(node), c) for c in cells)
        }
        seen = set()
        for node, subset in visited:
            path = tree.upper_bound_of(node)
            assert subset == [c for c in cells if generalizes(path, c)]
            assert node == tree.root or tree.parent[node] in seen  # preorder
            seen.add(node)
        assert list(tree.classes_generalizing(cells)) == [
            (tree.upper_bound_of(node), node)
            for node in nodes if tree.state[node] is not None
        ]

    def test_no_cells_visit_nothing(self):
        tree, _ = maintained((7, 2))
        assert list(tree.walk_generalizing([])) == []


class TestStaleLinks:
    @given(program_strategy, st.lists(cell_strategy.filter(
        lambda cell: ALL not in cell), max_size=5))
    @settings(max_examples=150, deadline=None)
    def test_equal_the_whole_tree_scan(self, program, rows):
        tree, table = maintained(program)
        rows = rows + table.rows[:3]
        found = tree.links_covering(rows)
        assert len(set(found)) == len(found)
        assert set(found) == stale_links_by_scan(tree, rows)


class TestIncomingLinks:
    @given(program_strategy)
    @settings(max_examples=150, deadline=None)
    def test_equal_the_whole_tree_scan(self, program):
        tree, _ = maintained(program)
        linked = link_targets_by_scan(tree)
        for node in tree.iter_nodes():
            assert tree.has_incoming_link(node) == (node in linked), node


class TestNoWholeTreePass:
    """Structural, no wall clock: a one-row batch does not enumerate the
    links of the tree (it did once per insert and twice per delete)."""

    def count_link_scans(self, monkeypatch) -> list:
        calls = []
        scan = QCTree.iter_links

        def counted(tree):
            calls.append(tree)
            return scan(tree)

        monkeypatch.setattr(QCTree, "iter_links", counted)
        return calls

    def test_one_inserted_row(self, monkeypatch):
        tree, table = maintained((11, 3))
        calls = self.count_link_scans(monkeypatch)
        maintain_batch(tree, table, inserts=[(0, 1, CARD, 1.0)])
        assert len(calls) == 0

    def test_one_deleted_row(self, monkeypatch):
        tree, table = maintained((11, 3))
        calls = self.count_link_scans(monkeypatch)
        maintain_batch(tree, table, deletes=[next(table.iter_records())])
        assert len(calls) == 0


class TestCoverIndexMemoIsPerPatch:
    ROWS = [(0, 0, 0), (0, 1, 1), (1, 1, 1), (2, 2, 2)]
    CELLS = [(ALL, ALL, ALL), (0, ALL, ALL), (ALL, 1, 1), (2, 2, ALL),
             (1, ALL, 1), (3, ALL, ALL)]

    def assert_fresh_after(self, patch, model_rows):
        index = CoverIndex(rows=self.ROWS, n_dims=3)
        for cell in self.CELLS:   # warm: (2, 2, *) shares no posting
            index.closure_and_rows(cell)
        patch(index)
        assert index._rows_cache == {} and index._closure_cache == {}
        fresh = CoverIndex(rows=model_rows, n_dims=3)
        for cell in self.CELLS:
            assert index.positions(cell) == fresh.rows(cell), cell
            assert index.closure(cell) == fresh.closure(cell), cell

    def test_apply_inserts_clears_the_memo(self):
        self.assert_fresh_after(
            lambda index: index.apply_inserts([(0, 1, 3)]),
            self.ROWS + [(0, 1, 3)],
        )

    def test_apply_deletes_clears_the_memo(self):
        self.assert_fresh_after(
            lambda index: index.apply_deletes([1]),
            self.ROWS[:1] + self.ROWS[2:],
        )
