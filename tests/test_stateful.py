"""Stateful property testing: a warehouse driven by random operation
sequences must stay indistinguishable from a freshly rebuilt one.

Hypothesis generates interleavings of inserts, deletes, and queries; after
every mutation the maintained QC-tree must be structurally identical to a
from-scratch rebuild (Theorem 2, both directions, under arbitrary
histories), and point queries must match the brute-force oracle.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core.construct import build_qctree
from repro.core.maintenance import apply_deletions
from repro.core.maintenance import apply_insertions
from repro.core.point_query import point_query
from repro.cube.lattice import cell_aggregate
from repro.cube.schema import Schema
from repro.cube.table import BaseTable
from tests.conftest import approx_equal

N_DIMS = 3
CARD = 3

record_strategy = st.tuples(
    st.integers(0, CARD - 1),
    st.integers(0, CARD - 1),
    st.integers(0, CARD - 1),
    st.integers(0, 9),
).map(lambda t: (t[0], t[1], t[2], float(t[3])))

cell_strategy = st.tuples(
    st.one_of(st.none(), st.integers(0, CARD - 1)),
    st.one_of(st.none(), st.integers(0, CARD - 1)),
    st.one_of(st.none(), st.integers(0, CARD - 1)),
)


class WarehouseMachine(RuleBasedStateMachine):
    @initialize(records=st.lists(record_strategy, max_size=6))
    def setup(self, records):
        schema = Schema(
            dimensions=[f"D{j}" for j in range(N_DIMS)], measures=("m",)
        )
        self.table = (
            BaseTable.from_records(records, schema)
            if records
            else BaseTable.from_encoded([], [], schema,
                                        cardinalities=[CARD] * N_DIMS)
        )
        self.tree = build_qctree(self.table, ("sum", "m"))
        self.mutations = 0

    @rule(records=st.lists(record_strategy, min_size=1, max_size=4))
    def insert(self, records):
        self.table = apply_insertions(self.tree, self.table, records)
        self.mutations += 1

    @precondition(lambda self: self.table.n_rows > 0)
    @rule(data=st.data())
    def delete(self, data):
        records = list(self.table.iter_records())
        k = data.draw(
            st.integers(1, min(3, len(records))), label="delete count"
        )
        victims = data.draw(
            st.lists(st.sampled_from(records), min_size=k, max_size=k),
        )
        # sampled_from may repeat a record more often than it exists; keep
        # the multiset feasible.
        from collections import Counter

        available = Counter(records)
        feasible = []
        for victim in victims:
            if available[victim] > 0:
                available[victim] -= 1
                feasible.append(victim)
        if not feasible:
            return
        self.table = apply_deletions(self.tree, self.table, feasible)
        self.mutations += 1

    @rule(cell=cell_strategy)
    def query_matches_oracle(self, cell):
        got = point_query(self.tree, cell)
        want = cell_aggregate(self.table, ("sum", "m"), cell)
        assert approx_equal(got, want), (cell, got, want)

    @invariant()
    def tree_equals_rebuild(self):
        if not hasattr(self, "table"):
            return
        rebuilt = build_qctree(self.table, ("sum", "m"))
        assert self.tree.signature()[0] == rebuilt.signature()[0], "paths"
        assert self.tree.signature()[1] == rebuilt.signature()[1], "links"
        assert self.tree.equivalent_to(rebuilt), "classes"

    @invariant()
    def tree_is_well_formed(self):
        if hasattr(self, "tree"):
            self.tree.check_invariants()


WarehouseMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=12, deadline=None
)

TestWarehouseStateful = WarehouseMachine.TestCase
