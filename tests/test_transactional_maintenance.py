"""Transactional maintenance: failed batches leave no trace.

``apply_insertions`` / ``apply_deletions`` must either complete or leave
the tree (and the caller's table) observably unchanged — same point-query
answers, same structure, invariants intact — raising
:class:`MaintenanceError` for anything that is not a repro error already.
"""

import functools
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.construct import build_qctree
from repro.core.maintenance import maintain_batch
from repro.core.maintenance import apply_deletions
from repro.core.maintenance import apply_insertions
from repro.core.point_query import point_query
from repro.core.qctree import QCTree
from repro.core.warehouse import QCWarehouse
from repro.cube.schema import Schema
from repro.errors import MaintenanceError, SchemaError
from repro.reliability.transactional import transactional
from tests.conftest import all_cells, patch_with
from tests.model import make_program, record, run_batched


SCHEMA = Schema(dimensions=("Store", "Product", "Season"),
                measures=("Sale",))
RECORDS = [
    ("S1", "P1", "s", 6.0),
    ("S1", "P2", "s", 12.0),
    ("S2", "P1", "f", 9.0),
]


def snapshot_answers(tree, table):
    return {cell: point_query(tree, cell) for cell in all_cells(table)}


def assert_unchanged(tree, table, before):
    tree.check_invariants()
    after = snapshot_answers(tree, table)
    assert before.keys() == after.keys()
    for cell in before:
        assert before[cell] == after[cell], cell


@pytest.fixture
def wh():
    return QCWarehouse.from_records(RECORDS, SCHEMA, aggregate=("avg", "Sale"))


class TestRefusedBatches:
    """Batches rejected by validation: the error fires before (or rolls
    back) any mutation."""

    def test_delete_absent_tuple(self, wh):
        before = snapshot_answers(wh.tree, wh.table)
        signature = wh.tree.signature()
        with pytest.raises(MaintenanceError, match="not present"):
            wh.delete([("S1", "P1", "f", 0.0)])  # labels exist, row doesn't
        assert wh.tree.signature() == signature
        assert wh.table.n_rows == 3
        assert_unchanged(wh.tree, wh.table, before)

    def test_delete_unknown_label(self, wh):
        before = snapshot_answers(wh.tree, wh.table)
        with pytest.raises(MaintenanceError, match="cannot delete"):
            wh.delete([("S9", "P1", "s", 0.0)])
        assert_unchanged(wh.tree, wh.table, before)

    def test_delete_partial_batch_rolls_back_entirely(self, wh):
        # First record is deletable, second is not: neither may apply.
        before = snapshot_answers(wh.tree, wh.table)
        with pytest.raises(MaintenanceError):
            wh.delete([("S1", "P1", "s", 0.0), ("S2", "P2", "w", 0.0)])
        assert wh.table.n_rows == 3
        assert_unchanged(wh.tree, wh.table, before)

    def test_insert_bad_arity(self, wh, head_path):
        before = snapshot_answers(wh.tree, wh.table)
        with pytest.raises(MaintenanceError, match="cannot insert"):
            wh.insert([("S3", "P1", 5.0)])  # missing a dimension
        assert wh.table.n_rows == 3
        assert_unchanged(wh.tree, wh.table, before)

    @pytest.mark.parametrize("measure", [float("inf"), float("-inf"),
                                         float("nan")])
    def test_non_finite_insert_is_refused(self, measure, tmp_path):
        """An exact state holds finite numbers only: the warehouse
        refuses the row, naming it and its measure, before the WAL
        append (stored as a float, an inf sat in every ancestor class,
        and deleting it again left nan there, inf - inf, for good)."""
        schema = Schema(dimensions=("D1", "D2"), measures=("M",))
        wh = QCWarehouse.from_records(
            [("a", "x", 0.1), ("a", "z", 0.2), ("b", "x", 0.5)], schema,
            aggregate=("sum", "M"))
        wal = wh.attach_wal(tmp_path / "wh.wal")
        cells = [("a", "*"), ("*", "*"), ("a", "x"), ("*", "x")]
        before = [wh.point(cell) for cell in cells]
        with pytest.raises(SchemaError,
                           match=r"\('a', 'y', .*\) has the non-finite "
                                 r"measure 'M'"):
            wh.insert([("a", "y", measure)])
        assert wal.last_lsn == 0
        assert [wh.point(cell) for cell in cells] == before
        assert wh.table.n_rows == 3
        wh.tree.check_invariants()

    def test_non_finite_modify_is_refused(self, tmp_path):
        """A modification's insert half is checked like an insert: the
        whole batch is refused before the WAL append."""
        schema = Schema(dimensions=("D1", "D2"), measures=("M",))
        wh = QCWarehouse.from_records(
            [("a", "x", 0.1), ("a", "z", 0.2), ("b", "x", 0.5)], schema,
            aggregate=("avg", "M"))
        wal = wh.attach_wal(tmp_path / "wh.wal")
        before = wh.tree.signature()
        with pytest.raises(SchemaError, match="non-finite measure 'M'"):
            wh.modify([("a", "x", 0.1)], [("a", "x", float("nan"))])
        assert wal.last_lsn == 0
        assert wh.tree.signature() == before
        assert wh.table.n_rows == 3

    def test_queries_keep_working_after_refusal(self, wh):
        with pytest.raises(MaintenanceError):
            wh.delete([("S1", "P1", "f", 0.0)])
        assert wh.point(("S2", "*", "f")) == 9.0
        assert wh.range((["S1", "S2"], "*", "*"))
        # And the warehouse still verifies clean.
        assert wh.verify().ok


class _FailAfter:
    """Wrap a method so its (n+1)-th call raises RuntimeError."""

    def __init__(self, method, n):
        self.method = method
        self.remaining = n

    def __call__(self, *args, **kwargs):
        if self.remaining == 0:
            raise RuntimeError("injected mid-mutation failure")
        self.remaining -= 1
        return self.method(*args, **kwargs)

    def __get__(self, instance, owner):
        # Bind like the function it stands in for, so calls before the
        # failure point reach the real method with ``self``.
        return self if instance is None else functools.partial(self, instance)


@contextmanager
def failing_at(method_name, n):
    """``QCTree.<method_name>`` raises on its (n+1)-th call in the block."""
    original = getattr(QCTree, method_name)
    setattr(QCTree, method_name, _FailAfter(original, n))
    try:
        yield
    finally:
        setattr(QCTree, method_name, original)


def count_calls(method_name, operation, tree):
    calls = 0
    original = getattr(QCTree, method_name)

    def counting(self, *args, **kwargs):
        nonlocal calls
        calls += 1
        return original(self, *args, **kwargs)

    setattr(QCTree, method_name, counting)
    try:
        operation(tree)
    finally:
        setattr(QCTree, method_name, original)
    return calls


class TestMidMutationFailure:
    """A failure inside the batch algorithms (simulated via a tree
    primitive that starts raising) must roll back to the exact prior
    state — at every possible failure point."""

    def _sweep(self, make_tree, table_of, operation, method_name="set_state"):
        total = count_calls(method_name, operation, make_tree())
        assert total > 0
        for n in range(total):
            tree = make_tree()
            before = snapshot_answers(tree, table_of(tree))
            signature = tree.signature()
            with failing_at(method_name, n), \
                    pytest.raises(MaintenanceError, match="rolled back"):
                operation(tree)
            assert tree.signature() == signature, f"failure point {n}"
            assert_unchanged(tree, table_of(tree), before)

    def test_insert_rolls_back_at_every_failure_point(self, sales_table):
        new_records = [("S3", "P1", "w", 2.0), ("S2", "P2", "f", 4.0)]

        def make_tree():
            return build_qctree(sales_table, ("avg", "Sale"))

        self._sweep(
            make_tree,
            lambda tree: sales_table,
            lambda tree: apply_insertions(tree, sales_table, new_records),
        )

    def test_delete_rolls_back_at_every_failure_point(self, sales_table):
        def make_tree():
            return build_qctree(sales_table, ("avg", "Sale"))

        self._sweep(
            make_tree,
            lambda tree: sales_table,
            lambda tree: apply_deletions(
                tree, sales_table, [("S1", "P2", "s", 0.0)]
            ),
        )

    def test_failure_is_wrapped_with_cause(self, sales_table):
        tree = build_qctree(sales_table, "count")
        original = QCTree.set_state
        QCTree.set_state = _FailAfter(
            lambda *a, **k: original(*a, **k), 0
        )
        try:
            with pytest.raises(MaintenanceError) as exc_info:
                apply_insertions(tree, sales_table, [("S3", "P3", "w", 1.0)])
        finally:
            QCTree.set_state = original
        assert isinstance(exc_info.value.__cause__, RuntimeError)


#: The only writers of the tree's six parallel lists.
PRIMITIVES = ("_new_node", "insert_path", "add_link", "remove_link",
              "set_state", "clear_state_and_prune")
AGG = ("sum", "m")


def lists_of(tree):
    """What "never happened" is equality of: the six parallel lists and
    the free set (the signature follows from them)."""
    return (tree.node_dim, tree.node_value, tree.parent, tree.children,
            tree.links, tree.state, tree._free_ids)


def sweep_batch(tree, table, inserts=(), deletes=()):
    """Fail the batch at every call of every primitive — on ONE tree, so
    a rollback that drifts shows at a later point — then let it through.
    Returns the successful batch's result."""
    def run(target):
        return maintain_batch(target, table, inserts=inserts, deletes=deletes)

    pristine = tree.copy()
    swept = 0
    for name in PRIMITIVES:
        total = count_calls(name, run, tree.copy())
        for n in range(total):
            with failing_at(name, n), \
                    pytest.raises(MaintenanceError, match="rolled back"):
                run(tree)
            assert lists_of(tree) == lists_of(pristine), (name, n)
            assert tree._delta is None
            tree.check_invariants()
        swept += total
    assert swept > 0
    result = run(tree)
    assert tree.equivalent_to(build_qctree(result.table, AGG))
    return result


class TestRollbackIsNeverHappened:
    """The undo journal, enumerated: every primitive × every call index
    of insert, delete and mixed batches."""

    @given(st.integers(0, 10**6), st.integers(1, 4))
    @settings(max_examples=20, deadline=None)
    def test_every_primitive_at_every_call_index(self, seed, n_batches):
        table, batches, _ = make_program(seed, n_batches)
        *earlier, (inserts, deletes) = batches
        # Earlier batches prune, so the swept one also reuses freed ids.
        tree, table = run_batched(table, earlier)
        for ins, dels in ((inserts, []), ([], deletes), (inserts, deletes)):
            if ins or dels:
                sweep_batch(tree.copy(), table, ins, dels)

    def test_id_reuse_after_a_prune(self):
        """A created node that reused a pruned id goes back to the free
        set holding what the slot held; one pruned *and* reused inside
        the failing batch comes back alive."""
        table, _, _ = make_program(0, 0, n_rows=6)
        tree = build_qctree(table, AGG)
        victim = next(table.iter_records())
        tree_after, table_after = run_batched(table, [([], [victim])])
        freed = set(tree_after._free_ids)
        assert freed, "the delete pruned nothing"
        fresh = [record((4, 4, 4))]
        result = sweep_batch(tree_after, table_after, inserts=fresh)
        assert freed & result.delta.created, "no freed id was reused"
        slots = len(tree.node_dim)
        result = sweep_batch(tree, table, inserts=fresh, deletes=[victim])
        assert len(tree.node_dim) - slots < len(result.delta.created)

    def test_guards_nest(self, sales_table):
        """An outer rollback undoes inner guards that completed."""
        tree = build_qctree(sales_table, ("avg", "Sale"))
        pristine = tree.copy()
        with transactional(tree) as rollback:
            mid = apply_insertions(tree, sales_table,
                                   [("S3", "P1", "w", 2.0)])
            inserted = tree.copy()
            with pytest.raises(MaintenanceError):
                apply_deletions(tree, mid, [("S9", "P9", "w", 0.0)])
            with failing_at("add_link", 0), \
                    pytest.raises(MaintenanceError, match="rolled back"):
                apply_insertions(tree, mid, [("S2", "P2", "f", 4.0)])
            # The inner failure undid itself only.
            assert lists_of(tree) == lists_of(inserted)
            rollback()
        assert lists_of(tree) == lists_of(pristine)
        assert tree._delta is None

    def test_failed_batch_under_an_outer_recording_still_patches(self):
        """The dirty set a rolled-back batch leaves in an outer recorder
        is a harmless superset — minus the ids the rollback took off the
        end of the lists, which name nothing."""
        table, _, _ = make_program(3, 0, n_rows=8)
        tree = build_qctree(table, AGG)
        frozen = tree.freeze()
        fresh = [record((3, 4, 3)), record((4, 3, 4))]

        def run(target):
            return maintain_batch(target, table, inserts=fresh)

        assert count_calls("_new_node", run, tree.copy()) > 0
        last = count_calls("set_state", run, tree.copy()) - 1
        delta = tree.begin_delta()
        with failing_at("set_state", last), \
                pytest.raises(MaintenanceError, match="rolled back"):
            run(tree)
        assert tree._delta is delta and delta.journal is None
        assert delta.dirty and max(delta.dirty) < len(tree.node_dim)
        run(tree)
        tree.end_delta()
        patched = patch_with(frozen, delta, full=1.0, compact=10.0)
        assert patched.patch_stats["mode"] == "patched"
        assert patched.signature() == tree.freeze().signature()


class TestNonSubtractableAggregate:
    """MIN/MAX deletion recomputes states from the base table; a failure
    in that recomputation must roll back like any other."""

    def test_min_delete_succeeds_normally(self, sales_table):
        tree = build_qctree(sales_table, ("min", "Sale"))
        assert not tree.aggregate.subtractable
        new_table = apply_deletions(tree, sales_table,
                                    [("S1", "P2", "s", 0.0)])
        assert tree.equivalent_to(build_qctree(new_table, ("min", "Sale")))

    def test_failing_recompute_rolls_back(self, sales_table):
        tree = build_qctree(sales_table, ("min", "Sale"))
        before = snapshot_answers(tree, sales_table)
        signature = tree.signature()
        agg = tree.aggregate
        original_state = agg.state
        calls = {"n": 0}

        def flaky_state(table, rows):
            calls["n"] += 1
            raise RuntimeError("aggregate backend failure")

        agg.state = flaky_state
        try:
            with pytest.raises(MaintenanceError, match="rolled back"):
                apply_deletions(tree, sales_table, [("S1", "P2", "s", 0.0)])
        finally:
            agg.state = original_state
        assert calls["n"] > 0  # the failure really came from the aggregate
        assert tree.signature() == signature
        assert_unchanged(tree, sales_table, before)
