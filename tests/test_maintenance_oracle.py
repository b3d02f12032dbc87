"""The differential maintenance oracle for the batched engine.

Random mutation programs — sequences of mixed insert/delete batches —
are executed three ways and must be indistinguishable:

* **batched**: one :func:`~repro.core.maintenance.maintain_batch` call
  per batch (the fast path under test);
* **sequential**: the same tuples one single-tuple maintenance call at
  a time (the paper's Algorithms 5–7 as literally written, the
  already-proven baseline);
* **rebuild**: :func:`~repro.core.construct.build_qctree` from scratch
  on the final base table (Theorem 2's ground truth).

Equality is asserted at three depths: node-for-node tree structure
(paths, links, aggregates via the order-independent signature), the
class upper-bound *sets*, and point/range/iceberg answer parity on both
the dict and the frozen serving engines.

Delete-by-key is ambiguous when two rows share dimensions but carry
different measures (either row "matches"); the generator therefore
derives every measure deterministically from its dimension values, so
duplicate rows are still exercised — as true duplicates — without the
oracle tripping over which physical copy an engine dropped first.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.construct import build_qctree
from repro.core.maintenance import (
    maintain_batch,
    apply_deletions,
    apply_insertions,
)
from repro.core.warehouse import QCWarehouse
from repro.cube.schema import Schema
from repro.cube.table import BaseTable
from tests.conftest import approx_equal, dict_view, patch_with

N_DIMS = 3
CARD = 3
FRESH = 2  # extra labels per dimension a program may mint


def _measure(dims) -> float:
    """Measure as a pure function of the key (see module docstring)."""
    return float((3 * dims[0] + 5 * dims[1] + 7 * dims[2]) % 10 + 1)


def _gen_record(rng, fresh=False):
    dims = []
    for _ in range(N_DIMS):
        if fresh and rng.random() < 0.3:
            dims.append(CARD + rng.randrange(FRESH))
        else:
            dims.append(rng.randrange(CARD))
    dims = tuple(dims)
    return dims + (_measure(dims),)


def _base_table(rng, n_rows):
    schema = Schema(
        dimensions=[f"D{j}" for j in range(N_DIMS)], measures=("m",)
    )
    rows = [
        tuple(rng.randrange(CARD) for _ in range(N_DIMS))
        for _ in range(n_rows)
    ]
    measures = [[_measure(r)] for r in rows]
    return BaseTable.from_encoded(
        rows, measures, schema, cardinalities=[CARD] * N_DIMS
    )


def make_program(seed, n_batches, n_rows=None, max_batch=5):
    """A feasible random mutation program.

    Returns ``(base_table, batches, final_records)`` where each batch is
    ``(inserts, deletes)`` — deletes always reference rows present at
    that point of the program (delete-before-insert within the batch,
    matching the engines' §3.3 ordering), and ~1 in 3 insert batches
    contains a duplicated record.
    """
    rng = random.Random(seed)
    table = _base_table(rng, rng.randint(0, 12) if n_rows is None else n_rows)
    current = list(table.iter_records())
    batches = []
    for _ in range(n_batches):
        n_del = rng.randint(0, min(3, len(current)))
        deletes = rng.sample(current, n_del) if n_del else []
        for record in deletes:
            current.remove(record)
        n_ins = rng.randint(0 if deletes else 1, max_batch)
        inserts = [
            _gen_record(rng, fresh=rng.random() < 0.4) for _ in range(n_ins)
        ]
        if inserts and rng.random() < 0.3:
            inserts.append(rng.choice(inserts))  # in-batch duplicate
        current.extend(inserts)
        batches.append((inserts, deletes))
    return table, batches, current


# -- the three executions ----------------------------------------------------


def run_batched(table, batches):
    tree = build_qctree(table, ("sum", "m"))
    for inserts, deletes in batches:
        result = maintain_batch(tree, table, inserts=inserts, deletes=deletes)
        table = result.table
    return tree, table


def run_sequential(table, batches):
    """One single-tuple maintenance call per tuple — the proven baseline."""
    tree = build_qctree(table, ("sum", "m"))
    for inserts, deletes in batches:
        for record in deletes:
            table = apply_deletions(tree, table, [record])
        for record in inserts:
            table = apply_insertions(tree, table, [record])
    return tree, table


def run_rebuild(final_records):
    schema = Schema(
        dimensions=[f"D{j}" for j in range(N_DIMS)], measures=("m",)
    )
    table = BaseTable.from_records(final_records, schema)
    return build_qctree(table, ("sum", "m")), table


# -- equality at three depths ------------------------------------------------


def decoded_signature(tree, table):
    """The tree signature with every label decoded to its raw form.

    Two engines that minted fresh labels in different orders assign them
    different internal codes; the decoded signature abstracts the
    encoding away so trees over the same *raw* data compare equal —
    node for node, link for link.
    """
    paths, links, classes = tree.signature()
    dec = table.decode_cell
    return (
        tuple(sorted((dec(c) for c in paths), key=repr)),
        tuple(sorted(
            ((dec(s), j, table.decode_value(j, v), dec(t))
             for s, j, v, t in links),
            key=repr,
        )),
        tuple(sorted(((dec(ub), val) for ub, val in classes), key=repr)),
    )


def assert_trees_equal(a, table_a, b, table_b, label):
    """Node-for-node equality: same paths, links, and class aggregates."""
    sig_a = decoded_signature(a, table_a)
    sig_b = decoded_signature(b, table_b)
    assert sig_a[0] == sig_b[0], f"{label}: path sets differ"
    assert sig_a[1] == sig_b[1], f"{label}: link sets differ"
    classes_a, classes_b = sig_a[2], sig_b[2]
    assert len(classes_a) == len(classes_b), f"{label}: class counts differ"
    assert [ub for ub, _ in classes_a] == [ub for ub, _ in classes_b], (
        f"{label}: class upper-bound sets differ"
    )
    for (ub, val_a), (_, val_b) in zip(classes_a, classes_b):
        assert approx_equal(val_a, val_b), f"{label}: value at {ub}"


def _label_universe(records):
    """Per-dimension raw label domains of the final state (plus ``*``)."""
    domains = [set() for _ in range(N_DIMS)]
    for record in records:
        for j in range(N_DIMS):
            domains[j].add(record[j])
    for j in range(N_DIMS):
        domains[j].add(CARD)  # one never-seen label (must answer None)
    return [sorted(d) for d in domains]


def _raw_cells(domains):
    out = [()]
    for labels in domains:
        out = [cell + (v,) for cell in out for v in ["*"] + labels]
    return out


def assert_answers_equal(wh_a, wh_b, records, label, rng):
    """Point / range / iceberg parity between two warehouses."""
    domains = _label_universe(records)
    for cell in _raw_cells(domains):
        assert approx_equal(wh_a.point(cell), wh_b.point(cell)), (
            f"{label}: point({cell!r})"
        )
    for _ in range(3):
        spec = tuple(
            "*" if rng.random() < 0.4
            else rng.sample(d, min(len(d), 2))
            for d in domains
        )
        assert wh_a.range(spec) == wh_b.range(spec), f"{label}: range({spec!r})"
    for threshold in (1.0, 5.0, 20.0):
        assert Counter(wh_a.iceberg(threshold)) == \
            Counter(wh_b.iceberg(threshold)), f"{label}: iceberg({threshold})"


def _warehouse(tree, table, frozen):
    """The pair behind a warehouse (frozen serving) or answered straight
    from its dict tree."""
    wh = QCWarehouse(table, ("sum", "m"), tree=tree, cache_size=0)
    return wh if frozen else dict_view(wh)


def check_program(seed, n_batches, n_rows=None, max_batch=5):
    """The full three-way differential check for one program."""
    table, batches, final_records = make_program(
        seed, n_batches, n_rows=n_rows, max_batch=max_batch
    )
    batched_tree, batched_table = run_batched(table, batches)
    seq_tree, seq_table = run_sequential(table, batches)
    rebuilt_tree, rebuilt_table = run_rebuild(final_records)

    assert sorted(batched_table.iter_records()) == sorted(final_records)
    assert sorted(seq_table.iter_records()) == sorted(final_records)

    # Theorem 2 exactly: the batched tree is *identical* (same internal
    # encoding, exact signature) to a from-scratch build of its own
    # final table.
    assert batched_tree.signature() == \
        build_qctree(batched_table, ("sum", "m")).signature()

    assert_trees_equal(batched_tree, batched_table, seq_tree, seq_table,
                       "batched vs sequential")
    assert_trees_equal(batched_tree, batched_table, rebuilt_tree,
                       rebuilt_table, "batched vs rebuild")

    rng = random.Random(seed ^ 0xBEEF)
    for frozen in (False, True):
        engine = "frozen" if frozen else "dict"
        assert_answers_equal(
            _warehouse(batched_tree, batched_table, frozen),
            _warehouse(seq_tree, seq_table, frozen),
            final_records, f"batched vs sequential [{engine}]", rng,
        )
        assert_answers_equal(
            _warehouse(batched_tree, batched_table, frozen),
            _warehouse(rebuilt_tree, rebuilt_table, frozen),
            final_records, f"batched vs rebuild [{engine}]", rng,
        )


# -- the oracle --------------------------------------------------------------


class TestDifferentialOracle:
    @settings(max_examples=30)
    @given(seed=st.integers(0, 10_000), n_batches=st.integers(1, 5))
    def test_random_programs(self, seed, n_batches):
        check_program(seed, n_batches)

    @settings(max_examples=10)
    @given(seed=st.integers(0, 10_000))
    def test_large_batches_small_table(self, seed):
        """Batches larger than the table itself."""
        check_program(seed, n_batches=2, n_rows=3, max_batch=10)

    @pytest.mark.parametrize("seed", range(8))
    def test_pinned_programs(self, seed):
        """A deterministic corpus that always runs, hypothesis aside."""
        check_program(seed, n_batches=4)


class TestBatchEdgeCases:
    def _table(self, seed, n_rows=10):
        rng = random.Random(seed)
        table = _base_table(rng, n_rows)
        return table, build_qctree(table, ("sum", "m")), rng

    def test_empty_batch_is_noop(self):
        table, tree, _ = self._table(0)
        before = tree.signature()
        result = maintain_batch(tree, table)
        assert result.stats["noop"]
        assert result.table is table
        assert len(result.delta) == 0
        assert tree.signature() == before

    def test_duplicate_insert_batch(self):
        """k copies of one tuple in a batch contribute k times (multiset)."""
        table, tree, rng = self._table(1)
        record = _gen_record(rng)
        result = maintain_batch(tree, table, inserts=[record] * 3)
        rebuilt, rebuilt_table = run_rebuild(
            list(table.iter_records()) + [record] * 3
        )
        assert_trees_equal(tree, result.table, rebuilt, rebuilt_table,
                           "triple insert vs rebuild")
        assert result.stats["inserted"] == 3

    def test_duplicate_delete_batch(self):
        """Deleting k copies needs k matching rows, consumed exactly."""
        table, tree, rng = self._table(2)
        record = _gen_record(rng)
        table = maintain_batch(tree, table, inserts=[record] * 2).table
        table = maintain_batch(tree, table, deletes=[record] * 2).table
        rebuilt, rebuilt_table = run_rebuild(list(table.iter_records()))
        assert_trees_equal(tree, table, rebuilt, rebuilt_table,
                           "double delete vs rebuild")

    def test_modification_batch(self):
        """A record in both lists is removed then re-added (§3.3)."""
        table, tree, _ = self._table(3)
        victim = list(table.iter_records())[0]
        replacement = (9, 9, 9, _measure((9, 9, 9)))
        result = maintain_batch(
            tree, table, inserts=[replacement], deletes=[victim]
        )
        final = list(table.iter_records())
        final.remove(victim)
        final.append(replacement)
        rebuilt, rebuilt_table = run_rebuild(final)
        assert_trees_equal(tree, result.table, rebuilt, rebuilt_table,
                           "modification vs rebuild")
        assert result.stats["inserted"] == result.stats["deleted"] == 1

    def test_self_cancelling_batch(self):
        """Delete X + insert X in one batch must round-trip exactly."""
        table, tree, _ = self._table(4)
        before = tree.signature()
        victim = list(table.iter_records())[0]
        result = maintain_batch(tree, table, inserts=[victim],
                                deletes=[victim])
        assert tree.signature() == before
        assert sorted(result.table.iter_records()) == \
            sorted(table.iter_records())

    def test_delete_everything_batch(self):
        table, tree, _ = self._table(5, n_rows=6)
        result = maintain_batch(
            tree, table, deletes=list(table.iter_records())
        )
        assert result.table.n_rows == 0
        assert tree.n_classes == 0

    def test_bad_delete_fails_whole_batch(self):
        """One unmatched delete rolls back the entire mixed batch."""
        from repro.errors import MaintenanceError

        table, tree, rng = self._table(6)
        before = tree.signature()
        with pytest.raises(MaintenanceError):
            maintain_batch(
                tree, table,
                inserts=[_gen_record(rng)],
                deletes=[(99, 99, 99, 1.0)],
            )
        assert tree.signature() == before

    def test_one_merged_delta_per_batch(self):
        """A mixed batch records exactly one delta, patchable in one go."""
        table, tree, rng = self._table(7)
        frozen = tree.freeze()
        deletes = [list(table.iter_records())[0]]
        inserts = [_gen_record(rng, fresh=True) for _ in range(4)]
        result = maintain_batch(tree, table, inserts=inserts, deletes=deletes)
        patched = patch_with(frozen, result.delta, full=1.0)
        assert patched.signature() == tree.freeze().signature()

    def test_insert_order_independence(self):
        """The batch sort is semantics-free: any input order, same tree."""
        table, tree_a, rng = self._table(8)
        inserts = [_gen_record(rng, fresh=True) for _ in range(6)]
        tree_b = build_qctree(table, ("sum", "m"))
        shuffled = list(inserts)
        rng.shuffle(shuffled)
        maintain_batch(tree_a, table, inserts=inserts)
        maintain_batch(tree_b, table, inserts=shuffled)
        assert tree_a.signature() == tree_b.signature()
