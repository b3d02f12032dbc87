"""Metamorphic relations of the cube algebra at benchmark scale.

The reference model and the brute-force lattice reach toy tables only.
These relations need no lattice, so they run on the benchmark's own
table, ``zipf_table(20000, 6, 30, seed=1)`` with float measures uniform
on [0, 100), built through :mod:`repro.data` alone.  Every check is
``==``: aggregate states are exact, so no relation needs a tolerance.

* **Theorem 2 at scale** — after each 32-row insert and each 32-row
  delete, the maintained store (its dict tree, its patched frozen view
  and that view packed and attached) has a fresh build's canonical form
  (``signature()``, :func:`repro.shard.pack.canonical_bytes`); so do
  the store after the benchmark's own write laps (one row inserted,
  then deleted), every piece of a segmented store across a seal, a
  delete and a compaction, and the snapshot a one-process
  :class:`ShardServer` publishes, whose ``map_query`` answers are the
  fresh build's.
* **Distribution** — the table split at random into pieces built
  independently: each class's state is the merge of the pieces' states
  of its upper bound.
* **Roll-up** — ``point(c[j:=*])`` against dimension ``j``'s domain:
  for COUNT it is the sum of the range query's answers; for SUM it is
  the value of the merged states of the cells ``c[j:=v]`` (the sum of
  their rounded values is not the rounded sum).
* **Containment** — T ⊆ T′ ⇒ COUNT_T(c) ≤ COUNT_T′(c) over the workload
  cells, for a subset built on its own and for a store a delete batch
  shrank; iceberg answers shrink as the threshold rises.
* **Theorem 1** — the rows permuted give the same ``QCTREE/3`` blob:
  the meta block and every tree section are byte for byte the same,
  and the table sections hold the permuted rows.

The COUNT store and the SUM tree of the whole table are built once and
shared.
"""

from __future__ import annotations

import random
from functools import reduce

import numpy as np
import pytest

from repro.core.cells import ALL
from repro.core.construct import build_frozen
from repro.core.frozen import BUFFER_SECTIONS
from repro.core.iceberg import MeasureIndex, pure_iceberg
from repro.core.warehouse import QCWarehouse
from repro.cube.aggregates import make_aggregate
from repro.cube.table import BaseTable
from repro.data.synthetic import zipf_table
from repro.data.workloads import point_query_workload
from repro.segments import SegmentedWarehouse
from repro.shard import (
    ShardServer,
    Signature,
    attach_packed,
    pack_snapshot_bytes,
)

SUM = ("sum", "M0")
#: Insert + delete laps of the Theorem 2 relation.
LAPS = 3
BATCH = 32


@pytest.fixture(scope="module")
def table():
    return zipf_table(20_000, 6, 30, seed=1)


@pytest.fixture(scope="module")
def counts(table):
    """The whole table's COUNT store; no test writes to it."""
    return QCWarehouse(table, "count")


@pytest.fixture(scope="module")
def sums(table):
    """The whole table's SUM tree."""
    return build_frozen(table, SUM)


@pytest.fixture(scope="module")
def cells(table):
    """The workload's point cells, as labels."""
    return [table.decode_cell(cell)
            for cell in point_query_workload(table, 400, seed=5)]


def _same_as_a_fresh_build(tree, table, step):
    """``tree``'s canonical form equals a fresh build's of ``table``
    (Theorems 1 and 2); a failure names the first differing row."""
    got, want = tree.signature(), build_frozen(table, SUM).signature()
    assert got == want, f"{step}: {got.diff(want)}"


def test_theorem_2_after_every_lap(table):
    wh = QCWarehouse(table, SUM)
    extra = list(zipf_table(BATCH * LAPS, 6, 30, seed=2).iter_records())
    rng = random.Random(22)

    def fresh_build_equals_the_store(step):
        want = build_frozen(wh.table, SUM).signature()
        for what, tree in (("dict tree", wh.tree),
                           ("view", wh.serving_tree)):
            got = tree.signature()
            assert got == want, f"{step}, {what}: {got.diff(want)}"
        attached = attach_packed(
            pack_snapshot_bytes(wh.serving_tree, wh.table))
        try:
            assert attached.tree.signature() == want, step
        finally:
            attached.release()

    for lap in range(LAPS):
        wh.insert(extra[lap * BATCH:(lap + 1) * BATCH])
        fresh_build_equals_the_store(f"insert {lap}")
        wh.delete(rng.sample(list(wh.table.iter_records()), BATCH))
        fresh_build_equals_the_store(f"delete {lap}")


def test_theorem_2_after_the_benchmarks_write_laps(table):
    """The ``door_tcp`` write lap of ``benchmarks/e2e`` (its recipe
    copied from ``plans.py``): insert one row, then delete that row.
    The row is the first of the seed's fresh rows, drawn from
    ``zipf_table(60 * 32, 6, 30, seed=1 + 7919)``."""
    row = next(zipf_table(60 * BATCH, 6, 30, seed=1 + 7919).iter_records())
    wh = QCWarehouse(table, SUM)
    for lap in range(2):
        for step, write in (("insert", wh.insert), ("delete", wh.delete)):
            write([row])
            _same_as_a_fresh_build(wh.tree, wh.table, f"{step} {lap}")
            _same_as_a_fresh_build(wh.serving_tree, wh.table,
                                   f"{step} {lap}, view")


def test_segmented_pieces_across_a_seal_and_a_compaction(table):
    """Per piece, a segmented store's trees are fresh builds of their
    tables: the 20,000-row base sealed at once, a head sealed at 64
    rows, a delete (of the earliest matching rows, wherever they sit),
    and the sealed pair compacted."""
    extra = list(zipf_table(3 * BATCH, 6, 30, seed=3).iter_records())
    seg = SegmentedWarehouse(table, SUM, seal_rows=2 * BATCH,
                             compact_min_segments=1)

    def every_piece_is_a_fresh_build(step):
        for piece in seg.pieces():
            trees = [piece.frozen_view()]
            if piece._tree is not None:
                trees.append(piece._tree)
            for tree in trees:
                _same_as_a_fresh_build(tree, piece.table,
                                       f"{step}, {piece.name}")

    try:
        seg.insert(extra[:BATCH])
        seg.insert(extra[BATCH:2 * BATCH])
        assert len(seg.pieces()) == 3 and seg.pieces()[-1].n_rows == 0
        every_piece_is_a_fresh_build("seal")
        seg.insert(extra[2 * BATCH:])
        seg.delete(extra[2 * BATCH:2 * BATCH + 4])
        every_piece_is_a_fresh_build("delete")
        assert seg.compact_now() == 1
        assert len(seg.pieces()) == 2
        assert sum(piece.n_rows for piece in seg.pieces()) == \
            table.n_rows + 3 * BATCH - 4
        every_piece_is_a_fresh_build("compaction")
    finally:
        seg.close()


def test_shard_server_answers_like_a_fresh_build(table, cells):
    """A one-process :class:`ShardServer`: after each write, the snapshot
    it published is a fresh build of the store's table, and its worker's
    ``map_query`` answers are that build's."""
    extra = list(zipf_table(BATCH, 6, 30, seed=4).iter_records())
    wh = QCWarehouse(table, SUM)
    with ShardServer(wh, processes=1, cache_size=0) as server:
        for step, write in (("insert", {"inserts": extra}),
                            ("delete", {"deletes": extra[:BATCH // 2]})):
            server.write(**write)
            snapshot = server.snapshot
            _same_as_a_fresh_build(snapshot.tree, snapshot.table, step)
            fresh = QCWarehouse(snapshot.table, SUM)
            assert server.map_query("point", [(cell,) for cell in cells]) \
                == [fresh.point(cell) for cell in cells], step


def test_independent_pieces_merge_to_the_whole(table):
    agg = make_aggregate([SUM, "count", ("var", "M0"), ("max", "M0")])
    whole = build_frozen(table, agg)
    rng = random.Random(7)
    owner = [rng.randrange(3) for _ in range(table.n_rows)]
    pieces = [
        build_frozen(table.subset(
            [i for i, o in enumerate(owner) if o == k]), agg)
        for k in range(3)
    ]
    classes = 0
    for node in whole.iter_class_nodes():
        cell = whole.upper_bound_of(node)
        parts = [piece.state[hit] for piece in pieces
                 if (hit := piece.locate(cell)) is not None]
        assert reduce(agg.merge, parts) == whole.state[node], cell
        classes += 1
    assert classes == whole.n_classes > 30_000


def test_roll_up_is_the_sum_over_a_domain(table, counts, sums):
    agg = sums.aggregate
    checked = 0
    for cell in point_query_workload(table, 150, seed=3):
        for j, value in enumerate(cell):
            if value is ALL:
                continue
            up = cell[:j] + (ALL,) + cell[j + 1:]
            spec = list(table.decode_cell(up))
            spec[j] = list(range(table.cardinality(j)))
            below = counts.range(tuple(spec))
            assert counts.point(table.decode_cell(up)) == (
                sum(below.values()) if below else None), up
            parts = [sums.state[hit] for v in range(table.cardinality(j))
                     if (hit := sums.locate(up[:j] + (v,) + up[j + 1:]))
                     is not None]
            top = sums.locate(up)
            assert (top is None) == (not parts), up
            if parts:
                assert agg.value(reduce(agg.merge, parts)) == \
                    sums.value_at(top), up
                checked += 1
    assert checked > 100


def test_containment_orders_count(table, counts, cells):
    """COUNT over a random 3/4 of the rows, built on its own, is at most
    the whole table's; a delete batch from that store only lowers it."""
    rng = random.Random(11)
    part = QCWarehouse(table.subset(
        sorted(rng.sample(range(table.n_rows), 15_000))), "count")

    def count(store):
        return [store.point(cell) or 0 for cell in cells]

    whole, before = count(counts), count(part)
    assert all(p <= w for p, w in zip(before, whole))
    assert sum(before) < sum(whole)
    part.delete(rng.sample(list(part.table.iter_records()), 64))
    after = count(part)
    assert all(a <= b for a, b in zip(after, before))
    assert sum(after) < sum(before)


def test_iceberg_shrinks_as_the_threshold_rises(counts, sums):
    index = MeasureIndex(sums)
    for op in (">=", ">"):
        for answer, thresholds in (
                (lambda t: pure_iceberg(sums, t, op, index=index),
                 (400, 1600, 6400, 25600, 102400)),
                (lambda t: counts.iceberg(t, op), (8, 32, 128, 512, 2048))):
            above = [{bound for bound, _ in answer(t)} for t in thresholds]
            for lower, higher in zip(above, above[1:]):
                assert higher < lower  # a proper subset: never vacuous


def test_theorem_1_permuted_rows_pack_the_same_bytes(table, sums):
    """Theorem 1: the QC-tree does not depend on the order of the
    rows.  The permuted table re-encodes its labels in the same sorted
    order, so only the table sections may differ, by the permutation."""
    order = list(range(table.n_rows))
    random.Random(7).shuffle(order)
    records = list(table.iter_records())
    permuted = BaseTable.from_records([records[i] for i in order],
                                      table.schema)
    blobs = [pack_snapshot_bytes(sums, table),
             pack_snapshot_bytes(build_frozen(permuted, SUM), permuted)]
    one, two = map(Signature.of, blobs)
    assert one["meta"] == two["meta"]
    assert one["meta"]["counts"]["nodes"] > 45_000
    for name in BUFFER_SECTIONS:
        assert one[name] == two[name], name
    for name, dtype, width in (("table_rows", "<i8", table.n_dims),
                               ("table_measures", "<f8",
                                table.schema.n_measures)):
        rows, permuted_rows = (
            np.frombuffer(signature[name], dtype).reshape(-1, width)
            for signature in (one, two))
        assert np.array_equal(rows[order], permuted_rows), name
