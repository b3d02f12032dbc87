"""Metamorphic relations of the cube algebra at benchmark scale.

The reference model and the brute-force lattice reach toy tables only.
These relations need no lattice, so they run on the benchmark's own
table, ``zipf_table(20000, 6, 30, seed=1)`` with float measures uniform
on [0, 100), built through :mod:`repro.data` alone.  Every check is
``==``: aggregate states are exact, so no relation needs a tolerance.

* **Theorem 2 at scale** — after each 32-row insert and each 32-row
  delete, the maintained store (its dict tree and its patched frozen
  view) has a fresh build's signature.
* **Distribution** — the table split at random into pieces built
  independently: each class's state is the merge of the pieces' states
  of its upper bound.
* **Roll-up** — ``point(c[j:=*])`` against dimension ``j``'s domain:
  for COUNT it is the sum of the range query's answers; for SUM it is
  the value of the merged states of the cells ``c[j:=v]`` (the sum of
  their rounded values is not the rounded sum).
"""

from __future__ import annotations

import random
from functools import reduce

import pytest

from repro.core.cells import ALL
from repro.core.construct import build_frozen
from repro.core.warehouse import QCWarehouse
from repro.cube.aggregates import make_aggregate
from repro.data.synthetic import zipf_table
from repro.data.workloads import point_query_workload

SUM = ("sum", "M0")
#: Insert + delete laps of the Theorem 2 relation.
LAPS = 3
BATCH = 32


@pytest.fixture(scope="module")
def table():
    return zipf_table(20_000, 6, 30, seed=1)


def test_theorem_2_after_every_lap(table):
    wh = QCWarehouse(table, SUM)
    extra = list(zipf_table(BATCH * LAPS, 6, 30, seed=2).iter_records())
    rng = random.Random(22)

    def fresh_build_equals_the_store(step):
        want = build_frozen(wh.table, SUM).signature()
        assert wh.tree.signature() == want, step
        assert wh.serving_tree.signature() == want, step

    for lap in range(LAPS):
        wh.insert(extra[lap * BATCH:(lap + 1) * BATCH])
        fresh_build_equals_the_store(f"insert {lap}")
        wh.delete(rng.sample(list(wh.table.iter_records()), BATCH))
        fresh_build_equals_the_store(f"delete {lap}")


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


def test_roll_up_is_the_sum_over_a_domain(table):
    counts = QCWarehouse(table, "count")
    sums = build_frozen(table, SUM)
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
