"""Ablation A3 — deletion maintenance (§3.3.2).

The paper reports only insertion numbers ("the results on deletions are
similar ... omitted"); this ablation fills that gap: batch deletion vs
tuple-by-tuple deletion vs recompute over growing batch sizes, plus an
insert-then-delete round trip verifying the tree returns to its original
shape (Theorem 2 in both directions).
"""

import random
from functools import lru_cache

import pytest

from common import print_series, timed
from repro.core.construct import build_qctree
from repro.core.maintenance import (
    apply_deletions,
    apply_insertions,
    delete_one_by_one,
    maintain_batch,
)
from repro.cube.cover_index import CoverIndex
from repro.data.synthetic import zipf_table

BASE_ROWS = 12000
N_DIMS = 5
CARD = 20
DELTA_SWEEP = [50, 100, 200, 400]
ONE_BY_ONE_CAP = 100


@lru_cache(maxsize=None)
def _base():
    table = zipf_table(BASE_ROWS, N_DIMS, CARD, seed=1)
    tree = build_qctree(table, "count")
    records = list(table.iter_records())
    return table, tree, records


@lru_cache(maxsize=None)
def _victims(n_delta):
    _, _, records = _base()
    return tuple(random.Random(42).sample(records, n_delta))


def _one_by_one_args(n_delta):
    """``(args, kwargs)`` of one maintenance run: a private copy of the
    base tree (a run mutates it), made outside the timed region."""
    table, tree, _ = _base()
    return (tree.copy(), table, list(_victims(n_delta))), {}


def _batch_args(n_delta):
    """The same plus a cover index over the base table — the pair a live
    ``Piece`` holds between writes, so the batch patches it in place
    instead of building one (``delete_one_by_one`` builds the one index
    it holds across its calls itself, inside the timed region)."""
    (work, table, victims), _ = _one_by_one_args(n_delta)
    return (work, table, victims, CoverIndex(table)), {}


def _run_batch(work, table, victims, index):
    maintain_batch(work, table, deletes=victims, cover_index=index)
    return work


def _run_one_by_one(work, table, victims):
    delete_one_by_one(work, table, victims)
    return work


def _run_recompute(n_delta):
    table, _, _ = _base()
    wanted = list(_victims(n_delta))
    # Build the reduced table, then a fresh tree (the recompute baseline).
    from collections import Counter

    counts = Counter(tuple(r[:N_DIMS]) for r in wanted)
    drop = []
    for i, row in enumerate(table.rows):
        decoded = tuple(table.decode_cell(row))
        if counts.get(decoded, 0) > 0:
            counts[decoded] -= 1
            drop.append(i)
    reduced = table.without_rows(drop)
    return build_qctree(reduced, "count")


@pytest.mark.parametrize("n_delta", DELTA_SWEEP)
def test_a3_batch_delete(benchmark, n_delta):
    _base(), _victims(n_delta)
    benchmark.pedantic(_run_batch, setup=lambda: _batch_args(n_delta),
                       rounds=1, iterations=1)


@pytest.mark.parametrize("n_delta", [d for d in DELTA_SWEEP if d <= ONE_BY_ONE_CAP])
def test_a3_one_by_one_delete(benchmark, n_delta):
    _base(), _victims(n_delta)
    benchmark.pedantic(_run_one_by_one,
                       setup=lambda: _one_by_one_args(n_delta),
                       rounds=1, iterations=1)


@pytest.mark.parametrize("n_delta", DELTA_SWEEP)
def test_a3_recompute(benchmark, n_delta):
    _base(), _victims(n_delta)
    benchmark.pedantic(
        _run_recompute, args=(n_delta,), rounds=1, iterations=1
    )


def test_a3_roundtrip_and_report(benchmark):
    def make():
        series = {"recompute_s": [], "batch_s": [], "one_by_one_s": []}
        for n_delta in DELTA_SWEEP:
            _base(), _victims(n_delta)  # built outside the timings
            recomputed, t_re = timed(_run_recompute, n_delta)
            batch_tree, t_batch = timed(_run_batch, *_batch_args(n_delta)[0])
            assert batch_tree.equivalent_to(recomputed)
            series["recompute_s"].append(t_re)
            series["batch_s"].append(t_batch)
            if n_delta <= ONE_BY_ONE_CAP:
                one_tree, t_one = timed(
                    _run_one_by_one, *_one_by_one_args(n_delta)[0])
                assert one_tree.equivalent_to(batch_tree)
                series["one_by_one_s"].append(t_one)
            else:
                series["one_by_one_s"].append(float("nan"))
        # Round trip: delete then re-insert restores the original tree.
        table, tree, _ = _base()
        work = tree.copy()
        victims = list(_victims(DELTA_SWEEP[0]))
        reduced = apply_deletions(work, table, victims)
        apply_insertions(work, reduced, victims)
        assert work.equivalent_to(tree)
        print_series(
            f"Ablation A3: deletion maintenance (s) vs batch size "
            f"(base {BASE_ROWS} rows)",
            "batch_size",
            DELTA_SWEEP,
            series,
            result_file="ablation_a3.txt",
        )
        return series

    benchmark.pedantic(make, rounds=1, iterations=1)
