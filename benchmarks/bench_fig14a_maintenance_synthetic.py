"""Figure 14(a) — incremental maintenance vs recompute, synthetic data.

Paper setup: fixed base table, growing insertion batch; compare
(1) recomputing the QC-tree from scratch, (2) inserting tuple by tuple,
and (3) batch insertion.  Expected shape: both incremental methods beat
recomputation for small batches, batch insertion scales better than
tuple-by-tuple, and recompute's cost is flat in the batch size.  (The
one-by-one series is capped at modest batch sizes — exactly because it
scales so poorly.)
"""

from functools import lru_cache

import pytest

from common import print_series, timed
from repro.core.construct import build_qctree
from repro.core.maintenance import insert_one_by_one, maintain_batch
from repro.cube.cover_index import CoverIndex
from repro.data.synthetic import zipf_table

BASE_ROWS = 20000
N_DIMS = 6
CARD = 30
DELTA_SWEEP = [100, 200, 400, 800]
ONE_BY_ONE_CAP = 200


@lru_cache(maxsize=None)
def _base():
    table = zipf_table(BASE_ROWS, N_DIMS, CARD, seed=0)
    tree = build_qctree(table, "count")
    return table, tree


@lru_cache(maxsize=None)
def _delta(n_delta):
    table, _ = _base()
    fresh = zipf_table(n_delta, N_DIMS, CARD, seed=77)
    records = [tuple(r) + (1.0,) for r in fresh.rows]
    new_table, _ = table.extended(records)
    return records, new_table


def _run_recompute(n_delta):
    _, new_table = _delta(n_delta)
    return build_qctree(new_table, "count")


def _one_by_one_args(n_delta):
    """``(args, kwargs)`` of one maintenance run: a private copy of the
    base tree (a run mutates it), made outside the timed region."""
    table, tree = _base()
    return (tree.copy(), table, _delta(n_delta)[0]), {}


def _batch_args(n_delta):
    """The same plus a cover index over the base table — the pair a live
    ``Piece`` holds between writes, so the batch patches it in place
    instead of building one (``insert_one_by_one`` builds the one index
    it holds across its calls itself, inside the timed region)."""
    (work, table, records), _ = _one_by_one_args(n_delta)
    return (work, table, records, CoverIndex(table)), {}


def _run_batch(work, table, records, index):
    maintain_batch(work, table, inserts=records, cover_index=index)
    return work


def _run_one_by_one(work, table, records):
    insert_one_by_one(work, table, records)
    return work


@pytest.mark.parametrize("n_delta", DELTA_SWEEP)
def test_fig14a_recompute(benchmark, n_delta):
    _delta(n_delta)
    benchmark.pedantic(_run_recompute, args=(n_delta,), rounds=1, iterations=1)


@pytest.mark.parametrize("n_delta", DELTA_SWEEP)
def test_fig14a_batch_insert(benchmark, n_delta):
    _delta(n_delta)
    benchmark.pedantic(_run_batch, setup=lambda: _batch_args(n_delta),
                       rounds=1, iterations=1)


@pytest.mark.parametrize("n_delta", [d for d in DELTA_SWEEP if d <= ONE_BY_ONE_CAP])
def test_fig14a_one_by_one(benchmark, n_delta):
    _delta(n_delta)
    benchmark.pedantic(_run_one_by_one,
                       setup=lambda: _one_by_one_args(n_delta),
                       rounds=1, iterations=1)


def test_fig14a_report(benchmark):
    def make():
        series = {"recompute_s": [], "batch_s": [], "one_by_one_s": []}
        for n_delta in DELTA_SWEEP:
            _delta(n_delta)  # build base and delta outside the timings
            recomputed, t_re = timed(_run_recompute, n_delta)
            batch_tree, t_batch = timed(_run_batch, *_batch_args(n_delta)[0])
            assert batch_tree.equivalent_to(recomputed)
            series["recompute_s"].append(t_re)
            series["batch_s"].append(t_batch)
            if n_delta <= ONE_BY_ONE_CAP:
                one_tree, t_one = timed(
                    _run_one_by_one, *_one_by_one_args(n_delta)[0])
                series["one_by_one_s"].append(t_one)
                assert one_tree.equivalent_to(recomputed)
            else:
                series["one_by_one_s"].append(float("nan"))
        print_series(
            f"Figure 14(a): maintenance time (s) vs batch size "
            f"(base {BASE_ROWS} rows)",
            "batch_size",
            DELTA_SWEEP,
            series,
            result_file="fig14a.txt",
        )
        return series

    series = benchmark.pedantic(make, rounds=1, iterations=1)
    # Theorem 2's operational payoff: batch insertion beats recompute on
    # the smallest batch of the sweep.
    assert series["batch_s"][0] < series["recompute_s"][0]
