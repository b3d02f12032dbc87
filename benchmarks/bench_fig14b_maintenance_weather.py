"""Figure 14(b) — incremental maintenance vs recompute, weather-like data.

Same protocol as Figure 14(a) on the correlated weather-like dataset:
fresh readings arrive as daily batches; compare recompute, tuple-by-tuple
insertion, and batch insertion.
"""

from functools import lru_cache

import pytest

from common import print_series, timed
from repro.core.construct import build_qctree
from repro.core.maintenance import insert_one_by_one, maintain_batch
from repro.cube.cover_index import CoverIndex
from repro.data.weather import weather_table

BASE_ROWS = 30000
N_DIMS = 7
SCALE = 0.1
DELTA_SWEEP = [50, 100, 200, 400]
ONE_BY_ONE_CAP = 50


@lru_cache(maxsize=None)
def _base():
    table = weather_table(BASE_ROWS, scale=SCALE, seed=0, n_dims=N_DIMS)
    tree = build_qctree(table, "count")
    return table, tree


@lru_cache(maxsize=None)
def _delta(n_delta):
    table, _ = _base()
    fresh = weather_table(n_delta, scale=SCALE, seed=55, n_dims=N_DIMS)
    records = list(fresh.iter_records())
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
def test_fig14b_recompute(benchmark, n_delta):
    _delta(n_delta)
    benchmark.pedantic(_run_recompute, args=(n_delta,), rounds=1, iterations=1)


@pytest.mark.parametrize("n_delta", DELTA_SWEEP)
def test_fig14b_batch_insert(benchmark, n_delta):
    _delta(n_delta)
    benchmark.pedantic(_run_batch, setup=lambda: _batch_args(n_delta),
                       rounds=1, iterations=1)


@pytest.mark.parametrize("n_delta", [d for d in DELTA_SWEEP if d <= ONE_BY_ONE_CAP])
def test_fig14b_one_by_one(benchmark, n_delta):
    _delta(n_delta)
    benchmark.pedantic(_run_one_by_one,
                       setup=lambda: _one_by_one_args(n_delta),
                       rounds=1, iterations=1)


def test_fig14b_report(benchmark):
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
                assert one_tree.equivalent_to(recomputed)
                series["one_by_one_s"].append(t_one)
            else:
                series["one_by_one_s"].append(float("nan"))
        print_series(
            f"Figure 14(b): maintenance time (s) vs batch size "
            f"(weather-like base, {BASE_ROWS} rows)",
            "batch_size",
            DELTA_SWEEP,
            series,
            result_file="fig14b.txt",
        )
        return series

    benchmark.pedantic(make, rounds=1, iterations=1)
