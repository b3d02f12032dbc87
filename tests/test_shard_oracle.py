"""Differential oracle: multi-process ShardServer ≡ thread QCServer.

For seeded random workloads (random table shape, random fleet size,
random router seeding, random point/range/iceberg mixes, mid-stream
writes) the multi-process server must return exactly what the
single-process thread server returns — sharding is a placement choice
and must never be a correctness one.
"""

from __future__ import annotations

import random

import pytest

from repro.core.cells import ALL
from repro.core.warehouse import QCWarehouse
from repro.serving import QCServer
from repro.shard import ShardRouter, ShardServer, created_segments

from .conftest import approx_equal, make_random_table


def random_point_cell(rng, table):
    return tuple(
        ALL if rng.random() < 0.35 else rng.randrange(
            max(1, table.cardinality(j)) + 1  # may miss the domain
        )
        for j in range(table.n_dims)
    )


def random_range_spec(rng, table):
    spec = []
    for j in range(table.n_dims):
        roll = rng.random()
        card = max(1, table.cardinality(j))
        if roll < 0.3:
            spec.append(ALL)
        elif roll < 0.6:
            spec.append(rng.randrange(card))
        else:
            spec.append(rng.sample(range(card), min(2, card)))
    return tuple(spec)


def random_record(rng, table):
    return tuple(
        rng.randrange(max(1, table.cardinality(j)))
        for j in range(table.n_dims)
    ) + (float(rng.randint(0, 20)),)


def assert_same_answers(shard, oracle, rng, table, n_queries):
    for _ in range(n_queries):
        roll = rng.random()
        if roll < 0.5:
            cell = random_point_cell(rng, table)
            assert approx_equal(
                shard.point(cell), oracle.point(cell)
            ), cell
        elif roll < 0.8:
            spec = random_range_spec(rng, table)
            mine, theirs = shard.range(spec), oracle.range(spec)
            assert set(mine) == set(theirs), spec
            assert all(
                approx_equal(mine[k], theirs[k]) for k in mine
            ), spec
        elif roll < 0.9:
            threshold = rng.uniform(0.0, 25.0)
            op = rng.choice([">=", ">", "<=", "<"])
            assert sorted(
                shard.iceberg(threshold, op=op), key=repr
            ) == sorted(oracle.iceberg(threshold, op=op), key=repr)
        else:
            spec = random_range_spec(rng, table)
            threshold = rng.uniform(0.0, 25.0)
            mine = shard.query("iceberg_in_range", spec, threshold)
            theirs = oracle.query("iceberg_in_range", spec, threshold)
            assert mine == theirs, (spec, threshold)


@pytest.mark.parametrize("seed", [11, 29, 47])
def test_shard_matches_thread_server(seed):
    rng = random.Random(seed)
    table = make_random_table(seed, n_dims=rng.randint(2, 4),
                              cardinality=rng.randint(2, 4),
                              n_rows=rng.randint(8, 24))
    aggregate = rng.choice(["count", "sum(m)", "avg(m)", "max(m)"])
    processes = rng.randint(1, 3)
    router = ShardRouter(seed=rng.randrange(1000))

    shard = ShardServer(
        QCWarehouse(table, aggregate=aggregate),
        processes=processes, router=router, cache_size=0,
    )
    oracle = QCServer(
        QCWarehouse(table, aggregate=aggregate), workers=1, cache_size=0
    )
    try:
        assert_same_answers(shard, oracle, rng, table, n_queries=30)

        # Mid-stream writes: both servers apply the same batches, the
        # shard fleet re-publishes, answers must stay identical.
        for _ in range(3):
            records = [random_record(rng, table) for _ in range(3)]
            shard.insert(records)
            oracle.insert(records)
            assert_same_answers(shard, oracle, rng, table, n_queries=12)

        records = [random_record(rng, table) for _ in range(2)]
        shard.insert(records)
        oracle.insert(records)
        shard.delete(records[:1])
        oracle.delete(records[:1])
        assert_same_answers(shard, oracle, rng, table, n_queries=12)

        # Bulk path parity against the oracle's one-at-a-time answers.
        cells = [random_point_cell(rng, table) for _ in range(20)]
        bulk = shard.map_query("point", [(c,) for c in cells])
        assert all(
            approx_equal(b, oracle.point(c)) for b, c in zip(bulk, cells)
        )
    finally:
        shard.close()
        oracle.close()
    assert created_segments() == []


def test_index_key_reaches_the_fleet(sales_table):
    """A tuple aggregate's iceberg needs the warehouse's ``index_key``;
    the workers answer it from the published snapshot's, through
    ``submit`` and ``map_query`` alike."""
    def warehouse():
        return QCWarehouse(sales_table, aggregate=[("sum", "Sale"), "count"],
                           index_key=lambda value: value[0])

    with QCServer(warehouse(), workers=1, cache_size=0) as oracle:
        expected = sorted(oracle.iceberg(10), key=repr)
    assert expected  # not vacuous
    with ShardServer(warehouse(), processes=1, cache_size=0) as shard:
        assert sorted(shard.iceberg(10), key=repr) == expected
        [bulk] = shard.map_query("iceberg", [(10,)])
        assert sorted(bulk, key=repr) == expected
        assert shard.shard_health()["local_fallbacks"] == 0
    assert created_segments() == []


def test_every_router_sharding_answers_identically(sales_table):
    """The same workload through every possible slot placement."""
    expected = None
    cells = [("S1", "P1", "s"), ("S2", "*", "f"), ("*", "*", "*"),
             ("S1", "*", "s"), ("S2", "P2", "f")]
    for processes in (1, 2, 3):
        for seed in (0, 1):
            server = ShardServer(
                QCWarehouse(sales_table, aggregate="avg(Sale)"),
                processes=processes, router=ShardRouter(seed=seed),
                cache_size=0,
            )
            try:
                answers = [server.point(c) for c in cells]
            finally:
                server.close()
            if expected is None:
                expected = answers
            assert answers == expected, (processes, seed)
    assert created_segments() == []
