"""Differential oracle: the multi-process ShardServer answers like the
model.

Seeded programs from the model (random fleet size, router seeding and
aggregate, mid-stream writes that republish the shared-memory
snapshot) through a forked fleet: after every batch every snapshot op
answers what the brute-force lattice of the live rows answers
(``tests/model.py``), through ``submit`` and through the ``map_query``
bulk path alike — sharding is a placement choice and must never be a
correctness one.
"""

from __future__ import annotations

import random

import pytest

from repro.core.warehouse import QCWarehouse
from repro.serving import QCServer
from repro.shard import ShardRouter, ShardServer, created_segments
from tests import model


@pytest.mark.parametrize("seed", [11, 29, 47])
def test_shard_matches_thread_server(seed):
    """After every batch the fleet answers like the model."""
    rng = random.Random(seed)
    aggregate = rng.choice(["count", ("sum", "m"), ("avg", "m"),
                            ("max", "m")])
    table, batches, _ = model.make_program(seed, 4, n_rows=rng.randint(8, 16))
    live = list(table.iter_records())
    with ShardServer(QCWarehouse(table, aggregate=aggregate),
                     processes=rng.randint(1, 3),
                     router=ShardRouter(seed=rng.randrange(1000)),
                     cache_size=0) as shard:
        for step, (inserts, deletes) in enumerate([([], [])] + batches):
            if inserts or deletes:
                shard.write(inserts=inserts, deletes=deletes)
                model.remove_rows(live, deletes)
                live.extend(inserts)
            expected = model.expectations(live, aggregate)
            model.assert_answers(shard.query, expected, where=f"{step}: ")
            points = [(args, want) for op, args, want in expected
                      if op == "point"]
            bulk = shard.map_query("point", [args for args, _ in points])
            for got, (args, want) in zip(bulk, points):
                model.assert_same("point", got, want, where=f"bulk {args}")
    assert created_segments() == []


def test_multi_aggregate_iceberg_reaches_the_fleet(sales_table):
    """A tuple aggregate's iceberg ranks by its first part; the workers
    derive that from the packed aggregate spec, through ``submit`` and
    ``map_query`` alike."""
    def warehouse():
        return QCWarehouse(sales_table, aggregate=[("sum", "Sale"), "count"])

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
