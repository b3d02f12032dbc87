"""A multi-aggregate store answers icebergs alike before and after a
restart.

The number an iceberg thresholds is the aggregate's own rank (a
multi-aggregate ranks by its first part), and the aggregate spec is what
the manifest persists, so nothing about icebergs is lost by
``checkpoint`` → ``recover``.  Covered: a monolithic store, a segmented
one that scatters over several pieces, a shard fleet over the recovered
store (``submit``) and the CLI ``iceberg`` verb.  Each store logs a few
batches past its checkpoint, so recovery replays the WAL too.
"""

from __future__ import annotations

import math
import os
import random

import pytest

from repro.__main__ import main
from repro.core.warehouse import QCWarehouse
from repro.cube.schema import Schema
from repro.segments import SegmentedWarehouse
from repro.shard import ShardServer, created_segments

SCHEMA = Schema(dimensions=("Year", "Kind", "Size"), measures=("M",))
AGGREGATE = [("sum", "M"), "count"]
THRESHOLDS = (0.0, 5.0, 12.5, 40.0, math.nan)
OPS = (">=", ">", "<=", "<")
SPECS = (
    ("*", "*", "*"),
    ([2001, 2002], "*", "*"),
    ("*", ["a", "b"], [0, 1, 2]),
    ([2000, 2003], ["c", "zz"], "*"),
)


def _records(rng, n):
    return [(rng.choice(range(2000, 2004)), rng.choice("abcd"),
             rng.randrange(3), float(rng.randint(1, 9))) for _ in range(n)]


def _answers(store) -> dict:
    """Every pure and constrained iceberg the tests compare."""
    out = {}
    for threshold in THRESHOLDS:
        for op in OPS:
            key = (repr(threshold), op)
            out[("iceberg",) + key] = store.iceberg(threshold, op=op)
            for spec in SPECS:
                out[("in_range", repr(spec)) + key] = store.iceberg_in_range(
                    spec, threshold, op=op)
    return out


def _restarted(kind, directory, **options):
    """A store over 40 rows checkpointed to ``directory``, with three
    logged batches past the checkpoint; returns its answers and the
    recovered store."""
    rng = random.Random(kind)
    store_cls = SegmentedWarehouse if kind == "segmented" else QCWarehouse
    wal = os.path.join(directory, "wal.log")
    store = store_cls.from_records(_records(rng, 40), SCHEMA, AGGREGATE,
                                   **options)
    try:
        store.checkpoint(directory)
        store.attach_wal(wal)
        for _ in range(3):
            store.insert(_records(rng, 4))
        if kind == "segmented":
            assert len(store.pieces()) > 2  # the answers scatter
        before = _answers(store)
    finally:
        store.close()
    return before, store_cls.recover(directory, wal, SCHEMA, **options)


@pytest.mark.parametrize("kind, options", [
    ("monolithic", {}),
    ("segmented", {"seal_rows": 8}),
], ids=["monolithic", "segmented"])
def test_recovered_store_answers_icebergs_alike(tmp_path, kind, options):
    before, store = _restarted(kind, str(tmp_path / "ckpt"), **options)
    try:
        assert store.last_recovery["replayed"] == 3
        assert any(before.values())  # not vacuous
        assert _answers(store) == before
    finally:
        store.close()


def test_shard_fleet_over_a_recovered_store(tmp_path):
    before, store = _restarted("monolithic", str(tmp_path / "ckpt"))
    with ShardServer(store, processes=1, cache_size=0) as shard:
        for threshold in THRESHOLDS:
            for op in OPS:
                key = (repr(threshold), op)
                got = shard.submit("iceberg", threshold, op=op).result()
                assert got == before[("iceberg",) + key]
                for spec in SPECS:
                    got = shard.submit("iceberg_in_range", spec, threshold,
                                       op=op).result()
                    assert got == before[("in_range", repr(spec)) + key]
        assert shard.shard_health()["local_fallbacks"] == 0
    assert created_segments() == []


def test_cli_iceberg_verb_after_restart(tmp_path, capsys):
    directory = str(tmp_path / "ckpt")
    before, store = _restarted("monolithic", directory)
    store.close()
    want = [(",".join(map(str, bound)), str(value))
            for bound, value in before[("iceberg", repr(12.5), ">=")]]
    assert want
    capsys.readouterr()
    assert main(["iceberg", directory, "--threshold", "12.5"]) == 0
    got = [tuple(line.split("\t"))
           for line in capsys.readouterr().out.splitlines()]
    assert got == want
