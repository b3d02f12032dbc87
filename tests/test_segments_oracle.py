"""The segmented store: pinned programs, and refusals alike.

Segmented ≡ monolithic ≡ the lattice — across seals, compactions,
delete rewrites, checkpoints and recovery — is the model's machine
(``tests/test_stateful.py``); the programs below are its pinned corpus
here, on the ``segmented`` configuration beside the monolithic
``frozen`` one.  What stays named: the duplicate-key arrival order a
compaction must keep (measures differ per copy, which the model's
programs never do), the failed batches, and both stores refusing alike.
"""

from __future__ import annotations

import pytest

from repro.core.warehouse import QCWarehouse
from repro.errors import MaintenanceError, QueryError, SchemaError
from repro.segments import SegmentedWarehouse
from tests import model
from tests.test_stateful import SEAL_BATCHES, SEG_OPTIONS, replay

SCHEMA = model.SCHEMA
SEGMENTS = ("write", "burst", "seal", "compact")
STORES = ("frozen", "segmented")


@pytest.fixture(autouse=True)
def seal_batches(monkeypatch):
    """The stores seal after ``SEAL_BATCHES`` batches, as the model's
    machine does."""
    monkeypatch.setattr(SegmentedWarehouse, "SEAL_BATCHES", SEAL_BATCHES)


class TestSegmentedOracle:
    def test_random_programs(self):
        """Longer programs over fixed seeds, beside the monolithic store
        (the random search is the machine's)."""
        for seed in range(100, 103):
            replay(seed, SEGMENTS, configs=STORES)

    def test_batches_larger_than_head(self):
        """Bursts bigger than ``seal_rows`` into a two-row store: rows
        land and the head seals right after the batch."""
        replay(1, ("burst",), steps=2, configs=("segmented",), rows=2)

    @pytest.mark.parametrize("seed", range(6))
    def test_pinned_programs(self, seed):
        replay(seed, SEGMENTS, steps=3, configs=("segmented",))


class TestRecoveryParity:
    """Checkpoint mid-program (the WAL truncation sometimes torn), keep
    writing, recover."""

    @pytest.mark.parametrize("seed", range(4))
    def test_recover_matches_monolithic(self, seed):
        replay(seed, ("write", "checkpoint", "recover"), steps=4,
               configs=STORES)

    @pytest.mark.parametrize("seed", range(2))
    def test_checkpoint_after_compaction(self, seed):
        """Compaction before the checkpoint changes which segment files
        exist; recovery must follow the manifest, not stale files."""
        replay(seed + 100, ("burst", "compact", "checkpoint", "recover"),
               steps=4, configs=("segmented",))


def _pair(records, **options):
    mono = QCWarehouse.from_records(records, SCHEMA, model.AGGREGATE,
                                    cache_size=0)
    seg = SegmentedWarehouse.from_records(
        records, SCHEMA, model.AGGREGATE, **dict(SEG_OPTIONS, **options))
    return mono, seg


class TestDuplicateKeyOrder:
    def test_earliest_match_delete_survives_compaction(self):
        """Two rows with the same dimension tuple and different measures
        arrive in two batches; after a seal and a compaction (which
        re-inserts the newer segment's rows as one batch) a single
        delete must still remove the *first arrival* — compaction may
        not reorder duplicates by measure."""
        key = ("v0", "v1", "v2")
        mono, seg = _pair([("v1", "v1", "v1", 2.0)], seal_rows=100,
                          compact_min_segments=1)
        seg.seal()
        for measure in (9.0, 1.0):
            mono.insert([key + (measure,)])
            seg.insert([key + (measure,)])
        seg.seal()
        assert seg.compact_now() == 1
        mono.delete([key + (0.0,)])
        seg.delete([key + (0.0,)])
        assert mono.point(key) == 1.0
        assert seg.point(key) == mono.point(key)
        assert seg.point(("*", "*", "*")) == mono.point(("*", "*", "*"))

    def test_earliest_match_delete_across_pieces(self):
        """The first arrival sealed in a segment, the second in the head:
        a delete takes the segment's copy — pieces oldest first."""
        key = ("v0", "v1", "v2")
        mono, seg = _pair([key + (9.0,)], seal_rows=100)
        seg.seal()
        for wh in (mono, seg):
            wh.insert([key + (1.0,)])
            wh.delete([key + (0.0,)])
            assert wh.point(key) == 1.0


class TestFailureParity:
    def test_unmatched_delete_fails_both_and_changes_neither(self):
        table, batches, records = model.make_program(3, 3)
        mono, seg = _pair(list(table.iter_records()))
        for inserts, deletes in batches:
            mono.maintain(inserts=inserts, deletes=deletes)
            seg.maintain(inserts=inserts, deletes=deletes)
        bogus = model.record((9, 9, 9))
        for wh in (mono, seg):
            with pytest.raises(MaintenanceError):
                wh.maintain(inserts=[model.record((0, 1, 2))],
                            deletes=[bogus])
            model.assert_answers(model.asker(wh),
                                 model.expectations(records))

    def test_delete_more_copies_than_exist_fails(self):
        row = model.record((0, 0, 0))
        mono, seg = _pair([row, row])
        for wh in (mono, seg):
            with pytest.raises(MaintenanceError):
                wh.maintain(deletes=[row] * 3)
            assert wh.point(row[:model.N_DIMS]) == 2 * row[-1]


#: Requests both stores must refuse, by kind, with the error type they
#: must use.
EMPTY = ("v0", "v1", "v2")  # encodable everywhere, covered nowhere
EXPLORATION_OPS = ("rollup", "rollup_exceptions", "drilldowns", "rollups",
                   "open_class")
REFUSED = {
    "empty-cell": [(op, (EMPTY,), {}, QueryError)
                   for op in EXPLORATION_OPS],
    "unknown-label": [(op, (("v9", "*", "*"),), {}, SchemaError)
                      for op in EXPLORATION_OPS + ("class_of",)],
    "wrong-arity": [(op, (("v0", "*"),), {}, SchemaError)
                    for op in EXPLORATION_OPS + ("class_of",)]
    + [("point", (("v0", "*"),), {}, QueryError),
       ("range", (("v0", "*"),), {}, QueryError)],
    # The served constrained iceberg has no plan option: both stores
    # refuse one alike.
    "iceberg-strategy": [
        ("iceberg_in_range", (("*", "*", "*"), 1.0), {"strategy": "mark"},
         TypeError),
    ],
    "range-arity": [
        (op, (spec,) + rest, {}, QueryError)
        for spec in ((["v0"], "*"), ("v0", "*", "*", "v1"))
        for op, rest in (("range", ()), ("iceberg_in_range", (1.0,)))
    ],
}


@pytest.fixture(scope="module", params=[6, 10**6],
                ids=["several-pieces", "one-piece"])
def diagonal(request):
    """``(mono, seg, records)`` over ``(vi, vi, vi)`` rows (so
    :data:`EMPTY` is empty), the segmented store sealing at 6 rows or —
    N = 1, the monolithic case of the one snapshot — never."""
    records = [model.record((i, i, i)) for i in range(model.CARD)] * 3
    mono, seg = _pair(records, seal_rows=request.param)
    extra = [model.record((0, 0, 1))]
    mono.insert(extra)
    seg.insert(extra)
    assert (len(seg.snapshot_view().pieces) > 1) == (request.param == 6)
    return mono, seg, records + extra


class TestRefusalParity:
    """Both stores refuse alike — same error type, and the user's
    labels (never a store's dictionary codes) in the message."""

    @pytest.mark.parametrize("kind", REFUSED)
    def test_refused_alike(self, diagonal, kind):
        mono, seg, _ = diagonal
        for op, args, kwargs, error in REFUSED[kind]:
            for wh in (mono, seg):
                with pytest.raises(error) as info:
                    getattr(wh, op)(*args, **kwargs)
                assert type(info.value) is error, (op, wh)
                if kind == "empty-cell":
                    assert repr(EMPTY) in str(info.value), (op, wh)
                if kind == "iceberg-strategy":
                    assert "'strategy'" in str(info.value)
                if kind == "range-arity":
                    assert repr(args[0]) in str(info.value), (op, wh)

    def test_every_family_answers_alike(self, diagonal):
        """All ten families, on several pieces and on the N = 1 store."""
        mono, seg, records = diagonal
        expected = model.expectations(records)
        for wh in (mono, seg):
            model.assert_answers(model.asker(wh), expected)
