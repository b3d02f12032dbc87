"""The segmented-vs-monolithic differential oracle.

Random mutation programs — mixed insert/delete batches over raw-label
records — are executed against two warehouses built from the same base
table: the proven monolithic :class:`~repro.core.warehouse.QCWarehouse`
and the :class:`~repro.segments.SegmentedWarehouse` under test (with
aggressively small seal thresholds, so every program crosses several
seal boundaries).  After every batch, and again after forcing
compaction, every query family must answer identically:

point / range / iceberg / constrained iceberg / class_of / rollup /
rollup_exceptions / drilldowns / rollups / open_class.

A third execution checkpoints the segmented store mid-program, keeps
writing, then recovers from the manifest + WAL into a fresh process
image and re-checks parity — proving the scatter-gather answer is
durable, not just resident.

Like the batched-maintenance oracle, measures are a pure function of
the dimension key so delete-by-key is unambiguous under duplicates.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.warehouse import QCWarehouse
from repro.cube.aggregates import values_close
from repro.cube.schema import Schema
from repro.cube.table import BaseTable
from repro.errors import MaintenanceError, QueryError, SchemaError
from repro.segments import SegmentedWarehouse

N_DIMS = 3
CARD = 3
FRESH = 2  # extra labels per dimension a program may mint

SCHEMA = Schema(
    dimensions=[f"D{j}" for j in range(N_DIMS)], measures=("m",)
)

#: Small seal/compaction thresholds so even short programs cross
#: several segment boundaries.
SEG_OPTIONS = dict(
    seal_rows=6, seal_batches=3, compact_min_segments=2,
    cache_size=8,
)


def _label(code) -> str:
    return f"v{code}"


def _measure(codes) -> float:
    """Measure as a pure function of the key (see module docstring)."""
    return float((3 * codes[0] + 5 * codes[1] + 7 * codes[2]) % 10 + 1)


def _gen_record(rng, fresh=False):
    codes = []
    for _ in range(N_DIMS):
        if fresh and rng.random() < 0.3:
            codes.append(CARD + rng.randrange(FRESH))
        else:
            codes.append(rng.randrange(CARD))
    return tuple(_label(c) for c in codes) + (_measure(codes),)


def make_program(seed, n_batches, n_rows=None, max_batch=5):
    """``(base_records, batches, final_records)`` with feasible deletes."""
    rng = random.Random(seed)
    n_rows = rng.randint(0, 10) if n_rows is None else n_rows
    base = []
    for _ in range(n_rows):
        codes = [rng.randrange(CARD) for _ in range(N_DIMS)]
        base.append(tuple(_label(c) for c in codes) + (_measure(codes),))
    current = list(base)
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
    return base, batches, current


# -- parity assertions -------------------------------------------------------


def _domains(records):
    domains = [set() for _ in range(N_DIMS)]
    for record in records:
        for j in range(N_DIMS):
            domains[j].add(record[j])
    for j in range(N_DIMS):
        domains[j].add(_label(CARD + FRESH))  # never-seen label -> None
    return [sorted(d) for d in domains]


def _raw_cells(domains):
    out = [()]
    for labels in domains:
        out = [cell + (v,) for cell in out for v in ["*"] + labels]
    return out


def _dicts_close(a: dict, b: dict) -> bool:
    return set(a) == set(b) and all(values_close(a[k], b[k]) for k in a)


def _views_close(a: list, b: list) -> bool:
    """Order-insensitive (cell, value) list comparison."""
    a = sorted(a, key=lambda cv: repr(cv[0]))
    b = sorted(b, key=lambda cv: repr(cv[0]))
    return [c for c, _ in a] == [c for c, _ in b] and all(
        values_close(x, y) for (_, x), (_, y) in zip(a, b)
    )


def assert_parity(mono, seg, records, rng, label):
    """Every query family answers identically on both warehouses."""
    domains = _domains(records)
    cells = _raw_cells(domains)
    for cell in cells:
        assert values_close(mono.point(cell), seg.point(cell)) or (
            mono.point(cell) is None and seg.point(cell) is None
        ), f"{label}: point({cell!r})"
    for _ in range(3):
        spec = tuple(
            "*" if rng.random() < 0.4 else rng.sample(d, min(len(d), 2))
            for d in domains
        )
        assert _dicts_close(mono.range(spec), seg.range(spec)), (
            f"{label}: range({spec!r})"
        )
    for threshold in (1.0, 5.0, 20.0):
        assert Counter(mono.iceberg(threshold)) == \
            Counter(seg.iceberg(threshold)), f"{label}: iceberg({threshold})"
        spec = tuple(
            "*" if rng.random() < 0.5 else rng.sample(d, min(len(d), 2))
            for d in domains
        )
        assert _dicts_close(
            mono.iceberg_in_range(spec, threshold),
            seg.iceberg_in_range(spec, threshold),
        ), f"{label}: iceberg_in_range({spec!r}, {threshold})"
    # Exploration parity on a sample of populated cells.
    sample = rng.sample(records, min(4, len(records))) if records else []
    for record in sample:
        cell = record[:N_DIMS]
        mono_cls, seg_cls = mono.class_of(cell), seg.class_of(cell)
        assert mono_cls[0] == seg_cls[0] and \
            values_close(mono_cls[1], seg_cls[1]), f"{label}: class_of({cell!r})"
        for op in ("rollup", "rollup_exceptions", "drilldowns", "rollups"):
            assert _views_close(
                getattr(mono, op)(cell), getattr(seg, op)(cell)
            ), f"{label}: {op}({cell!r})"
        mono_open, seg_open = mono.open_class(cell), seg.open_class(cell)
        assert mono_open["upper_bound"] == seg_open["upper_bound"], (
            f"{label}: open_class({cell!r}) upper bound"
        )
        assert sorted(mono_open["lower_bounds"], key=repr) == \
            sorted(seg_open["lower_bounds"], key=repr), (
                f"{label}: open_class({cell!r}) lower bounds"
            )
        assert sorted(mono_open["members"], key=repr) == \
            sorted(seg_open["members"], key=repr), (
                f"{label}: open_class({cell!r}) members"
            )
        assert values_close(mono_open["value"], seg_open["value"]), (
            f"{label}: open_class({cell!r}) value"
        )


def _build_pair(base_records):
    table = BaseTable.from_records(base_records, SCHEMA)
    mono = QCWarehouse(table, ("sum", "m"), cache_size=0)
    seg = SegmentedWarehouse(
        BaseTable.from_records(base_records, SCHEMA), ("sum", "m"),
        **SEG_OPTIONS,
    )
    return mono, seg


def check_program(seed, n_batches, n_rows=None, max_batch=5):
    base, batches, final = make_program(seed, n_batches, n_rows, max_batch)
    mono, seg = _build_pair(base)
    rng = random.Random(seed ^ 0xC0DE)
    current = list(base)
    for i, (inserts, deletes) in enumerate(batches):
        mono.maintain(inserts=inserts, deletes=deletes)
        seg.maintain(inserts=inserts, deletes=deletes)
        for record in deletes:
            current.remove(record)
        current.extend(inserts)
        assert_parity(mono, seg, current, rng, f"batch {i}")
    assert sorted(current) == sorted(final)
    # Force the backlog through compaction and re-check: the merged
    # segments must answer exactly like the originals.
    compacted = seg.compact_now()
    assert_parity(mono, seg, final, rng, f"after {compacted} compactions")
    assert seg.n_rows == mono.table.n_rows
    report = seg.verify(deep=True, samples=None)
    assert report.ok, report.issues


# -- the oracle --------------------------------------------------------------


class TestSegmentedOracle:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000), n_batches=st.integers(1, 6))
    def test_random_programs(self, seed, n_batches):
        check_program(seed, n_batches)

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_batches_larger_than_head(self, seed):
        """Single batches bigger than seal_rows: multiple rows land and
        the head seals immediately after the batch."""
        check_program(seed, n_batches=2, n_rows=2, max_batch=16)

    @pytest.mark.parametrize("seed", range(6))
    def test_pinned_programs(self, seed):
        """A deterministic corpus that always runs, hypothesis aside."""
        check_program(seed, n_batches=5)


class TestRecoveryParity:
    """Checkpoint mid-program, keep writing, crash, recover, compare."""

    @pytest.mark.parametrize("seed", range(4))
    def test_recover_matches_monolithic(self, seed, tmp_path):
        base, batches, final = make_program(seed, n_batches=6)
        mono, seg = _build_pair(base)
        seg.attach_wal(tmp_path / "seg.wal")
        rng = random.Random(seed ^ 0xD1CE)
        half = len(batches) // 2
        for inserts, deletes in batches[:half]:
            mono.maintain(inserts=inserts, deletes=deletes)
            seg.maintain(inserts=inserts, deletes=deletes)
        seg.checkpoint(tmp_path / "ckpt")
        for inserts, deletes in batches[half:]:
            mono.maintain(inserts=inserts, deletes=deletes)
            seg.maintain(inserts=inserts, deletes=deletes)
        # "Crash": abandon `seg`; recover from manifest + WAL tail.
        recovered = SegmentedWarehouse.recover(
            tmp_path / "ckpt", tmp_path / "seg.wal", SCHEMA,
            **SEG_OPTIONS,
        )
        assert recovered.last_recovery["replayed"] == len(batches) - half
        assert recovered.last_recovery["skipped"] == []
        assert_parity(mono, recovered, final, rng, "after recovery")
        recovered.compact_now()
        assert_parity(mono, recovered, final, rng,
                      "after recovery + compaction")

    @pytest.mark.parametrize("seed", range(2))
    def test_checkpoint_after_compaction(self, seed, tmp_path):
        """Compaction before the checkpoint changes which segment files
        exist; recovery must follow the manifest, not stale files."""
        base, batches, final = make_program(seed + 100, n_batches=6)
        mono, seg = _build_pair(base)
        seg.attach_wal(tmp_path / "seg.wal")
        rng = random.Random(seed)
        for inserts, deletes in batches:
            mono.maintain(inserts=inserts, deletes=deletes)
            seg.maintain(inserts=inserts, deletes=deletes)
        seg.compact_now()
        seg.checkpoint(tmp_path / "ckpt")
        recovered = SegmentedWarehouse.recover(
            tmp_path / "ckpt", tmp_path / "seg.wal", SCHEMA, **SEG_OPTIONS
        )
        assert recovered.last_recovery["replayed"] == 0
        assert_parity(mono, recovered, final, rng, "post-compaction ckpt")


class TestDuplicateKeyOrder:
    def test_earliest_match_delete_survives_compaction(self):
        """Two rows with the same dimension tuple and different measures
        arrive in two batches; after a seal and a compaction (which
        re-inserts the newer segment's rows as one batch) a single
        delete must still remove the *first arrival* — compaction may
        not reorder duplicates by measure."""
        key = ("v0", "v1", "v2")
        base = [("v1", "v1", "v1", 2.0)]
        mono = QCWarehouse.from_records(base, SCHEMA, ("sum", "m"),
                                        cache_size=0)
        seg = SegmentedWarehouse.from_records(
            base, SCHEMA, ("sum", "m"), seal_rows=100, seal_batches=100,
            compact_min_segments=1, cache_size=0,
        )
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


class TestFailureParity:
    def test_unmatched_delete_fails_both_and_changes_neither(self):
        base, batches, _ = make_program(3, n_batches=3)
        mono, seg = _build_pair(base)
        for inserts, deletes in batches:
            mono.maintain(inserts=inserts, deletes=deletes)
            seg.maintain(inserts=inserts, deletes=deletes)
        bogus = ("v9", "v9", "v9", 1.0)
        good = _gen_record(random.Random(0))
        with pytest.raises(MaintenanceError):
            mono.maintain(inserts=[good], deletes=[bogus])
        with pytest.raises(MaintenanceError):
            seg.maintain(inserts=[good], deletes=[bogus])
        rng = random.Random(99)
        records = [r for r in _final_records(base, batches)]
        assert_parity(mono, seg, records, rng, "after failed batch")

    def test_delete_more_copies_than_exist_fails(self):
        record = ("v0", "v0", "v0", _measure((0, 0, 0)))
        mono, seg = _build_pair([record, record])
        for wh in (mono, seg):
            with pytest.raises(MaintenanceError):
                wh.maintain(deletes=[record] * 3)
        assert mono.point(("v0", "v0", "v0")) is not None
        assert values_close(
            mono.point(("v0", "v0", "v0")), seg.point(("v0", "v0", "v0"))
        )


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
    "iceberg-strategy": [
        ("iceberg_in_range", (("*", "*", "*"), 1.0), {"strategy": "bogus"},
         QueryError),
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
    records = [
        (_label(i), _label(i), _label(i), _measure((i, i, i)))
        for i in range(CARD)
    ] * 3
    mono = QCWarehouse.from_records(records, SCHEMA, ("sum", "m"),
                                    cache_size=0)
    seg = SegmentedWarehouse.from_records(
        records, SCHEMA, ("sum", "m"), cache_size=0,
        seal_rows=request.param, seal_batches=100,
    )
    extra = [("v0", "v0", "v1", _measure((0, 0, 1)))]
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
                    assert "unknown iceberg strategy" in str(info.value)
                if kind == "range-arity":
                    assert repr(args[0]) in str(info.value), (op, wh)

    def test_every_family_answers_alike(self, diagonal):
        """All ten families, on several pieces and on the N = 1 store;
        ``"mark"`` has no several-piece plan of its own and answers by
        filtering the gathered range, like ``"filter"``."""
        mono, seg, records = diagonal
        assert_parity(mono, seg, records, random.Random(1), "diagonal")
        spec = (["v0", "v1"], "*", "*")
        assert _dicts_close(
            mono.iceberg_in_range(spec, 2.0, strategy="mark"),
            seg.iceberg_in_range(spec, 2.0, strategy="mark"),
        )


def _final_records(base, batches):
    current = list(base)
    for inserts, deletes in batches:
        for record in deletes:
            current.remove(record)
        current.extend(inserts)
    return current
