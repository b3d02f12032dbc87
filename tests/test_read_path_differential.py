"""The warehouse read path answers like the uncached snapshot.

``QCWarehouse.point`` / ``range`` put a stamped query cache, a key
normalization and a one-pass label encoding in front of the kernel.  None
of that may change an answer or an error: for random raw points and
ranges — unknown labels, every spelling of ``*``, a scalar against a
one-element list, ``range`` and ``set`` entries, NumPy scalar labels,
wrong arity, unhashable cells — each answer equals a fresh
``snapshot_view()``'s (which has no cache in front), or both raise the
same exception class.  Both stores, at cache sizes 0, 1 and 1024, on the
miss and on the hit, across writes.  The cache ledger is pinned too.
A constrained iceberg is held to the range answer filtered by the
aggregate's rank, on a scalar and on a multi-aggregate.
"""

from __future__ import annotations

import math
import operator
import random

import numpy as np
import pytest

from repro.core.cells import ALL
from repro.core.warehouse import QCWarehouse
from repro.cube.schema import Schema
from repro.segments import SegmentedWarehouse

SCHEMA = Schema(dimensions=("Year", "Kind", "Size"), measures=("M",))
YEARS, KINDS, SIZES = range(2000, 2006), ("a", "b", "c", "d"), range(5)
STORES = ("monolithic", "segmented")
ANY = ("*", None, ALL)
#: The iceberg operators, as the comparisons they make.
OPS = {">=": operator.ge, ">": operator.gt, "<=": operator.le,
       "<": operator.lt}


def _records(rng, n):
    return [(rng.choice(YEARS), rng.choice(KINDS), rng.choice(SIZES),
             float(rng.randint(1, 9))) for _ in range(n)]


def _store(kind, records, cache_size, aggregate=("sum", "M")):
    """A store over ``records``: the segmented one written in batches of
    eight rows past its seal threshold, so it reads several pieces."""
    if kind == "segmented":
        wh = SegmentedWarehouse.from_records(
            records[:8], SCHEMA, aggregate, seal_rows=8,
            cache_size=cache_size)
        for at in range(8, len(records), 8):
            wh.insert(records[at:at + 8])
        assert len(wh.pieces()) > 2
        return wh
    return QCWarehouse.from_records(records, SCHEMA, aggregate,
                                    cache_size=cache_size)


def _label(rng, dim):
    """A known label, an unknown one, or a known one as a NumPy scalar."""
    domain = (YEARS, KINDS, SIZES)[dim]
    pick = rng.random()
    if pick < 0.15:
        return (1999, "zz", 9)[dim]
    label = rng.choice(domain)
    if pick < 0.35:
        return (np.int64, np.str_, np.int32)[dim](label)
    return label


def _point(rng):
    roll = rng.random()
    if roll < 0.04:
        return (_label(rng, 0), _label(rng, 1))  # wrong arity
    if roll < 0.08:
        return ([_label(rng, 0)], "*", "*")  # unhashable
    return tuple(rng.choice(ANY) if rng.random() < 0.35 else _label(rng, d)
                 for d in range(3))


def _entry(rng, dim):
    domain = (YEARS, KINDS, SIZES)[dim]
    roll = rng.random()
    if roll < 0.2:
        return rng.choice(ANY)
    if roll < 0.35:
        return _label(rng, dim)
    if roll < 0.5:
        return [_label(rng, dim)]
    if roll < 0.65:
        return {rng.choice(domain), _label(rng, dim)}
    if roll < 0.75 and dim != 1:
        lo = rng.choice(domain)
        return range(lo - 1, lo + rng.randint(0, 3))
    if roll < 0.8:
        return frozenset()
    return [_label(rng, dim) for _ in range(rng.randint(1, 4))]


def _spec(rng):
    roll = rng.random()
    if roll < 0.04:
        return (_entry(rng, 0),)  # wrong arity
    if roll < 0.08:
        return ([[_label(rng, 0)]], "*", "*")  # unhashable candidate
    if roll < 0.1:
        return ({"a": 1}, "*", "*")  # an unhashable scalar entry
    return tuple(_entry(rng, d) for d in range(3))


def _outcome(fn, arg):
    try:
        return ("ok", fn(arg))
    except Exception as exc:  # noqa: BLE001 - the class is compared
        return ("raised", type(exc))


def _assert_same_read(wh, family, arg):
    want = _outcome(getattr(wh.snapshot_view(), family), arg)
    for attempt in ("miss", "hit"):
        got = _outcome(getattr(wh, family), arg)
        assert got == want, (family, arg, attempt)
        if family == "range" and got[0] == "ok":
            got[1][("poison",)] = -1.0  # a private copy: no effect


@pytest.mark.parametrize("cache_size", [0, 1, 1024])
@pytest.mark.parametrize("kind", STORES)
def test_reads_answer_like_the_uncached_snapshot(kind, cache_size):
    rng = random.Random(f"{kind}:{cache_size}")
    records = _records(rng, 60)
    wh = _store(kind, records, cache_size)
    try:
        for round_ in range(3):
            for _ in range(120):
                _assert_same_read(wh, "point", _point(rng))
            for _ in range(60):
                _assert_same_read(wh, "range", _spec(rng))
            # Writes move the stamp; later rounds read the new state.
            inserts = _records(rng, 5) + [(2010 + round_, "e", 0, 7.0)]
            deletes = [records.pop(rng.randrange(len(records)))]
            wh.maintain(inserts=inserts, deletes=deletes)
            records += inserts
        stats = wh.stats().get("query_cache")
        if cache_size:
            assert stats["hits"] > 0 and stats["size"] <= cache_size
        else:
            assert stats is None
    finally:
        wh.close()


@pytest.mark.parametrize("kind", STORES)
def test_equivalent_spellings_answer_alike(kind):
    rng = random.Random(kind)
    wh = _store(kind, _records(rng, 60), 1024)
    try:
        view = wh.snapshot_view()
        pairs = [
            (("b", "*", "*"), (["b"], None, ALL)),
            ((2001, "*", 3), ((2001,), "*", {3})),
            (([2003, 2001, 2001], "*", "*"), (range(2001, 2004, 2), "*", "*")),
            ((np.int64(2002), np.str_("a"), "*"), (2002, ["a"], "*")),
            ((["a", "zz"], "*", "*"), ("a", "*", "*")),
        ]
        for left, right in pairs:
            want = view.range(right)
            assert wh.range(left) == want == wh.range(right), (left, right)
        assert wh.range(("zz", "*", "*")) == {} == view.range(("zz", "*", "*"))
        assert (wh.point((np.int64(2002), np.str_("a"), "*"))
                == view.point((2002, "a", "*")))
    finally:
        wh.close()


def _threshold(rng):
    """NaN, an infinity, an integer (ties with the integral sums) or any
    float."""
    roll = rng.random()
    if roll < 0.1:
        return math.nan
    if roll < 0.2:
        return rng.choice((math.inf, -math.inf))
    if roll < 0.5:
        return float(rng.randint(0, 40))
    return rng.uniform(-1.0, 60.0)


def _filtered(answer, threshold, op):
    """A range answer kept where the rank (a tuple's first part)
    satisfies ``rank op threshold``."""
    keep = OPS[op]
    return {cell: value for cell, value in answer.items()
            if keep(value[0] if isinstance(value, tuple) else value,
                    threshold)}


@pytest.mark.parametrize("aggregate", [("sum", "M"), [("sum", "M"), "count"]],
                         ids=["sum", "sum-count"])
@pytest.mark.parametrize("cache_size", [0, 1024])
@pytest.mark.parametrize("kind", STORES)
def test_constrained_iceberg_is_the_filtered_range(kind, cache_size,
                                                   aggregate):
    """``iceberg_in_range(spec, t, op)`` is the snapshot's range answer
    filtered by the aggregate's rank — every spec family above, NaN and
    infinite thresholds, all four operators — or both raise alike."""
    rng = random.Random(f"iceberg:{kind}:{cache_size}:{aggregate}")
    wh = _store(kind, _records(rng, 60), cache_size, aggregate)
    try:
        for _ in range(2):
            view = wh.snapshot_view()
            for _ in range(80):
                spec, threshold = _spec(rng), _threshold(rng)
                op = rng.choice(sorted(OPS))
                want = _outcome(
                    lambda s: _filtered(view.range(s), threshold, op), spec)
                for attempt in ("miss", "hit"):
                    got = _outcome(
                        lambda s: wh.iceberg_in_range(s, threshold, op), spec)
                    assert got == want, (spec, threshold, op, attempt)
            wh.insert(_records(rng, 6))
    finally:
        wh.close()


class TestCacheLedger:
    """The counters the per-layer ``cache.hit_rate`` reads: one hit or
    one miss per cacheable request, one eviction per miss the full cache
    cannot hold, and nothing for a request that cannot be a key."""

    @pytest.mark.parametrize("kind", STORES)
    def test_hits_misses_and_evictions_balance(self, kind):
        rng = random.Random(f"ledger:{kind}")
        wh = _store(kind, _records(rng, 60), 16)
        try:
            cells = [tuple(rng.choice(d) for d in (YEARS, KINDS, SIZES))
                     for _ in range(30)]
            specs = [([rng.choice(YEARS), rng.choice(YEARS)], "*",
                      rng.choice(SIZES)) for _ in range(10)]
            requests = [("point", c) for c in cells]
            requests += [("range", s) for s in specs]
            replay = [rng.choice(requests) for _ in range(400)]
            for family, arg in replay:
                getattr(wh, family)(arg)
            ledger = wh.stats()["query_cache"]
            assert ledger["hits"] + ledger["misses"] == len(replay)
            assert ledger["hits"] > 0
            assert ledger["size"] == 16
            assert ledger["evictions"] == ledger["misses"] - ledger["size"]
            for bad in ((["x"], "*", "*"), ({"y"}, "*", "*")):
                with pytest.raises(TypeError):
                    wh.point(bad)
            with pytest.raises(TypeError):
                wh.range(([["x"]], "*", "*"))
            assert wh.stats()["query_cache"] == ledger
        finally:
            wh.close()
