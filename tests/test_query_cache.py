"""Tests for the LSN-stamped query cache and its warehouse integration.

The cache may only ever serve an answer computed at the warehouse's
current serving version — any insert, delete, rebuild, recovery, or
repairing verify must atomically invalidate every cached entry.
"""

import threading

import pytest

from repro.core.query_cache import (
    MISS,
    LsnQueryCache,
    constrained_iceberg_cache_key,
    iceberg_cache_key,
    point_cache_key,
    range_cache_key,
)
from repro.core.warehouse import QCWarehouse
from repro.cube.schema import Schema
from tests.conftest import dict_view

SCHEMA = Schema(dimensions=("Store", "Product", "Season"), measures=("Sale",))
RECORDS = [
    ("S1", "P1", "s", 6.0),
    ("S1", "P2", "s", 12.0),
    ("S2", "P1", "f", 9.0),
]


def make_wh(**kwargs):
    return QCWarehouse.from_records(
        RECORDS, SCHEMA, aggregate=("avg", "Sale"), **kwargs
    )


class TestCacheUnit:
    def test_store_then_lookup(self):
        cache = LsnQueryCache(maxsize=4)
        cache.store("k", (1, 0), 42)
        assert cache.lookup("k", (1, 0)) == 42

    def test_miss_sentinel_is_not_none(self):
        """None is a legitimate cached answer (an empty-cover cell); the
        sentinel distinguishing it from absence must never leak."""
        cache = LsnQueryCache(maxsize=4)
        assert cache.lookup("k", (1, 0)) is MISS
        cache.store("k", (1, 0), None)
        assert cache.lookup("k", (1, 0)) is None

    def test_stamp_change_invalidates_everything(self):
        cache = LsnQueryCache(maxsize=8)
        for i in range(4):
            cache.store(i, (1, 0), i)
        assert cache.lookup(2, (2, 0)) is MISS  # newer stamp: all stale
        assert cache.lookup(3, (2, 0)) is MISS
        assert cache.stats()["size"] <= 1

    def test_lru_eviction_bounds_size(self):
        cache = LsnQueryCache(maxsize=3)
        stamp = (1, 0)
        for i in range(10):
            cache.store(i, stamp, i)
        assert cache.stats()["size"] == 3
        assert cache.lookup(9, stamp) == 9
        assert cache.lookup(0, stamp) is MISS

    def test_lookup_refreshes_recency(self):
        cache = LsnQueryCache(maxsize=2)
        stamp = (1, 0)
        cache.store("a", stamp, 1)
        cache.store("b", stamp, 2)
        cache.lookup("a", stamp)     # "a" is now the most recent
        cache.store("c", stamp, 3)   # evicts "b", not "a"
        assert cache.lookup("a", stamp) == 1
        assert cache.lookup("b", stamp) is MISS

    def test_stats_hit_rate(self):
        cache = LsnQueryCache(maxsize=4)
        cache.store("k", (1, 0), 42)
        cache.lookup("k", (1, 0))
        cache.lookup("absent", (1, 0))
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["hit_rate"] == 0.5


class TestCacheKeys:
    """Normalized, namespaced keys for every cacheable query family."""

    def test_point_key_roundtrip(self):
        assert point_cache_key(("S1", "*", "f")) == ("point", ("S1", "*", "f"))
        assert point_cache_key((["S1"], "*")) is None  # unhashable part

    def test_range_key_normalizes_order_and_duplicates(self):
        a = range_cache_key((["S2", "S1", "S1"], "*", "f"))
        b = range_cache_key((["S1", "S2"], "*", "f"))
        assert a == b and a is not None

    def test_range_key_scalar_equals_singleton_list(self):
        assert range_cache_key(("S1", "*")) == range_cache_key((["S1"], "*"))

    def test_range_key_unsortable_spec_uncacheable(self):
        assert range_cache_key((["S1", 3], "*")) is None

    def test_iceberg_keys_distinguish_parameters(self):
        keys = {
            iceberg_cache_key(9.0, ">="),
            iceberg_cache_key(9.0, ">"),
            iceberg_cache_key(8.0, ">="),
            constrained_iceberg_cache_key(("*", "*"), 9.0, ">="),
            constrained_iceberg_cache_key(("*", "*"), 9.0, ">"),
        }
        assert len(keys) == 5

    def test_namespaces_do_not_collide(self):
        """A point cell and a range spec with the same raw tuple must
        occupy distinct cache slots."""
        assert point_cache_key(("S1", "*")) != range_cache_key(("S1", "*"))

    def test_eviction_counter(self):
        cache = LsnQueryCache(maxsize=2)
        for i in range(5):
            cache.store(i, (1, 0), i)
        assert cache.stats()["evictions"] == 3


class TestRangeIcebergCaching:
    """Satellite 2: range and iceberg answers ride the stamped cache."""

    def test_repeat_range_hits_cache(self):
        wh = make_wh()
        spec = (["S1", "S2"], "*", "s")
        first = wh.range(spec)
        assert wh.range(spec) == first
        assert wh.stats()["query_cache"]["hits"] == 1

    def test_equivalent_range_specs_share_an_entry(self):
        wh = make_wh()
        assert wh.range((["S2", "S1"], "*", "s")) == wh.range(
            (["S1", "S2"], "*", "s")
        )
        assert wh.stats()["query_cache"]["hits"] == 1

    def test_cached_range_result_is_isolated(self):
        wh = make_wh()
        spec = ("*", "*", "s")
        first = wh.range(spec)
        first[("tampered",)] = -1.0
        assert ("tampered",) not in wh.range(spec)

    def test_repeat_iceberg_hits_cache(self):
        wh = make_wh()
        first = wh.iceberg(9.0)
        second = wh.iceberg(9.0)
        assert second == first
        second.append("tampered")
        assert wh.iceberg(9.0) == first
        assert wh.stats()["query_cache"]["hits"] >= 1

    def test_iceberg_op_variants_are_distinct_entries(self):
        wh = make_wh()
        above = wh.iceberg(9.0, op=">=")
        below = wh.iceberg(9.0, op="<")
        assert above != below
        assert wh.stats()["query_cache"]["hits"] == 0

    def test_constrained_iceberg_cached_per_op(self):
        wh = make_wh()
        spec = (["S1", "S2"], ["P1", "P2"], "*")
        above = wh.iceberg_in_range(spec, 6.0, op=">")
        below = wh.iceberg_in_range(spec, 6.0, op="<=")
        assert above and below and above != below
        assert wh.iceberg_in_range(spec, 6.0, op=">") == above
        assert wh.stats()["query_cache"]["hits"] == 1  # distinct entries

    def test_insert_invalidates_range_and_iceberg(self):
        wh = make_wh()
        spec = (["S1", "S2"], "*", "*")
        before_range = wh.range(spec)
        before_ice = wh.iceberg(5.0)
        wh.insert([("S2", "P2", "s", 30.0)])
        assert wh.range(spec) != before_range
        assert wh.iceberg(5.0) != before_ice


class TestWarehouseIntegration:
    def test_repeat_query_hits_cache(self):
        wh = make_wh()
        assert wh.point(("S1", "*", "*")) == 9.0
        assert wh.point(("S1", "*", "*")) == 9.0
        stats = wh.stats()["query_cache"]
        assert stats["hits"] == 1

    def test_cached_none_for_empty_cells(self):
        wh = make_wh()
        assert wh.point(("S2", "*", "s")) is None
        assert wh.point(("S2", "*", "s")) is None
        assert wh.stats()["query_cache"]["hits"] == 1

    def test_insert_invalidates(self):
        wh = make_wh()
        assert wh.point(("S1", "*", "*")) == 9.0
        wh.insert([("S1", "P1", "w", 3.0)])
        assert wh.point(("S1", "*", "*")) == 7.0

    def test_delete_invalidates(self):
        wh = make_wh()
        assert wh.point(("S1", "*", "*")) == 9.0
        wh.delete([("S1", "P2", "s", 12.0)])
        assert wh.point(("S1", "*", "*")) == 6.0

    def test_insert_invalidates_with_wal(self, tmp_path):
        """With a WAL attached the stamp moves with the log position."""
        wh = make_wh()
        wh.attach_wal(tmp_path / "wh.wal")
        assert wh.point(("S1", "*", "*")) == 9.0
        wh.insert([("S1", "P1", "w", 3.0)])
        assert wh.point(("S1", "*", "*")) == 7.0

    def test_recovery_serves_post_replay_answers(self, tmp_path):
        wal_path = tmp_path / "wh.wal"
        wh = make_wh()
        wh.attach_wal(wal_path)
        wh.checkpoint(tmp_path / "ckpt")
        wh.insert([("S1", "P1", "w", 3.0)])
        # A crash here loses the in-memory tree; recovery replays the WAL.
        recovered = QCWarehouse.recover(tmp_path / "ckpt", wal_path, SCHEMA)
        assert recovered.point(("S1", "*", "*")) == 7.0
        assert recovered.point(("S1", "*", "*")) == 7.0  # cached, same answer

    def test_rebuild_invalidates(self):
        wh = make_wh()
        assert wh.point(("S1", "*", "*")) == 9.0
        wh.rebuild()
        assert wh.point(("S1", "*", "*")) == 9.0
        # Post-rebuild answers were recomputed, not replayed from the
        # pre-rebuild cache: the rebuild bumped the serving stamp.
        assert wh.stats()["query_cache"]["invalidations"] >= 1

    def test_degraded_mode_bypasses_cache(self):
        """A verify that rebuilds a corrupt tree drops every cached
        answer; the clean one after it drops none."""
        wh = make_wh()
        assert wh.point(("S2", "*", "f")) == 9.0  # now cached
        victim = next(iter(wh.tree.iter_class_nodes()))
        wh.tree.set_state(victim, (123456.0, 1))
        stamp = wh.serving_stamp()
        assert not wh.verify().ok
        assert wh.serving_stamp() != stamp
        # Previously-cached cells are recomputed from the rebuilt tree.
        assert wh.point(("S2", "*", "f")) == 9.0
        counters = wh.stats()["query_cache"]
        assert counters["invalidations"] >= 1 and counters["hits"] == 0
        assert wh.verify().ok
        assert wh.point(("S2", "*", "f")) == 9.0
        assert wh.stats()["query_cache"]["hits"] == 1

    def test_a_view_built_before_a_write_is_not_installed_after_it(
            self, monkeypatch):
        """A reader builds the lazy view; a write lands between the
        build and the install.  The write must win: its answer is what
        the next read sees, from the cache or not."""
        wh = make_wh()
        build = wh.snapshot_view
        writer = threading.Thread(
            target=wh.insert, args=([("S1", "P1", "w", 3.0)],))

        def build_then_race():
            snapshot = build()
            writer.start()
            writer.join(0.5)  # the write, unless the store lock holds it
            return snapshot

        monkeypatch.setattr(wh, "snapshot_view", build_then_race)
        assert wh.point(("S1", "*", "*")) == 9.0  # the pre-write view
        writer.join(5.0)
        assert not writer.is_alive()
        monkeypatch.undo()
        assert wh.point(("S1", "*", "*")) == 7.0
        assert wh.view.stamp == wh.serving_stamp()

    def test_cache_disabled(self):
        wh = make_wh(cache_size=0)
        assert wh.point(("S1", "*", "*")) == 9.0
        assert "query_cache" not in wh.stats()

    def test_unhashable_cell_matches_uncached_behavior(self):
        """A label the encoder cannot hash fails identically with and
        without the cache in front — the cache never masks (or adds)
        errors, it only skips itself."""
        wh = make_wh()
        plain = make_wh(cache_size=0)
        with pytest.raises(TypeError):
            plain.point((["S1", "S9"], "*", "*"))
        with pytest.raises(TypeError):
            wh.point((["S1", "S9"], "*", "*"))

    def test_dict_engine_answers_match(self):
        frozen_wh = make_wh()
        reference = dict_view(frozen_wh)
        for cell in (("S1", "*", "*"), ("*", "P2", "*"), ("S2", "*", "s")):
            assert frozen_wh.point(cell) == reference.point(cell)
        assert reference.describe()["frozen"] is False
        assert frozen_wh.stats()["serving"] == "frozen"
