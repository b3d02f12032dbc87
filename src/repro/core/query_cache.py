"""A bounded LRU query cache whose validity is pinned to a WAL LSN.

The warehouse answers point, range, and iceberg queries out of this
cache on the hot serving path.  Correctness under maintenance and crash
recovery comes from *stamping*, not from enumerating what each mutation
touched: every entry set is valid at exactly one logical version — the
warehouse's serving stamp, built from the write-ahead log's last LSN
(PR 1) plus a local mutation epoch for un-logged changes (rebuild,
WAL-less warehouses).  A lookup presenting a different stamp atomically
drops the entire cache before answering, so a single insert, delete,
rebuild, or recovery can never leave a stale answer behind — including
answers for cells the mutation *indirectly* changed through class
merging or splitting, which per-cell invalidation would miss.

Because one cache holds answers of several query kinds, keys are
*namespaced*: the helpers below normalize each raw query into a
canonical hashable key (``("point", cell)``, ``("range", spec)``, …).
Range specs are canonicalized — scalar, list, set, and ``range`` forms
of the same candidate set, in any order, produce the same key — so
equivalent queries share one entry.  The normalized spec is a valid raw
spec, and the warehouse hands it to the range kernel as is, so a range
is sorted and de-duplicated once per miss.  A query that cannot be
normalized (unhashable labels, values that do not sort) gets ``None``
and bypasses the cache.

Eviction is plain LRU over a :class:`collections.OrderedDict`; hits,
misses, eviction, and invalidation counts are kept for the serving
benchmark's cache-hit-rate metric.  A probe is one ``dict.get``.  The
cache keeps no demand heat: the one reader of heat, a server's
post-swap warmer, keeps its own (:class:`~repro.serving.server.
DemandHeat`).
"""

from __future__ import annotations

from collections import OrderedDict

from repro.core.cells import ALL

#: Returned by :meth:`LsnQueryCache.lookup` on a miss; a sentinel object
#: (not None) because None is a legitimate cached answer (empty cover).
MISS = object()


def _hashable(key):
    """``key`` if it can live in a dict, else None (cache bypass)."""
    try:
        hash(key)
    except TypeError:
        return None
    return key


def point_cache_key(raw_cell):
    """Cache key for a raw point-query cell, or None when uncacheable."""
    try:
        return _hashable(("point", tuple(raw_cell)))
    except TypeError:
        return None


def normalize_range_spec(raw_spec):
    """Canonical hashable form of a raw range spec, or None.

    Per dimension: ``*``/None/ALL stays ``"*"``; a scalar becomes a
    one-value tuple; any accepted iterable form (list, tuple, set,
    frozenset, ``range``) becomes a sorted duplicate-free tuple — so
    ``[2, 1]``, ``(1, 2)``, ``{1, 2}`` and ``range(1, 3)`` all share one
    key.  Specs with unsortable or unhashable candidates return None.
    """
    try:
        entries = tuple(raw_spec)
    except TypeError:
        return None
    normalized = []
    for entry in entries:
        if entry is ALL or entry is None or entry == "*":
            normalized.append("*")
        elif isinstance(entry, (list, tuple, set, frozenset, range)):
            try:
                normalized.append(tuple(sorted(set(entry))))
            except TypeError:
                return None
        else:
            normalized.append((entry,))
    return _hashable(tuple(normalized))


def range_cache_key(raw_spec):
    """Cache key for a raw range query, or None when uncacheable."""
    spec = normalize_range_spec(raw_spec)
    return None if spec is None else ("range", spec)


def iceberg_cache_key(threshold, op):
    """Cache key for a pure iceberg query, or None when uncacheable."""
    return _hashable(("iceberg", threshold, op))


def constrained_iceberg_cache_key(raw_spec, threshold, op):
    """Cache key for a constrained iceberg query, or None."""
    spec = normalize_range_spec(raw_spec)
    if spec is None:
        return None
    return _hashable(("iceberg_range", spec, threshold, op))


class LsnQueryCache:
    """LRU cache of query answers, all valid at one serving stamp."""

    def __init__(self, maxsize: int = 1024):
        if maxsize <= 0:
            raise ValueError(f"cache maxsize must be positive, got {maxsize}")
        self.maxsize = maxsize
        self._entries: "OrderedDict" = OrderedDict()
        self._stamp = None
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.evictions = 0
        #: Entries re-filled by a server's post-swap warming (bumped by
        #: the warmer, :meth:`QCServer._warm_cache
        #: <repro.serving.server.QCServer._warm_cache>`).
        self.warmed = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def stamp(self):
        """The stamp the current entries are valid at (None when empty)."""
        return self._stamp

    def lookup(self, key, stamp):
        """The cached answer for ``key`` at ``stamp``, or :data:`MISS`;
        counts one hit or one miss.

        A stamp different from the one the entries were filled under
        invalidates the whole cache first — the atomic part: between the
        comparison and the answer there is no window where an old entry
        can be served against new data.  An unhashable ``key`` raises
        ``TypeError`` before anything is counted or invalidated, so a
        caller can try a key and bypass the cache on that error.
        """
        entries = self._entries
        value = entries.get(key, MISS)
        if stamp != self._stamp:
            self.invalidate(stamp)
            value = MISS
        if value is MISS:
            self.misses += 1
        else:
            entries.move_to_end(key)  # most recently used
            self.hits += 1
        return value

    def probe(self, key, stamp):
        """The hit half of :meth:`lookup`: the cached answer, counted as
        a hit exactly as ``lookup`` counts one (hits, LRU order) — or
        :data:`MISS` with nothing counted and nothing invalidated.

        For a caller that answers hits itself and hands everything else
        to a path that does its own ``lookup``: that lookup counts the
        miss (and re-pins the stamp) once, so the hit rate is the one a
        single ``lookup`` per request would have produced.
        """
        if stamp != self._stamp:
            return MISS
        entries = self._entries
        value = entries.get(key, MISS)
        if value is not MISS:
            entries.move_to_end(key)
            self.hits += 1
        return value

    def store(self, key, stamp, value) -> None:
        """Remember ``key -> value`` as valid at ``stamp``."""
        if stamp != self._stamp:
            self.invalidate(stamp)
        entries = self._entries
        entries[key] = value
        if len(entries) > self.maxsize:
            entries.popitem(last=False)
            self.evictions += 1

    def invalidate(self, stamp=None) -> None:
        """Drop every entry and re-pin the cache to ``stamp``."""
        self._entries.clear()
        self._stamp = stamp
        self.invalidations += 1

    def stats(self) -> dict:
        """Hit/miss/size counters (for ``QCWarehouse.stats`` and benchmarks).

        ``hot_tracked`` is 0 here: a cache keeps no demand heat.  A
        server that warms its cache reports its own heat table's size
        under that key (:class:`~repro.serving.server.DemandHeat`).
        """
        lookups = self.hits + self.misses
        return {
            "size": len(self._entries),
            "maxsize": self.maxsize,
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "evictions": self.evictions,
            "warmed": self.warmed,
            "hot_tracked": 0,
            "hit_rate": (self.hits / lookups) if lookups else 0.0,
        }

    def __repr__(self):
        return (
            f"LsnQueryCache(size={len(self._entries)}/{self.maxsize}, "
            f"hits={self.hits}, misses={self.misses}, stamp={self._stamp!r})"
        )
