"""Bounded LRU row caches for the stored-query engine.

Upper-layer index rows (``blocks``, ``inodes``) are tiny — ``O(n/f)``
rows for an ``n``-node tree — and immutable once a tree is stored, so a
small in-process cache turns the per-hop point ``SELECT``s of the
layered LCA algorithm into dictionary lookups on the warm path.
:class:`LRUCache` is deliberately minimal: a bounded mapping with
least-recently-used eviction and hit/miss/eviction counters that
:meth:`repro.storage.engine.StoredQueryEngine.cache_stats` aggregates
for the benchmarks.

Segmented admission
-------------------
A cache holds two segments, each LRU-bounded by ``maxsize`` on its own:

* the **probationary** segment, where ordinary ``put`` calls land, and
* the **pinned** segment, for entries inserted with ``put(...,
  pinned=True)``.

Eviction never crosses segments: a flood of probationary inserts — a
layer-0 full-tree scan, like the analytics subsystem's bipartition
extraction — can only evict other probationary entries, so the pinned
upper-layer index rows that every layered-LCA walk depends on stay
resident and the warm-path statement-count guarantee survives
adversarial scan loads.  The engine decides what to pin (see
:mod:`repro.storage.engine`); the cache only honours the flag.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Hashable

from repro.errors import StorageError


@dataclass(frozen=True)
class CacheStats:
    """Counters of one cache (or an aggregate over several).

    Attributes
    ----------
    hits / misses:
        Lookup outcomes since creation (or the last ``reset_stats``).
    evictions:
        Entries dropped to respect the size bound (either segment).
    size / maxsize:
        Current total entries and the per-segment entry bound.
    pinned:
        Entries currently held in the pinned segment.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    size: int = 0
    maxsize: int = 0
    pinned: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when unused)."""
        total = self.lookups
        return self.hits / total if total else 0.0

    def __add__(self, other: "CacheStats") -> "CacheStats":
        return CacheStats(
            hits=self.hits + other.hits,
            misses=self.misses + other.misses,
            evictions=self.evictions + other.evictions,
            size=self.size + other.size,
            maxsize=self.maxsize + other.maxsize,
            pinned=self.pinned + other.pinned,
        )

    def as_dict(self) -> dict[str, int | float]:
        """JSON-friendly rendering (used by the CLI and benchmarks)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "size": self.size,
            "maxsize": self.maxsize,
            "pinned": self.pinned,
            "hit_rate": round(self.hit_rate, 4),
        }


_MISSING = object()


class LRUCache:
    """Bounded mapping with least-recently-used eviction and a pinned
    segment that ordinary inserts can never evict.

    Parameters
    ----------
    maxsize:
        Maximum number of entries **per segment**; must be at least 1
        (:class:`~repro.errors.StorageError` otherwise, so callers can
        catch configuration mistakes as :class:`~repro.errors.CrimsonError`).
        A cache therefore holds at most ``2 · maxsize`` entries, but the
        pinned segment only grows as large as the index rows actually
        pinned into it (``O(n/f)`` for the engine's uses).

    Notes
    -----
    ``get`` counts a hit or a miss; ``put`` never counts a lookup, so
    pre-warming (batch fills) does not inflate the hit rate.  A pinned
    ``put`` promotes a probationary key; the reverse never happens —
    pinning is sticky (see :meth:`put`).
    """

    __slots__ = ("maxsize", "_data", "_pinned", "hits", "misses", "evictions")

    def __init__(self, maxsize: int) -> None:
        if maxsize < 1:
            raise StorageError(f"cache size must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self._data: OrderedDict[Hashable, Any] = OrderedDict()
        self._pinned: OrderedDict[Hashable, Any] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._data) + len(self._pinned)

    def __contains__(self, key: Hashable) -> bool:
        """Membership test; does not count as a lookup or refresh recency."""
        return key in self._data or key in self._pinned

    def is_pinned(self, key: Hashable) -> bool:
        """Whether ``key`` sits in the pinned segment (not a lookup)."""
        return key in self._pinned

    @property
    def pinned_count(self) -> int:
        return len(self._pinned)

    def get(self, key: Hashable, default: Any = None) -> Any:
        """Fetch ``key``, refreshing its recency; counts a hit or miss."""
        value = self._pinned.get(key, _MISSING)
        if value is not _MISSING:
            self.hits += 1
            self._pinned.move_to_end(key)
            return value
        value = self._data.get(key, _MISSING)
        if value is _MISSING:
            self.misses += 1
            return default
        self.hits += 1
        self._data.move_to_end(key)
        return value

    def put(self, key: Hashable, value: Any, pinned: bool = False) -> None:
        """Insert or refresh ``key``, evicting the segment's LRU entry
        when that segment is full.

        ``pinned`` entries live in the pinned segment, which only
        pinned inserts can evict from; unpinned (probationary) inserts
        evict among themselves.  Pinning is **sticky**: once a key is
        pinned, an unpinned re-put refreshes it *in place* — otherwise
        a scan that happens to re-fetch a skeleton row (a repeated
        adversarial scan, say) would demote it into the probationary
        segment and evict it, silently voiding the admission guarantee.
        A pinned put does promote a probationary key.
        """
        if not pinned and key in self._pinned:
            self._pinned.move_to_end(key)
            self._pinned[key] = value
            return
        target = self._pinned if pinned else self._data
        if pinned:
            self._data.pop(key, None)  # promotion
        if key in target:
            target.move_to_end(key)
            target[key] = value
            return
        target[key] = value
        if len(target) > self.maxsize:
            target.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        """Drop all entries (counters are kept; see ``reset_stats``)."""
        self._data.clear()
        self._pinned.clear()

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @property
    def stats(self) -> CacheStats:
        return CacheStats(
            hits=self.hits,
            misses=self.misses,
            evictions=self.evictions,
            size=len(self),
            maxsize=self.maxsize,
            pinned=len(self._pinned),
        )

    def __repr__(self) -> str:
        return (
            f"LRUCache(size={len(self._data)}+{len(self._pinned)}p"
            f"/{self.maxsize}, hits={self.hits}, misses={self.misses})"
        )
