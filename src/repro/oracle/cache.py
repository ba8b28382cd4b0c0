"""A small LRU cache for query results, with hit/miss accounting.

``functools.lru_cache`` memoises a function, but the oracle's
single-pair path needs to key it on normalised pairs, clear it on
updates and expose occupancy for monitoring — so this is an explicit
``OrderedDict``-based implementation instead.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Hashable

_SENTINEL = object()


@dataclass(frozen=True)
class CacheInfo:
    """Point-in-time cache statistics."""

    hits: int
    misses: int
    capacity: int
    size: int

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class LRUCache:
    """Least-recently-used mapping with a fixed capacity.

    A capacity of 0 disables the cache entirely (every ``get`` is a
    recorded miss and ``put`` is a no-op), which lets callers keep one
    unconditional code path.
    """

    __slots__ = ("capacity", "_data", "hits", "misses")

    def __init__(self, capacity: int) -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self._data: OrderedDict = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, key: Hashable, default=None):
        """Look up ``key``, refreshing its recency on a hit."""
        value = self._data.get(key, _SENTINEL)
        if value is _SENTINEL:
            self.misses += 1
            return default
        self.hits += 1
        self._data.move_to_end(key)
        return value

    def put(self, key: Hashable, value) -> None:
        """Insert ``key``, evicting the least recently used if full."""
        if self.capacity == 0:
            return
        data = self._data
        if key in data:
            data.move_to_end(key)
        data[key] = value
        if len(data) > self.capacity:
            data.popitem(last=False)

    def clear(self) -> None:
        """Drop all entries and reset the counters."""
        self._data.clear()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data

    def info(self) -> CacheInfo:
        """Current statistics snapshot."""
        return CacheInfo(
            hits=self.hits,
            misses=self.misses,
            capacity=self.capacity,
            size=len(self._data),
        )
