"""Least-recently-used block cache used by the wiredTiger-like engine."""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any

from repro.docstore.engine_base import check_size


@dataclass
class CacheStats:
    """Hit/miss/eviction counters for one cache instance."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def snapshot(self) -> dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_ratio": self.hit_ratio,
        }


class LruCache:
    """Byte-budgeted LRU cache of record ids, each held with its size.

    Thread-safe: an internal mutex covers every operation.  ``admit`` both
    probes and reorders (``move_to_end``) and, like ``put``, interleaves
    size bookkeeping with eviction, so unsynchronised concurrent access
    could corrupt the recency list or double-evict; the lock makes each call
    atomic -- ``admit_run``'s probes of one slice together, a drained pass's
    ``node_keys`` keys at most.
    """

    def __init__(self, capacity_bytes: int):
        # The capacity is wiredTiger's ``cache_bytes`` option.
        self.capacity_bytes = check_size("cache_bytes", capacity_bytes, 1)
        self.stats = CacheStats()
        self._entries: OrderedDict[Any, int] = OrderedDict()  # key -> size
        self._used = 0
        self._mutex = threading.Lock()

    def __contains__(self, key: Any) -> bool:
        with self._mutex:
            return key in self._entries

    def __len__(self) -> int:
        with self._mutex:
            return len(self._entries)

    @property
    def used_bytes(self) -> int:
        return self._used

    def admit(self, key: Any, size: int) -> bool:
        """The read path's probe: whether ``key`` was resident (a hit, moved
        to the recent end), admitting it at ``size`` when it was not."""
        with self._mutex:
            entries = self._entries
            if key in entries:
                entries.move_to_end(key)
                self.stats.hits += 1
                return True
            self.stats.misses += 1
            entries[key] = size
            self._used += size
            while self._used > self.capacity_bytes and entries:
                self._used -= entries.popitem(last=False)[1]
                self.stats.evictions += 1
            return False

    def admit_run(self, keys: list[Any], sizes: list[int]) -> list[int]:
        """What ``[size for key, size in zip(keys, sizes) if not admit(key,
        size)]`` returns -- the sizes of the misses, with the same hits,
        misses, evictions, residency and LRU order -- in one hold of the
        mutex, the counters landed once: a drained pass probes a node's worth
        of keys per call."""
        missed: list[int] = []
        evictions = 0
        with self._mutex:
            entries, capacity, used = self._entries, self.capacity_bytes, self._used
            move_to_end = entries.move_to_end
            for key, size in zip(keys, sizes):
                if key in entries:
                    move_to_end(key)
                    continue
                missed.append(size)
                entries[key] = size
                used += size
                while used > capacity and entries:
                    used -= entries.popitem(last=False)[1]
                    evictions += 1
            self._used = used
            stats = self.stats
            stats.hits += len(keys) - len(missed)
            stats.misses += len(missed)
            stats.evictions += evictions
        return missed

    def put(self, key: Any, size: int) -> None:
        """Insert or refresh an entry, evicting LRU entries to fit the budget."""
        with self._mutex:
            if key in self._entries:
                self._used -= self._entries.pop(key)
            self._entries[key] = size
            self._used += size
            while self._used > self.capacity_bytes and self._entries:
                self._used -= self._entries.popitem(last=False)[1]
                self.stats.evictions += 1

    def invalidate(self, key: Any) -> None:
        """Drop ``key`` from the cache if present."""
        with self._mutex:
            if key in self._entries:
                self._used -= self._entries.pop(key)

    def verify_accounting(self) -> None:
        """Check the used-byte total against a sum of the entries' sizes,
        and that it is within the budget."""
        with self._mutex:
            held = sum(self._entries.values())
            assert self._used == held, (
                f"cache byte drift: running total {self._used} != entries' {held}")
            assert held <= self.capacity_bytes, (
                f"cache over budget: {held} > {self.capacity_bytes} bytes")

    def clear(self) -> None:
        with self._mutex:
            self._entries.clear()
            self._used = 0
