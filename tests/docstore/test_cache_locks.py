"""Tests for the LRU cache and the lock manager."""

from __future__ import annotations

import threading

import pytest

from repro.docstore.cache import LruCache
from repro.docstore.locks import LockGranularity, LockManager


class TestLruCache:
    def test_put_and_admit(self):
        cache = LruCache(1000)
        cache.put("a", 100)
        assert cache.admit("a", 100) is True
        assert cache.admit("b", 50) is False  # a miss, admitted by the probe
        assert "b" in cache and cache.used_bytes == 150
        assert cache.admit("b", 50) is True

    def test_hit_and_miss_statistics(self):
        cache = LruCache(1000)
        cache.put("a", 100)
        cache.admit("a", 100)
        cache.admit("missing", 100)
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.hit_ratio == pytest.approx(0.5)

    def test_eviction_respects_budget(self):
        cache = LruCache(250)
        cache.put("a", 100)
        cache.put("b", 100)
        cache.put("c", 100)  # exceeds 250 -> evict LRU ("a")
        assert "a" not in cache
        assert "b" in cache and "c" in cache
        assert cache.stats.evictions == 1
        assert cache.used_bytes <= 250

    def test_admit_refreshes_recency(self):
        cache = LruCache(250)
        cache.put("a", 100)
        cache.put("b", 100)
        cache.admit("a", 100)     # a hit: "a" becomes most recent
        cache.admit("c", 100)     # a miss: admitting "c" evicts "b", not "a"
        assert "a" in cache and "b" not in cache and "c" in cache
        assert cache.stats.evictions == 1

    def test_put_existing_key_updates_size(self):
        cache = LruCache(1000)
        cache.put("a", 100)
        cache.put("a", 300)
        assert cache.used_bytes == 300
        assert len(cache) == 1

    def test_invalidate_and_clear(self):
        cache = LruCache(1000)
        cache.put("a", 100)
        cache.invalidate("a")
        assert cache.used_bytes == 0
        cache.put("b", 50)
        cache.clear()
        assert len(cache) == 0

    def test_rejects_non_positive_capacity(self):
        with pytest.raises(ValueError):
            LruCache(0)


class TestLockManager:
    def test_read_and_write_contexts(self):
        manager = LockManager(LockGranularity.DOCUMENT)
        with manager.read("doc1"):
            pass
        with manager.write("doc1"):
            pass
        assert manager.stats.acquisitions == 2
        assert manager.stats.exclusive_acquisitions == 1

    def test_document_granularity_allows_disjoint_writers(self):
        manager = LockManager(LockGranularity.DOCUMENT)
        progress = []

        def writer(doc_id: str):
            with manager.write(doc_id):
                progress.append(doc_id)

        threads = [threading.Thread(target=writer, args=(f"doc{i}",)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(progress) == 8

    def test_collection_granularity_serialises_writers(self):
        manager = LockManager(LockGranularity.COLLECTION)
        active = []
        max_active = []
        lock = threading.Lock()

        def writer(doc_id: str):
            with manager.write(doc_id):
                with lock:
                    active.append(1)
                    max_active.append(len(active))
                with lock:
                    active.pop()

        threads = [threading.Thread(target=writer, args=(f"doc{i}",)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert max(max_active) == 1  # never two writers inside the lock

    def test_concurrent_readers_allowed(self):
        manager = LockManager(LockGranularity.COLLECTION)
        barrier = threading.Barrier(4, timeout=5)
        reached = []

        def reader():
            with manager.read():
                barrier.wait()
                reached.append(1)

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(reached) == 4

    def test_stats_snapshot_shape(self):
        manager = LockManager(LockGranularity.COLLECTION)
        with manager.write():
            pass
        snapshot = manager.stats.snapshot()
        assert set(snapshot) == {
            "acquisitions",
            "contentions",
            "exclusive_acquisitions",
            "wait_seconds",
        }
