"""A read nothing cuts takes the engine's pass as one list -- and leaves
everything as draining the lazy pass would.

``StorageEngine.drain`` is the drained form of the two lazy passes,
``read_scan`` and ``read_ids``: the documents found, in pass order, how many
ids were examined and their summed cost, with the engine-wide accounting
landed as the lazy pass lands it.  wiredTiger probes its cache once per
slice of ``node_keys`` keys of the whole pass (``LruCache.admit_run``)
instead of once per document.  The lazy pass, drained, is the reference
here: the same document objects, the same examined count and ticks, and an
engine left in the same state -- totals and counts, node accesses, cache
hits / misses / evictions and what is resident afterwards, in LRU order.
"""

from __future__ import annotations

import math
import random
import sys
import threading
from typing import Any, Callable

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.docstore.cache import LruCache
from repro.docstore.collection import Collection
from repro.docstore.engine_base import StorageEngine
from repro.docstore.mmapv1 import MmapV1Engine
from repro.docstore.planner import FULL_SCAN, ID_LOOKUP, INDEX_EQ, INDEX_RANGE
from repro.docstore.wiredtiger import WiredTigerEngine
from tests.docstore.engine_helpers import assert_same_engine
from tests.docstore.reference import measure_document

# -- the cache: one run of probes ---------------------------------------------------

#: Runs of ``(key, size)`` probes: few keys, so they repeat within a run and
#: across runs, and sizes on both sides of the capacity.
RUNS = st.lists(st.lists(st.tuples(st.integers(0, 15), st.integers(1, 700)),
                         max_size=40), max_size=4)


@settings(max_examples=200, deadline=None)
@given(capacity=st.integers(1, 600), warm=RUNS, runs=RUNS)
def test_admit_run_is_a_loop_of_admit(capacity, warm, runs):
    cache, twin = LruCache(capacity), LruCache(capacity)
    for each in cache, twin:  # the same state to start from
        for run in warm:
            for key, size in run:
                each.put(key, size)
    for run in runs:
        keys, sizes = [key for key, __ in run], [size for __, size in run]
        assert cache.admit_run(keys, sizes) == [
            size for key, size in run if not twin.admit(key, size)]
        assert cache.stats == twin.stats
        assert cache.used_bytes == twin.used_bytes
        assert list(cache._entries.items()) == list(twin._entries.items())
    cache.verify_accounting()


# -- the engines: the drained pass against the lazy one -----------------------------

COUNT = 1_500

#: wiredTiger whose cache holds every document; one that holds about a fifth
#: of them, so a pass evicts; that cache over documents of one size each,
#: more sizes than the memo of miss ticks holds; and mmapv1 past its memory,
#: where the page-fault share is billed.  Each: (engine, one size per document).
ENGINES: dict[str, tuple[Callable[[], StorageEngine], bool]] = {
    "wiredtiger-resident": (WiredTigerEngine, False),
    "wiredtiger-evicting": (lambda: WiredTigerEngine(cache_bytes=100_000), False),
    "wiredtiger-every-size": (lambda: WiredTigerEngine(cache_bytes=100_000), True),
    "mmapv1": (lambda: MmapV1Engine(memory_bytes=100_000), False),
}


def record(index: int, rng: random.Random, every_size: bool
           ) -> tuple[str, dict[str, Any], int]:
    pad = 100 + index if every_size else rng.randrange(200, 600)
    document = {"_id": f"k{index:05d}", "n": index, "pad": "x" * pad}
    return document["_id"], document, measure_document(document)


@pytest.fixture(params=sorted(ENGINES))
def twins(request) -> tuple[StorageEngine, StorageEngine]:
    """The same engine twice, holding the same document objects after the
    same writes: inserts, then replacements (some grow) and deletes."""
    build, every_size = ENGINES[request.param]
    rng = random.Random(17)
    records = [record(index, rng, every_size) for index in range(COUNT)]
    changed = [record(index, rng, every_size)
               for index in rng.sample(range(COUNT), COUNT // 4)]
    deleted = [(f"k{index:05d}", None, 0)
               for index in rng.sample(range(COUNT), COUNT // 6)]
    pair = build(), build()
    for engine in pair:
        engine.store_batch(records)
        for each in changed:  # one at a time: the tree's own writes
            engine.store_batch([each])
        engine.store_batch(deleted)
    return pair


def asked(engine: StorageEngine, seed: int) -> list[str]:
    """Sorted ids, many node slices of them: live ones, deleted ones and ones
    that never were."""
    rng = random.Random(seed)
    ids = rng.sample([f"k{index:05d}" for index in range(COUNT)], COUNT // 3)
    return sorted(ids + [f"k{index:05d}" for index in range(COUNT, COUNT + 30)]
                  + ["a-before-every-id", "z-after-every-id"])


def lazily(engine: StorageEngine, record_ids: list[str] | None
           ) -> tuple[list[dict[str, Any]], int, int]:
    """The lazy pass, drained: what ``drain`` must equal."""
    reads = list(engine.read_scan() if record_ids is None
                 else engine.read_ids(record_ids))
    return ([document for document, __ in reads if document is not None],
            len(reads), sum(cost for __, cost in reads))


def assert_drained_alike(engine: StorageEngine, reference: StorageEngine,
                         record_ids: list[str] | None) -> None:
    documents, examined, ticks = engine.drain(record_ids)
    expected, expected_examined, expected_ticks = lazily(reference, record_ids)
    assert len(documents) == len(expected)
    assert all(mine is theirs for mine, theirs in zip(documents, expected))
    assert (examined, ticks) == (expected_examined, expected_ticks)
    assert_same_engine(engine, reference)


class TestTheDrainedPassIsTheLazyPassDrained:
    def test_scans_and_id_lists_meeting_what_the_last_left(self, twins):
        engine, reference = twins
        rng = random.Random(3)
        hot = [f"k{index:05d}" for index in rng.sample(range(COUNT), 200)]
        for round_ in range(3):
            for each in engine, reference:  # hits beside the misses
                for record_id in hot[round_::3]:
                    each.read(record_id)
            assert_drained_alike(engine, reference, None)
            assert_drained_alike(engine, reference, asked(engine, round_))
            assert_drained_alike(engine, reference, [])
        assert engine.costs.counts["read_miss"] > 0 < engine.costs.counts["read"]
        if isinstance(engine, WiredTigerEngine):
            stats = engine._cache.stats
            assert stats.hits > 0
            if engine._cache.capacity_bytes < 1 << 20:
                assert stats.misses > 0 < stats.evictions

    def test_an_empty_engine_drains_nothing_and_charges_nothing(self):
        for engine in WiredTigerEngine(), MmapV1Engine():
            assert engine.drain() == ([], 0, 0)
            assert engine.drain([]) == ([], 0, 0)
            assert engine.drain(["k1"])[:2] == ([], 1)
            assert set(engine.costs.counts) == {"read_miss"}


# -- the plan: one place picks the drained pass or the lazy one ---------------------

#: A query per access path over ``planned_collection``'s documents.
PLANNED = {
    ID_LOOKUP: {"_id": "k00100"},
    INDEX_EQ: {"group": {"$in": [1, 4]}},
    INDEX_RANGE: {"n": {"$gte": 100, "$lt": 250}},
    FULL_SCAN: {"pad": {"$exists": True}},
}


def planned_collection() -> Collection:
    """What the plans are made on: 600 documents, ``n`` and ``group`` indexed."""
    collection = Collection("c", WiredTigerEngine())
    collection.create_index("n")
    collection.create_index("group")
    rng = random.Random(23)
    collection.insert_many([{"_id": f"k{index:05d}", "n": index, "group": index % 7,
                             "pad": "x" * rng.randrange(200, 600)}
                            for index in range(600)])
    return collection


class TestAPlanDrainsWhatItsReadsYield:
    """``QueryPlan.drain`` is the one place that picks between the engine's
    drained pass and a loop of point reads; every access path, drained, is
    what its lazy reads (``QueryPlan.reads``) yield, drained."""

    @pytest.mark.parametrize("path", sorted(PLANNED))
    @pytest.mark.parametrize("name", ["wiredtiger-resident", "wiredtiger-evicting",
                                      "mmapv1"])
    def test_the_drained_plan_is_its_reads_drained(self, name, path):
        collection = planned_collection()
        stored = collection.engine
        records = [(record_id, *stored.peek(record_id))
                   for record_id, __ in stored.scan_uncharged()]
        engine, reference = ENGINES[name][0](), ENGINES[name][0]()
        for each in engine, reference:  # the same document objects
            each.store_batch(records)
            # ids the plans list and the engines no longer hold ...
            each.store_batch([(record_id, None, 0) for record_id, __, __ in records[::9]])
            for record_id, __, __ in records[::5]:  # ... and hits beside the misses
                each.read(record_id)
        plan, twin = (collection.planner.plan(PLANNED[path]) for __ in range(2))
        assert plan.access_path == twin.access_path == path
        documents, examined, ticks = plan.drain(engine)
        reads = list(twin.reads(reference))
        expected = [document for document, __ in reads if document is not None]
        assert len(documents) == len(expected) > 0
        assert all(mine is theirs for mine, theirs in zip(documents, expected))
        assert (examined, ticks) == (len(reads), sum(cost for __, cost in reads))
        assert_same_engine(engine, reference)


class TestOneHoldOfTheCachePerNodesWorthOfKeys:
    @pytest.mark.parametrize("ids", [False, True], ids=["scan", "ids"])
    def test_the_probes_go_a_nodes_worth_of_keys_at_a_time(self, monkeypatch, ids):
        engine = WiredTigerEngine()
        rng = random.Random(9)
        engine.store_batch([record(index, rng, False) for index in range(COUNT)])
        runs: list[int] = []
        admit_run = engine._cache.admit_run

        def counted(keys: list[str], sizes: list[int]) -> list[int]:
            runs.append(len(keys))
            return admit_run(keys, sizes)

        monkeypatch.setattr(engine._cache, "admit_run", counted)
        record_ids = asked(engine, 1) if ids else None
        documents, __, __ = engine.drain(record_ids)
        node_keys = engine._tree.node_keys
        assert sum(runs) == len(documents) > 4 * node_keys
        assert max(runs) <= node_keys
        assert len(runs) == math.ceil(len(documents) / node_keys)


class TestDrainedReadersRaceWriters:
    def test_every_probe_is_counted_and_every_byte_accounted(self):
        """Drained scans and index reads race point reads, updates, inserts
        and deletes on a cache a fifth the size of the data: a probe of a
        run that another thread's probe or write tore would lose a count or
        a byte.  Every ``read`` the engine charged probed the cache once."""
        collection = Collection("c", WiredTigerEngine(cache_bytes=20_000))
        collection.create_index("group")
        collection.insert_many([{"_id": f"d{index:04d}", "group": index % 4,
                                 "pad": "x" * 200} for index in range(400)])
        engine, rounds = collection.engine, 15
        errors: list[Exception] = []

        def worker(worker_id: int) -> None:
            try:
                for step in range(rounds):
                    if worker_id % 3 == 0:
                        key = f"d{(worker_id * 53 + step * 7) % 400:04d}"
                        collection.update_one({"_id": key}, {"$set": {"pad": "y" * step}})
                        collection.insert_one({"_id": f"t{worker_id}-{step}", "group": 9})
                        collection.delete_many({"group": 9})
                    elif worker_id % 3 == 1:
                        assert len(collection.find_with_cost(
                            {"pad": {"$exists": True}}).documents) >= 400
                    else:
                        assert collection.count_documents({"group": step % 4}) == 100
            except Exception as error:  # noqa: BLE001 - collected for the assert
                errors.append(error)

        pool = [threading.Thread(target=worker, args=(worker_id,))
                for worker_id in range(9)]
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(switch_interval)
        assert not any(thread.is_alive() for thread in pool)
        assert not errors
        engine.verify_accounting()  # the cache's bytes among them
        stats = engine._cache.stats
        assert stats.hits + stats.misses == engine.costs.counts["read"]
        assert stats.hits > 0 and stats.evictions > 0
