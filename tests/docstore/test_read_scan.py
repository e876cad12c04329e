"""A full scan reads each document once -- and bills what reading it twice did.

A ``FULL_SCAN`` plan used to list every record id with a scan charged per
document and then ``engine.read()`` each: a second descent, a cache probe, a
charge per document.  ``StorageEngine.read_scan`` is one pass that hands over the
document with the cost that read would have had.  The list-then-re-read path
is kept here, out of ``src/``, as the reference the pass must agree with: the
same documents in the same order, the same cost per document and the same
simulated time, and an engine left in the same state -- totals and counters,
B-tree node accesses, cache hits / misses / evictions and what is resident
afterwards, in LRU order.  The pass charges the engine once, the reference
once per document; the totals are integers, so they are equal.
"""

from __future__ import annotations

import itertools
import random
from typing import Any, Iterator

import pytest

from repro.docstore.client import DocumentClient
from repro.docstore.collection import Collection
from repro.docstore.engine_base import StorageEngine
from repro.docstore.mmapv1 import MmapV1Engine
from repro.docstore.planner import FULL_SCAN, QueryPlan, QueryPlanner
from repro.docstore.replication.replica_set import ReplicaSet
from repro.docstore.server import DocumentServer
from repro.docstore.sharding import ShardedCluster
from repro.docstore.wiredtiger import WiredTigerEngine
from tests.docstore.sharding.test_parallel_router import closed_cluster
from tests.docstore.test_engines import FormulaBilled, store_one

#: A cache smaller than the data (every pass evicts) and one larger; mmapv1's
#: page-fault surcharge starts once the padded data outgrows ``memory_bytes``.
ENGINES = {
    "wiredtiger-small-cache": lambda: WiredTigerEngine(cache_bytes=6_000),
    "wiredtiger-large-cache": lambda: WiredTigerEngine(cache_bytes=1 << 24),
    "mmapv1-small-memory": lambda: MmapV1Engine(memory_bytes=20_000),
    "mmapv1-large-memory": lambda: MmapV1Engine(),
}


def reference_full_scan(engine: StorageEngine) -> tuple[
        int, Iterator[tuple[dict[str, Any] | None, int]]]:
    """How a ``FULL_SCAN`` ran before the fused pass: enumerate, charging
    the scan cost per document -- the plan's lookup cost -- and then
    ``read()`` each id it wrote down."""
    ids, scan_cost = [], 0
    for record_id, __ in engine.scan_uncharged():
        ids.append(record_id)
        scan_cost += engine.costs.charge("scan", engine.scan_cost_per_document())
    return scan_cost, map(engine.read, ids)


def document(index: int, rng: random.Random) -> dict[str, Any]:
    return {"_id": f"k{index:04d}", "n": index, "active": bool(index % 2),
            "category": f"cat{index % 5}", "pad": "x" * rng.randrange(10, 400)}


def churn(store: Any, seed: int, count: int = 300) -> None:
    """Inserts, then updates (some grow the document) and deletes: internal
    B-tree entries are deleted, mmapv1 records move, caches hold stale sizes.
    ``store`` is an engine (documents keyed by ``_id``) or a collection."""
    rng = random.Random(seed)
    documents = [document(index, rng) for index in range(count)]
    on_engine = isinstance(store, StorageEngine)
    if on_engine:
        for each in documents:
            store_one(store, each["_id"], each)
    else:
        store.insert_many(documents)
    for index in rng.sample(range(count), count // 3):
        changed = dict(documents[index], pad="y" * rng.randrange(10, 900))
        if on_engine:
            store_one(store, changed["_id"], changed)
        else:
            store.replace_one({"_id": changed["_id"]}, changed)
    for index in rng.sample(range(count), count // 5):
        if on_engine:
            store_one(store, f"k{index:04d}")
        else:
            store.delete_one({"_id": f"k{index:04d}"})


def engine_state(engine: StorageEngine) -> dict[str, Any]:
    """Everything a pass may leave behind."""
    engine.verify_accounting()
    state: dict[str, Any] = {
        "totals": dict(engine.costs.totals),
        "counts": dict(engine.costs.counts),
        "documents": list(engine.scan_uncharged()),
    }
    if isinstance(engine, WiredTigerEngine):
        state["cache"] = engine._cache.stats.snapshot()
        state["resident"] = list(engine._cache._entries.items())  # LRU order
        state["node_accesses"] = engine._tree.node_accesses
    return state


def assert_same_engine(engine: StorageEngine, reference: StorageEngine) -> None:
    assert engine_state(engine) == engine_state(reference)


# -- the engine's pass ---------------------------------------------------------------


@pytest.fixture(params=sorted(ENGINES))
def twins(request) -> tuple[StorageEngine, StorageEngine]:
    """The same engine twice, after the same writes."""
    pair = ENGINES[request.param](), ENGINES[request.param]()
    for engine in pair:
        churn(engine, seed=5)
    return pair


class TestThePassEqualsListThenRead:
    @pytest.mark.parametrize("passes", [1, 3])
    def test_documents_costs_and_engine_state(self, twins, passes):
        engine, reference = twins
        for __ in range(passes):  # a later pass meets the cache the last left
            reads = list(engine.read_scan())
            scan_cost, expected = reference_full_scan(reference)
            assert reads == list(expected)
            assert all(document is not None for document, __ in reads)
            # the enumeration the pass skips is the planner's to bill
            engine.costs.charge("scan", scan_cost, len(reads))
        if isinstance(engine, WiredTigerEngine) and engine._cache.capacity_bytes < 1 << 20:
            assert engine._cache.stats.evictions > 0 < engine._cache.stats.misses
        assert_same_engine(engine, reference)

    @pytest.mark.parametrize("taken", [0, 1, 7, 100])
    @pytest.mark.parametrize("dropped", [False, True], ids=["closed", "dropped"])
    def test_a_cut_pass_charges_only_what_it_yielded(self, twins, taken, dropped):
        engine, reference = twins
        before = dict(engine.costs.counts)
        reads = engine.read_scan()
        consumed = list(itertools.islice(reads, taken))
        # nothing engine-wide has landed while the pass is suspended ...
        assert engine.costs.counts == before
        if dropped:
            del reads  # ... the consumer lets go of it: it is finalised,
        else:
            reads.close()  # or says so
        assert engine.costs.counts.get("read", 0) - before.get("read", 0) == taken
        scan_cost, expected = reference_full_scan(reference)
        assert consumed == list(itertools.islice(expected, taken))
        engine.costs.charge("scan", scan_cost, engine.count())
        assert_same_engine(engine, reference)

    def test_a_writer_between_two_documents_is_billed_as_read_would(self):
        """``cost`` is what ``read`` would have returned *at that moment*:
        mmapv1's page-fault share follows the footprint as it grows."""
        engine, reference = (MmapV1Engine(memory_bytes=20_000) for __ in range(2))
        for each in engine, reference:
            churn(each, seed=9, count=120)
        stored = engine.count()
        reads = engine.read_scan()
        __, expected = reference_full_scan(reference)
        for index in range(1000, 1060):
            assert next(reads) == next(expected)
            for each in engine, reference:
                store_one(each, f"new{index}", document(index, random.Random(index)))
        assert list(reads) == list(expected)
        engine.costs.charge("scan", reference.costs.totals["scan"], stored)
        assert engine_state(engine) == engine_state(reference)

    def test_an_engine_without_a_pass_of_its_own_is_still_correct(self):
        class ThirdEngine(MmapV1Engine):
            read_scan = StorageEngine.read_scan

        engine, reference = ThirdEngine(), MmapV1Engine()
        for each in engine, reference:
            churn(each, seed=3, count=60)
        assert list(engine.read_scan()) == list(reference.read_scan())
        assert engine.costs.counts == reference.costs.counts


# -- a miss billed from the memo ------------------------------------------------------

#: About a quarter of the bytes ``churn(seed=13)`` leaves stored (86,056).
BILLED_CACHE = 20_000


def billed_twins() -> tuple[WiredTigerEngine, FormulaBilled]:
    """wiredTiger and the reference that bills every miss with a call of
    ``_miss_cost``, after the same writes: at least four times the bytes
    their caches hold."""
    pair = (WiredTigerEngine(cache_bytes=BILLED_CACHE),
            FormulaBilled(cache_bytes=BILLED_CACHE))
    for engine in pair:
        churn(engine, seed=13)
    stored = sum(size for __, (__, size) in pair[0]._tree.items())
    assert stored >= 4 * BILLED_CACHE
    return pair


def assert_billed_alike(way: Any) -> None:
    """Three rounds, each a few point reads of the same ids (a pass meets
    them resident: hits beside the misses) and then the pass ``way(engine)``
    returns the yield of: the engine and the reference yield the same
    documents at the same cost, each pass's ticks are what its yield says,
    and they end in the same state -- totals and counts, cache hits /
    misses / evictions, residency in LRU order, node accesses.  The engine
    billed its misses through its memo; the reference has none."""
    engine, reference = billed_twins()
    hot = [record_id for record_id, __ in engine.scan_uncharged()][::25]
    for __ in range(3):
        for each in engine, reference:
            for record_id in hot:
                each.read(record_id)
        ticks = sum(engine.costs.totals.values())
        yielded = way(engine)
        assert yielded == way(reference)
        assert sum(engine.costs.totals.values()) - ticks == sum(
            cost for __, cost in yielded)
    assert_same_engine(engine, reference)
    stats = engine._cache.stats
    assert stats.hits > 0 and stats.misses > 0 and stats.evictions > 0
    assert engine._miss_ticks.cache_info().hits > 0


def closed_midway(engine: StorageEngine) -> list[tuple[dict[str, Any], int]]:
    reads = engine.read_scan()
    taken = list(itertools.islice(reads, engine.count() // 2))
    reads.close()
    return taken


BILLED_WAYS = {
    "read": lambda engine: [engine.read(record_id) for record_id in
                            random.Random(4).sample(sorted(
                                record_id for record_id, __
                                in engine.scan_uncharged()), engine.count())],
    "drained-read-scan": lambda engine: list(engine.read_scan()),
    "read-scan-closed-midway": closed_midway,
}


@pytest.mark.parametrize("way", sorted(BILLED_WAYS))
def test_a_miss_from_the_memo_bills_what_miss_cost_says(way):
    assert_billed_alike(BILLED_WAYS[way])


# -- the plan and the collection's read path -----------------------------------------


def install_reference_path(monkeypatch) -> None:
    """Put the previous path back under every collection built from here on:
    a winning ``FULL_SCAN`` lists its ids with a scan charged per document
    (the body of the deleted ``QueryPlanner._scan_candidates``) and every
    plan reads id by id, lazily or drained."""

    def bill_scan(self: QueryPlanner, plan: QueryPlan) -> QueryPlan:
        plan.candidate_ids, plan.lookup_cost = [], 0
        engine = self.collection.engine
        for record_id, __ in engine.scan_uncharged():
            plan.candidate_ids.append(record_id)
            plan.lookup_cost += engine.costs.charge(
                "scan", engine.scan_cost_per_document())
        return plan

    def reads(self: QueryPlan, engine: StorageEngine) -> Iterator[Any]:
        ids = self.candidate_ids
        return map(engine.read, self.lazy_candidates() if ids is None else ids)

    monkeypatch.setattr(QueryPlanner, "_bill_scan", bill_scan)
    monkeypatch.setattr(QueryPlan, "reads", reads)
    for engine_class in WiredTigerEngine, MmapV1Engine:  # a drained read too
        monkeypatch.setattr(engine_class, "read_ids", StorageEngine.read_ids)
        monkeypatch.setattr(engine_class, "drain", StorageEngine.drain)


UNINDEXED = [{"active": True}, {"n": {"$gte": 150}}, {"pad": {"$exists": True}},
             {"category": {"$in": ["cat1", "cat4"]}, "active": False}, {}]
GROUP = [{"$match": {"active": True}},
         {"$group": {"_id": "$category", "count": {"$sum": 1}, "sum": {"$sum": "$n"}}}]
UNPUSHABLE_LIMIT = [{"$match": {"n": {"$gte": 10}}}, {"$match": {"active": True}},
                    {"$limit": 4}]


def surfaces(handle: Any) -> list[tuple[Any, int]]:
    """``(answer, simulated ticks)`` of unindexed reads through every
    operation built on the two read loops; the update in the middle makes
    the later ones read what it wrote."""
    outcomes = []
    for query in UNINDEXED:
        for limit in (None, 3):
            found = handle.find_with_cost(query, limit)
            outcomes.append((found.documents, found.ticks))
    outcomes.append((handle.count_documents({"active": True}), 0))
    updated = handle.update_many({"n": {"$gte": 200}}, {"$set": {"pad": "z" * 700}})
    outcomes.append((updated.matched_count, updated.ticks))
    first = handle.update_one({"category": "cat2"}, {"$set": {"active": True}})
    outcomes.append((first.matched_count, first.ticks))
    for pipeline in (GROUP, UNPUSHABLE_LIMIT):
        result = handle.aggregate_with_cost(pipeline)
        outcomes.append((result.documents, result.ticks))
    deleted = handle.delete_many({"n": {"$lt": 20}})
    outcomes.append((deleted.deleted_count, deleted.ticks))
    outcomes.append((handle.distinct("category", {"active": False}), 0))
    return outcomes


def physical_engines(deployment: Any) -> list[StorageEngine]:
    if isinstance(deployment, ShardedCluster):
        return [engine for shard in deployment.shards
                for engine in physical_engines(shard)]
    if isinstance(deployment, ReplicaSet):
        return [member.server.database("db").collection("c").engine
                for member in deployment.members]
    return [deployment.database("db").collection("c").engine]


DEPLOYMENTS = {
    "standalone-wiredtiger": lambda: DocumentServer("wiredtiger", cache_bytes=6_000),
    "standalone-mmapv1": lambda: DocumentServer("mmapv1", memory_bytes=20_000),
    "four-shards": lambda: ShardedCluster(shards=4, cache_bytes=6_000),
    "four-shards-serial": lambda: closed_cluster(shards=4, cache_bytes=6_000),
    "replica-set": lambda: ReplicaSet(members=3, write_concern="majority",
                                      cache_bytes=6_000),
}


class TestEverySurfaceOnEveryTopology:
    @pytest.mark.parametrize("shape", sorted(DEPLOYMENTS))
    def test_answers_seconds_and_engines_equal_the_reference(self, shape, monkeypatch):
        deployment = DEPLOYMENTS[shape]()
        handle = DocumentClient(deployment).collection("db", "c")
        churn(handle, seed=11)
        outcomes = surfaces(handle)

        install_reference_path(monkeypatch)
        reference = DEPLOYMENTS[shape]()
        reference_handle = DocumentClient(reference).collection("db", "c")
        churn(reference_handle, seed=11)
        assert surfaces(reference_handle) == outcomes
        engines = physical_engines(deployment)
        assert sum(engine.costs.counts["read"] for engine in engines) > 2_000
        for engine, expected in zip(engines, physical_engines(reference),
                                    strict=True):
            assert_same_engine(engine, expected)
        for each in deployment, reference:
            getattr(each, "close", lambda: None)()


class TestAPlanHandsOverReadsNotIds:
    @pytest.fixture(params=[WiredTigerEngine, MmapV1Engine],
                    ids=["wiredtiger", "mmapv1"])
    def collection(self, request) -> Collection:
        collection = Collection("c", request.param())
        churn(collection, seed=2, count=80)
        return collection

    def test_a_full_scan_plan_holds_no_id_list(self, collection):
        engine = collection.engine
        scans = engine.costs.counts.get("scan", 0)
        plan = collection.planner.plan({"active": True})
        assert plan.access_path == FULL_SCAN and plan.candidate_ids is None
        # planning billed the enumeration, in one charge
        count = engine.count()
        expected = count * engine.scan_cost_per_document()
        assert plan.current_lookup_cost() == plan.lookup_cost == expected
        assert engine.costs.counts["scan"] - scans == plan.scanned == count
        assert plan.summary()["candidates_examined"] == count
        # explain and tests may still ask for the ids: charge-free
        before = dict(engine.costs.counts)
        assert plan.materialize() == [
            record_id for record_id, __ in engine.scan_uncharged()]
        assert engine.costs.counts == before
        assert plan.reads(engine).gi_code is type(engine).read_scan.__code__

    def test_a_limit_ends_the_pass_before_the_read_returns(self, collection):
        engine = collection.engine
        reads = engine.costs.counts.get("read", 0)
        found = collection.find_with_cost({"active": True}, limit=3)
        assert len(found.documents) == 3
        examined = engine.costs.counts["read"] - reads
        assert 3 <= examined < 12  # billed already, and only what it read
        first = collection.update_one({"category": "cat3"}, {"$set": {"n": -1}})
        assert first.matched_count == 1
        assert engine.costs.counts["read"] - reads - examined < 12

    def test_explain_reads_as_before(self, collection):
        explanation = collection.explain({"active": True})
        winning = explanation["winning_plan"]
        assert winning["access_path"] == FULL_SCAN
        assert winning["candidates_examined"] == explanation["documents"]
        assert winning["lookup_cost"] > 0
