"""An index read descends once per node -- and bills what a read per id did.

An ``INDEX_EQ`` plan used to read its sorted candidate ids with
``map(engine.read, ids)``: a root-to-leaf search, a cache probe and a charge
per id.  ``StorageEngine.read_ids`` is one pass over the ids that hands over
each document with the cost that read would have had.  The read per id is
kept here, out of ``src/``, as the reference the pass must agree with: the
same documents, the same cost per document, the same simulated time, and an
engine left in the same state -- totals and counters, B-tree node accesses,
cache hits / misses / evictions and what is resident afterwards, in LRU order.
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
from repro.docstore.planner import ID_LOOKUP, INDEX_EQ, INDEX_RANGE
from repro.docstore.wiredtiger import WiredTigerEngine
from tests.docstore.test_engines import store_one
from tests.docstore.test_read_scan import (
    DEPLOYMENTS,
    ENGINES,
    assert_billed_alike,
    assert_same_engine,
    churn,
    document,
    engine_state,
    physical_engines,
)


def reference_read_ids(engine: StorageEngine, record_ids: list[str]
                       ) -> Iterator[tuple[dict[str, Any] | None, int]]:
    """How an ``INDEX_EQ`` plan read its ids before the pass: one ``read``
    each."""
    return map(engine.read, record_ids)


def stored(engine: StorageEngine) -> set[str]:
    """The live ids, listed without moving anything a read moves."""
    return {record_id for record_id, __ in engine.scan_uncharged()}


def asked(seed: int, count: int = 300) -> list[str]:
    """Sorted ids to read after ``churn(count=count)``: live ones, ones its
    deletes removed and ones that never were."""
    rng = random.Random(seed)
    ids = rng.sample([f"k{index:04d}" for index in range(count)], count // 2)
    return sorted(ids + [f"k{index:04d}" for index in range(count, count + 9)]
                  + ["a-before-every-id", "z-after-every-id"])


# -- the engine's pass ---------------------------------------------------------------


@pytest.fixture(params=sorted(ENGINES))
def twins(request) -> tuple[StorageEngine, StorageEngine]:
    """The same engine twice, after the same writes."""
    pair = ENGINES[request.param](), ENGINES[request.param]()
    for engine in pair:
        churn(engine, seed=5)
    return pair


class TestThePassEqualsTheReadsPerId:
    @pytest.mark.parametrize("passes", [1, 3])
    def test_documents_costs_and_engine_state(self, twins, passes):
        engine, reference = twins
        everything = sorted(stored(engine))
        for attempt in range(passes):  # a later pass meets the cache the last left
            for ids in asked(attempt), everything, everything[::7], []:
                reads = list(engine.read_ids(ids))
                assert reads == list(reference_read_ids(reference, ids))
                assert len(reads) == len(ids)
        if isinstance(engine, WiredTigerEngine) and engine._cache.capacity_bytes < 1 << 20:
            assert engine._cache.stats.evictions > 0 < engine._cache.stats.misses
        assert engine.costs.counts["read_miss"] > 0 < engine.costs.counts["read"]
        assert_same_engine(engine, reference)

    @pytest.mark.parametrize("taken", [0, 1, 7, 100])
    @pytest.mark.parametrize("dropped", [False, True], ids=["closed", "dropped"])
    def test_a_cut_pass_charges_only_what_it_yielded(self, twins, taken, dropped):
        engine, reference = twins
        ids = asked(1)
        before = dict(engine.costs.counts)
        nodes = engine_state(engine).get("node_accesses")
        reads = engine.read_ids(ids)
        consumed = list(itertools.islice(reads, taken))
        # nothing engine-wide has landed while the pass is suspended ...
        assert engine.costs.counts == before
        assert engine_state(engine).get("node_accesses") == nodes
        if dropped:
            del reads  # ... the consumer lets go of it: it is finalised,
        else:
            reads.close()  # or says so
        assert consumed == list(itertools.islice(
            reference_read_ids(reference, ids), taken))
        assert_same_engine(engine, reference)

    def test_an_id_deleted_between_planning_and_reading_is_a_read_miss(self, twins):
        engine, reference = twins
        ids = asked(2)  # planned ...
        present = stored(engine)
        live = [record_id for record_id in ids if record_id in present]
        for each in engine, reference:  # ... then a writer deletes some
            for record_id in live[::4]:
                store_one(each, record_id)
        reads = list(engine.read_ids(ids))
        assert reads == list(reference_read_ids(reference, ids))
        gone = {record_id for record_id, (found, __) in zip(ids, reads)
                if found is None}
        assert set(live[::4]) <= gone
        assert_same_engine(engine, reference)

    def test_a_writer_between_two_documents_is_billed_as_read_would(self):
        """``cost`` is what ``read`` would have returned *at that moment*:
        mmapv1's page-fault share follows the footprint as it grows, and an
        id deleted before its turn is a miss."""
        engine, reference = (MmapV1Engine(memory_bytes=20_000) for __ in range(2))
        for each in engine, reference:
            churn(each, seed=9, count=120)
        ids = asked(3, count=120)
        present = stored(engine)
        live = [record_id for record_id in ids if record_id in present]
        reads = engine.read_ids(ids)
        expected = reference_read_ids(reference, ids)
        for index in range(1000, 1020):
            assert next(reads) == next(expected)
            gone = live.pop()  # the last live id: not read yet
            for each in engine, reference:
                store_one(each, f"new{index}", document(index, random.Random(index)))
                store_one(each, gone)
        assert list(reads) == list(expected)
        assert engine.costs.counts["read_miss"] > 20
        assert_same_engine(engine, reference)

    @pytest.mark.parametrize("base", [WiredTigerEngine, MmapV1Engine])
    def test_an_engine_without_a_pass_of_its_own_is_still_correct(self, base):
        class ThirdEngine(base):
            read_ids = StorageEngine.read_ids

        small = ({"cache_bytes": 6_000} if base is WiredTigerEngine
                 else {"memory_bytes": 20_000})
        engine, reference = ThirdEngine(**small), base(**small)
        for each in engine, reference:
            churn(each, seed=3, count=60)
        ids = asked(4, count=60)
        assert list(engine.read_ids(ids)) == list(reference.read_ids(ids))
        assert_same_engine(engine, reference)


def test_a_miss_from_the_memo_bills_what_miss_cost_says():
    """The pass over sorted ids, live, deleted and never stored, against
    the reference that bills every miss with a call of ``_miss_cost``."""
    assert_billed_alike(lambda engine: list(engine.read_ids(asked(6))))


# -- the plan and every operation built on it ----------------------------------------


def install_reference_path(monkeypatch) -> None:
    """Put the replaced path back under every plan from here on: an
    ``INDEX_EQ`` plan reads id by id, lazily or drained (the base class's
    ``read_ids`` is the loop over ``read``, its ``drain`` that loop drained)."""
    for engine_class in WiredTigerEngine, MmapV1Engine:
        monkeypatch.setattr(engine_class, "read_ids", StorageEngine.read_ids)
        monkeypatch.setattr(engine_class, "drain", StorageEngine.drain)


def tagged(index: int, rng: random.Random) -> dict[str, Any]:
    """``document`` plus a multikey array field."""
    return dict(document(index, rng),
                tags=[f"t{tag}" for tag in rng.sample(range(8), rng.randrange(4))])


def load(handle: Any, seed: int, count: int = 300) -> None:
    """One index declared before the load, one built over it; then
    replacements (some grow the document) and deletes."""
    rng = random.Random(seed)
    handle.create_index("category")
    handle.insert_many([tagged(index, rng) for index in range(count)])
    handle.create_index("tags")
    for index in rng.sample(range(count), count // 3):
        handle.replace_one({"_id": f"k{index:04d}"}, tagged(index, rng))
    for index in rng.sample(range(count), count // 5):
        handle.delete_one({"_id": f"k{index:04d}"})


INDEXED = [{"category": "cat2"}, {"category": {"$in": ["cat1", "cat4", "cat9"]}},
           {"tags": "t3"}, {"tags": {"$in": ["t1", "t5", "t6"]}, "active": True},
           {"category": "cat3", "n": {"$gte": 100}}]
GROUP = [{"$match": {"category": {"$in": ["cat0", "cat3"]}}},
         {"$group": {"_id": "$active", "count": {"$sum": 1}, "sum": {"$sum": "$n"}}}]
UNPUSHABLE_LIMIT = [{"$match": {"tags": "t2"}}, {"$match": {"active": True}},
                    {"$limit": 4}]


def surfaces(handle: Any) -> list[tuple[Any, int]]:
    """``(answer, simulated ticks)`` of indexed reads through every
    operation built on the two read loops; the writes in the middle make the
    later reads meet what they wrote."""
    outcomes = []
    for query in INDEXED:
        for limit in (None, 3):
            found = handle.find_with_cost(query, limit)
            outcomes.append((found.documents, found.ticks))
        outcomes.append((handle.count_documents(query), 0))
    outcomes.append((handle.distinct("n", {"tags": {"$in": ["t0", "t7"]}}), 0))
    updated = handle.update_many({"category": "cat1"}, {"$set": {"pad": "z" * 700}})
    outcomes.append((updated.matched_count, updated.ticks))
    first = handle.update_one({"tags": "t4"}, {"$set": {"active": True}})
    outcomes.append((first.matched_count, first.ticks))
    for pipeline in (GROUP, UNPUSHABLE_LIMIT):
        result = handle.aggregate_with_cost(pipeline)
        outcomes.append((result.documents, result.ticks))
    deleted = handle.delete_many({"category": "cat0"})
    outcomes.append((deleted.deleted_count, deleted.ticks))
    for query in INDEXED[:3]:
        found = handle.find_with_cost(query)
        outcomes.append((found.documents, found.ticks))
    return outcomes


class TestEveryIndexedSurfaceOnEveryTopology:
    @pytest.mark.parametrize("shape", sorted(DEPLOYMENTS))
    def test_answers_seconds_and_engines_equal_the_reference(self, shape, monkeypatch):
        deployment = DEPLOYMENTS[shape]()
        handle = DocumentClient(deployment).collection("db", "c")
        load(handle, seed=11)
        seen: list[list[str]] = []  # the ids of every pass, lazy or drained
        with monkeypatch.context() as patch:  # the pass, seen to run
            for engine_class in WiredTigerEngine, MmapV1Engine:
                def lazy(engine, ids, read_ids=engine_class.read_ids):
                    seen.append(ids)
                    return read_ids(engine, ids)

                def drained(engine, ids=None, drain=engine_class.drain):
                    if ids is not None:
                        seen.append(ids)
                    return drain(engine, ids)

                patch.setattr(engine_class, "read_ids", lazy)
                patch.setattr(engine_class, "drain", drained)
            outcomes = surfaces(handle)
        # mmapv1 drains its lazy pass: one list seen twice is one pass
        passes = [len(ids) for ids in {id(ids): ids for ids in seen}.values()]
        assert len(passes) > 20 and sum(passes) > 1_000

        install_reference_path(monkeypatch)
        reference = DEPLOYMENTS[shape]()
        reference_handle = DocumentClient(reference).collection("db", "c")
        load(reference_handle, seed=11)
        assert surfaces(reference_handle) == outcomes
        engines = physical_engines(deployment)
        assert sum(engine.costs.counts["read"] for engine in engines) > 1_000
        for engine, expected in zip(engines, physical_engines(reference),
                                    strict=True):
            assert_same_engine(engine, expected)
        for each in deployment, reference:
            getattr(each, "close", lambda: None)()


class TestAnIndexEqPlanCopiesItsIdsOnce:
    @pytest.fixture(params=[WiredTigerEngine, MmapV1Engine],
                    ids=["wiredtiger", "mmapv1"])
    def collection(self, request) -> Collection:
        collection = Collection("c", request.param())
        load(collection, seed=2, count=80)
        return collection

    def test_the_ids_are_one_sorted_deduplicated_copy(self, collection):
        points = ["t1", "t5", "t6"]
        plan = collection.planner.plan({"tags": {"$in": points}})
        assert plan.access_path == INDEX_EQ
        index = collection.index_for("tags")
        union = set().union(*(index.lookup(point) for point in points))
        assert plan.candidate_ids == sorted(union)
        assert sum(len(index.lookup(point)) for point in points) > len(union)
        planned = list(plan.candidate_ids)
        collection.insert_one({"_id": "k9999", "tags": ["t1"]})
        assert "k9999" in index.lookup("t1")  # the bucket is live ...
        assert plan.candidate_ids == planned  # ... the plan holds its copy

    def test_it_hands_over_the_engines_pass(self, collection):
        plan = collection.planner.plan({"category": "cat2"})
        assert plan.access_path == INDEX_EQ
        reads = plan.reads(collection.engine)
        assert reads.gi_code is type(collection.engine).read_ids.__code__
        reads.close()

    def test_a_point_read_and_a_range_keep_a_read_per_id(self, collection):
        collection.create_index("n")
        for query, path in (({"_id": "k0003"}, ID_LOOKUP),
                            ({"n": {"$gte": 70}}, INDEX_RANGE)):
            plan = collection.planner.plan(query)
            assert plan.access_path == path
            assert isinstance(plan.reads(collection.engine), map)
