"""The planner's shape cache: hits must be invisible except in speed.

Also pins the satellite guarantees of the hot-path PR: the streaming
``count_documents`` path equals brute-force counting, and batch inserts are
cost- and state-equivalent to looped single inserts.
"""

from __future__ import annotations

import pytest

from repro.docstore.collection import Collection
from repro.docstore.mmapv1 import MmapV1Engine
from repro.docstore.planner import FULL_SCAN, ID_LOOKUP, INDEX_EQ, INDEX_RANGE
from repro.docstore.wiredtiger import WiredTigerEngine
from repro.errors import DuplicateKeyError
from tests.docstore.reference import matches


def _loaded(count: int = 256, engine_factory=WiredTigerEngine) -> Collection:
    collection = Collection("users", engine_factory())
    collection.insert_many([
        {"_id": f"user{index:05d}", "category": f"cat{index % 8}",
         "n": index, "tags": [index % 4, f"t{index % 4}"]}
        for index in range(count)
    ])
    collection.create_index("category")
    collection.create_index("n")
    return collection


# (query, limit) pairs spanning every access path, in YCSB-ish shapes.
SHAPES = [
    ({"_id": "user00042"}, None),
    ({"_id": {"$in": ["user00007"]}}, None),
    ({"category": "cat3"}, None),
    ({"category": {"$in": ["cat1", "cat5"]}}, None),
    ({"n": {"$gte": 40, "$lt": 90}}, None),
    ({"_id": {"$gte": "user00100"}}, 10),
    ({"tags": 2}, None),                      # unindexed: full scan
    ({"n": {"$gt": 200, "$lt": 100}}, None),  # contradictory: empty plan
    ({}, None),
]


class TestPlanCacheEquivalence:
    @pytest.mark.parametrize("query,limit", SHAPES)
    def test_warm_plans_equal_cold_plans(self, query, limit):
        """Re-planning a cached shape gives the same plan and same results."""
        collection = _loaded()
        variations = [query]
        if "_id" in query and isinstance(query["_id"], str):
            variations.append({"_id": "user00117"})
        for variant in variations:
            cold = collection.planner.plan(variant, limit=limit, use_cache=False)
            cold_docs = [doc["_id"] for doc in
                         collection.find_with_cost(variant, limit=limit).documents]
            warm = collection.planner.plan(variant, limit=limit)
            assert warm.access_path == cold.access_path
            assert warm.field == cold.field
            warm_docs = [doc["_id"] for doc in
                         collection.find_with_cost(variant, limit=limit).documents]
            assert warm_docs == cold_docs

    def test_cache_hits_accumulate(self):
        collection = _loaded()
        planner = collection.planner
        for index in range(20):
            collection.find_with_cost({"category": f"cat{index % 8}"})
        assert planner.cache_hits >= 19
        assert planner.cache_stats()["entries"] >= 1

    def test_same_shape_different_values_share_one_entry(self):
        collection = _loaded()
        planner = collection.planner
        before = planner.cache_stats()["entries"]
        for value in ("cat0", "cat1", "cat2", "cat3"):
            collection.find_with_cost({"category": value})
        assert planner.cache_stats()["entries"] == before + 1

    def test_results_match_brute_force_through_the_cache(self):
        """The planner differential guarantee holds across repeated cached runs."""
        collection = _loaded()
        all_documents = collection.find_with_cost({}).documents
        for __ in range(3):
            for query, limit in SHAPES:
                if limit is not None:
                    continue  # limited scans are order-dependent; skip here
                expected = sorted(str(d["_id"]) for d in all_documents
                                  if matches(d, query))
                got = sorted(str(d["_id"]) for d in
                             collection.find_with_cost(query).documents)
                assert got == expected, query


class TestPlanCacheInvalidation:
    def test_index_ddl_invalidates(self):
        collection = _loaded()
        planner = collection.planner
        query = {"n": {"$gte": 10, "$lt": 20}}
        assert planner.plan(query).access_path == INDEX_RANGE
        collection.drop_index("n")
        assert planner.cache_stats()["entries"] == 0
        plan = planner.plan(query)
        assert plan.access_path == FULL_SCAN
        collection.create_index("n")
        assert planner.plan(query).access_path == INDEX_RANGE

    def test_count_bucket_growth_forces_replanning(self):
        collection = Collection("users", WiredTigerEngine())
        collection.insert_many([{"_id": f"u{index}", "n": index}
                                for index in range(10)])
        planner = collection.planner
        planner.plan({"n": {"$gte": 3}})
        misses_before = planner.cache_misses
        # Quadruple the collection: the decision's count bucket is stale.
        collection.insert_many([{"_id": f"v{index}", "n": index}
                                for index in range(30)])
        planner.plan({"n": {"$gte": 3}})
        assert planner.cache_misses > misses_before

    def test_explain_never_consults_the_cache(self):
        collection = _loaded()
        collection.find_with_cost({"category": "cat1"})
        hits_before = collection.planner.cache_hits
        explained = collection.explain({"category": "cat1"})
        assert collection.planner.cache_hits == hits_before
        assert explained["winning_plan"]["access_path"] == INDEX_EQ
        # Cold explains still enumerate every alternative.
        assert len(explained["considered_plans"]) >= 2

    def test_id_lookup_still_wins_through_the_cache(self):
        collection = _loaded()
        for index in (3, 77, 131):
            plan = collection.planner.plan({"_id": f"user{index:05d}"})
            assert plan.access_path == ID_LOOKUP


class TestStreamingCount:
    @pytest.mark.parametrize("engine_factory", [WiredTigerEngine, MmapV1Engine])
    def test_count_matches_brute_force(self, engine_factory):
        collection = _loaded(engine_factory=engine_factory)
        documents = collection.find_with_cost({}).documents
        for query, __ in SHAPES:
            expected = sum(1 for doc in documents if matches(doc, query)) \
                if query else len(documents)
            assert collection.count_documents(query) == expected, query

    def test_count_empty_query_is_engine_count(self):
        collection = _loaded(count=17)
        assert collection.count_documents() == 17
        assert collection.count_documents({}) == 17


def _batch_documents() -> list[dict]:
    return [{"_id": f"user{index:04d}", "category": f"cat{index % 3}",
             "n": index, "email": f"u{index}@x"} for index in range(120)]


def _duplicate_id(documents: list) -> None:
    documents[40]["_id"] = documents[7]["_id"]


def _unique_violation(documents: list) -> None:
    documents[40]["email"] = documents[7]["email"]


def _unique_violation_before_worse(documents: list) -> None:
    """The refused document is the first failure: what lies behind it (a
    non-string ``_id``, something that is no document) is never looked at."""
    _unique_violation(documents)
    documents[50]["_id"] = 50
    documents[60] = "not a document"


def _stored_state(collection: Collection) -> dict:
    indexes = [collection.index_for("_id"), *collection.indexes]
    return {
        "scan": list(collection.engine.scan_uncharged()),
        "ids": collection.record_ids(),
        "indexes": [(index.field_path, index._entries, dict(index._tree.items()),
                     index.ordered_records()) for index in indexes],
        "bytes": collection.engine.storage_bytes(),
        "totals": collection.engine.costs.totals,
        "counts": collection.engine.costs.counts,
    }


class TestBatchInsertEquivalence:
    """A standalone ``insert_many`` *is* the loop over ``insert_one``:
    documents, ids, scan order, indexes, the result's simulated ticks and
    the engine's accounting compare with ``==`` -- also for the prefix a
    batch that fails midway leaves behind."""

    @pytest.mark.parametrize("spoil", [None, _duplicate_id, _unique_violation,
                                       _unique_violation_before_worse])
    @pytest.mark.parametrize("indexed", [False, True], ids=["bare", "indexed"])
    @pytest.mark.parametrize("engine_factory", [WiredTigerEngine, MmapV1Engine])
    def test_batch_equals_looped_inserts(self, engine_factory, indexed, spoil):
        documents = _batch_documents()
        if spoil is not None:
            spoil(documents)
        batched, looped = (Collection("users", engine_factory()) for __ in range(2))
        if indexed:
            for collection in (batched, looped):
                collection.create_index("category")
                collection.create_index("email", unique=True)

        loop_cost, loop_ids, loop_error = 0, [], None
        try:
            for document in documents:
                result = looped.insert_one(document)
                loop_cost += result.ticks
                loop_ids += result.inserted_ids
        except Exception as error:
            loop_error = error
        try:
            result = batched.insert_many(documents)
        except Exception as error:
            assert type(error) is type(loop_error) and str(error) == str(loop_error)
            assert error.inserted_ids == loop_ids
            assert 0 < len(loop_ids) < len(documents)
        else:
            assert loop_error is None
            assert result.inserted_ids == loop_ids == [d["_id"] for d in documents]
            assert result.ticks == loop_cost
        assert _stored_state(batched) == _stored_state(looped)

    def test_batch_duplicate_ids_rejected(self):
        collection = Collection("users", WiredTigerEngine())
        with pytest.raises(DuplicateKeyError):
            collection.insert_many([{"_id": "a"}, {"_id": "a"}])
        collection.insert_one({"_id": "b"})
        with pytest.raises(DuplicateKeyError):
            collection.insert_many([{"_id": "c"}, {"_id": "b"}])

    def test_empty_batch(self):
        collection = Collection("users", WiredTigerEngine())
        result = collection.insert_many([])
        assert result.inserted_ids == []
        assert result.ticks == 0

    def test_failed_batch_keeps_prefix_like_looped_inserts(self):
        """Ordered-insert semantics: on error the valid prefix stays inserted
        (matching a looped insert_one and the sharded router's loop), and the
        failing document leaves no trace."""
        documents = [{"_id": "a", "n": 1}, {"_id": "b", "n": 2},
                     {"_id": "b", "n": 3}, {"_id": "c", "n": 4}]
        batched = Collection("users", WiredTigerEngine())
        with pytest.raises(DuplicateKeyError):
            batched.insert_many([dict(doc) for doc in documents])
        looped = Collection("users", WiredTigerEngine())
        with pytest.raises(DuplicateKeyError):
            for doc in documents:
                looped.insert_one(dict(doc))
        assert (sorted(d["_id"] for d in batched.find_with_cost({}).documents)
                == sorted(d["_id"] for d in looped.find_with_cost({}).documents)
                == ["a", "b"])

    def test_failed_unique_index_insert_leaves_no_phantom_entries(self):
        """A unique violation mid-batch must not leave index entries pointing
        at documents that were never stored."""
        collection = Collection("users", WiredTigerEngine())
        collection.create_index("email", unique=True)
        collection.insert_one({"_id": "existing", "email": "x@y"})
        with pytest.raises(DuplicateKeyError):
            collection.insert_many([{"_id": "a", "email": "a@y"},
                                    {"_id": "b", "email": "x@y"}])
        # The prefix document "a" persists (ordered-insert semantics).
        assert collection.count_documents({}) == 2  # existing + a (prefix)
        assert collection.find_one({"_id": "a"}) is not None
        assert collection.find_one({"_id": "b"}) is None
        # The failing document "b" left no phantom entries anywhere.
        assert [d["_id"] for d in
                collection.find_with_cost({"email": "x@y"}).documents] == ["existing"]
        collection.insert_one({"_id": "c", "email": "c@y"})
        assert collection.count_documents({}) == 3

    def test_failed_single_insert_rolls_back_partial_index_entries(self):
        collection = Collection("users", WiredTigerEngine())
        # Two indexes; "email" violates while "category" was already updated.
        collection.create_index("category")
        collection.create_index("email", unique=True)
        collection.insert_one({"_id": "one", "email": "x@y", "category": "c1"})
        with pytest.raises(DuplicateKeyError):
            collection.insert_one({"_id": "two", "email": "x@y", "category": "c1"})
        assert [d["_id"] for d in
                collection.find_with_cost({"category": "c1"}).documents] == ["one"]

    def test_fast_id_plans_are_counted(self):
        collection = _loaded(count=32)
        stats_before = collection.planner.cache_stats()["fast_id_plans"]
        for index in range(10):
            collection.find_with_cost({"_id": f"user{index:05d}"})
        assert (collection.planner.cache_stats()["fast_id_plans"]
                == stats_before + 10)
