"""Tests for the query planner: access paths, explain, and a randomized
differential check against brute-force matching."""

from __future__ import annotations

import random
import sys
import threading

import pytest

from repro.docstore.collection import Collection
from repro.docstore.indexes import SecondaryIndex
from repro.docstore.mmapv1 import MmapV1Engine
from repro.docstore.planner import FULL_SCAN, ID_LOOKUP, INDEX_EQ, INDEX_RANGE
from repro.docstore.wiredtiger import WiredTigerEngine
from tests.docstore.test_matching import matches


@pytest.fixture(params=[WiredTigerEngine, MmapV1Engine], ids=["wiredtiger", "mmapv1"])
def collection(request) -> Collection:
    return Collection("users", request.param())


def load(collection: Collection, count: int = 40) -> None:
    collection.insert_many([
        {"_id": f"u{index:04d}", "n": index, "name": f"user{index}",
         "category": f"c{index % 4}"}
        for index in range(count)
    ])


class TestAccessPathSelection:
    def test_id_equality_uses_id_lookup(self, collection):
        load(collection)
        plan = collection.planner.plan({"_id": "u0003"})
        assert plan.access_path == ID_LOOKUP
        assert plan.candidate_ids == ["u0003"]

    def test_indexed_equality_uses_index_eq(self, collection):
        load(collection)
        collection.create_index("category")
        plan = collection.planner.plan({"category": "c1"})
        assert plan.access_path == INDEX_EQ
        assert len(plan.candidate_ids) == 10

    def test_in_on_indexed_field_uses_index_eq(self, collection):
        load(collection)
        collection.create_index("category")
        plan = collection.planner.plan({"category": {"$in": ["c1", "c2"]}})
        assert plan.access_path == INDEX_EQ
        assert len(plan.candidate_ids) == 20

    def test_range_on_indexed_field_uses_index_range(self, collection):
        load(collection)
        collection.create_index("n")
        plan = collection.planner.plan({"n": {"$gte": 10, "$lt": 20}})
        assert plan.access_path == INDEX_RANGE
        assert len(plan.materialize()) == 10

    def test_range_on_id_uses_the_primary_ordered_index(self, collection):
        load(collection)
        plan = collection.planner.plan({"_id": {"$gte": "u0030"}})
        assert plan.access_path == INDEX_RANGE
        assert plan.field == "_id"
        assert len(plan.materialize()) == 10

    def test_unindexed_query_falls_back_to_full_scan(self, collection):
        load(collection)
        plan = collection.planner.plan({"n": {"$gte": 10}})
        assert plan.access_path == FULL_SCAN
        assert len(plan.materialize()) == 40

    def test_contradictory_range_examines_nothing(self, collection):
        load(collection)
        collection.create_index("n")
        plan = collection.planner.plan({"n": {"$gt": 30, "$lt": 10}})
        assert plan.access_path == INDEX_RANGE
        assert plan.candidate_ids == []

    def test_none_equality_never_uses_an_index(self, collection):
        # {"name": None} also matches documents missing the field, which the
        # index cannot see: the planner must fall back to a full scan.
        load(collection)
        collection.create_index("name")
        collection.insert_one({"_id": "missing-name"})
        plan = collection.planner.plan({"name": None})
        assert plan.access_path == FULL_SCAN
        result = collection.find_with_cost({"name": None})
        assert [doc["_id"] for doc in result.documents] == ["missing-name"]

    def test_limit_caps_index_scan_reads(self, collection):
        load(collection)
        limited = collection.find_with_cost({"_id": {"$gte": "u0000"}}, limit=5)
        unlimited = collection.find_with_cost({"_id": {"$gte": "u0000"}})
        assert len(limited.documents) == 5
        assert limited.simulated_seconds < unlimited.simulated_seconds
        # The limited scan returns the *first* documents in key order.
        assert [doc["_id"] for doc in limited.documents] == [
            f"u{index:04d}" for index in range(5)]

    def test_cursor_limit_is_pushed_into_the_planner(self, collection):
        load(collection)
        documents = collection.find({"_id": {"$gte": "u0010"}}).limit(3).to_list()
        assert [doc["_id"] for doc in documents] == ["u0010", "u0011", "u0012"]


class TestIndexMaintenance:
    def test_range_index_follows_updates_and_deletes(self, collection):
        load(collection)
        collection.create_index("n")
        collection.update_one({"_id": "u0005"}, {"$set": {"n": 999}})
        plan = collection.planner.plan({"n": {"$gte": 900}})
        assert plan.access_path == INDEX_RANGE
        assert plan.materialize() == ["u0005"]
        collection.delete_one({"_id": "u0005"})
        assert collection.planner.plan({"n": {"$gte": 900}}).materialize() == []

    def test_id_range_follows_deletes(self, collection):
        load(collection, 10)
        collection.delete_many({"_id": {"$gte": "u0005"}})
        assert collection.count_documents() == 5
        assert collection.find_with_cost({"_id": {"$gte": "u0005"}}).documents == []

    def test_multikey_equality_finds_array_elements(self, collection):
        collection.create_index("tags")
        collection.insert_one({"_id": "a", "tags": ["red", "blue"]})
        collection.insert_one({"_id": "b", "tags": "red"})
        collection.insert_one({"_id": "c", "tags": ["green"]})
        plan = collection.planner.plan({"tags": "red"})
        assert plan.access_path == INDEX_EQ
        assert plan.candidate_ids == ["a", "b"]
        result = collection.find_with_cost({"tags": "red"})
        assert sorted(doc["_id"] for doc in result.documents) == ["a", "b"]

    def test_multikey_conjunction_of_points_not_lost(self, collection):
        # {"a": [1, 5]} matches both point constraints via different array
        # elements; the planner must not treat them as contradictory.
        collection.create_index("a")
        collection.insert_one({"_id": "x", "a": [1, 5]})
        for query in ({"$and": [{"a": 1}, {"a": 5}]},
                      {"a": {"$eq": 1, "$in": [5]}}):
            result = collection.find_with_cost(query)
            assert [doc["_id"] for doc in result.documents] == ["x"], query


class TestExplain:
    def test_explain_reports_the_winning_plan(self, collection):
        load(collection)
        collection.create_index("n")
        explanation = collection.explain({"n": {"$gte": 10, "$lt": 20}})
        assert explanation["winning_plan"]["access_path"] == INDEX_RANGE
        assert explanation["winning_plan"]["field"] == "n"
        assert explanation["documents"] == 40
        considered = {plan["access_path"] for plan in explanation["considered_plans"]}
        assert FULL_SCAN in considered

    def test_explain_estimates_order_paths_correctly(self, collection):
        load(collection)
        collection.create_index("n")
        explanation = collection.explain({"n": {"$gte": 35}})
        by_path = {plan["access_path"]: plan
                   for plan in explanation["considered_plans"]}
        assert (by_path[INDEX_RANGE]["estimated_cost"]
                < by_path[FULL_SCAN]["estimated_cost"])


class TestAcceptance:
    """The PR's acceptance criterion, on >= 1k documents."""

    N = 1200

    def _loaded(self, indexed: bool) -> Collection:
        collection = Collection("big", WiredTigerEngine())
        collection.insert_many([
            {"_id": f"d{index:05d}", "n": index} for index in range(self.N)
        ])
        if indexed:
            collection.create_index("n")
        return collection

    def test_range_query_examines_only_index_range_candidates(self):
        collection = self._loaded(indexed=True)
        query = {"n": {"$gte": 100, "$lt": 160}}
        explanation = collection.explain(query)
        assert explanation["winning_plan"]["access_path"] == INDEX_RANGE
        assert explanation["winning_plan"]["candidates_examined"] == 60

    def test_index_range_is_strictly_cheaper_than_full_scan(self):
        query = {"n": {"$gte": 100, "$lt": 160}}
        indexed = self._loaded(indexed=True)
        unindexed = self._loaded(indexed=False)
        explanation = indexed.explain(query)
        by_path = {plan["access_path"]: plan
                   for plan in explanation["considered_plans"]}
        assert (by_path[INDEX_RANGE]["estimated_cost"]
                < by_path[FULL_SCAN]["estimated_cost"])
        # And the actually-charged simulated cost agrees with the estimate.
        indexed_cost = indexed.find_with_cost(query).simulated_seconds
        scan_cost = unindexed.find_with_cost(query).simulated_seconds
        assert indexed_cost < scan_cost
        assert unindexed.planner.plan(query).access_path == FULL_SCAN


class TestDifferential:
    """Planner-backed find must agree exactly with brute-force matches()."""

    FIELDS = ["a", "b", "c"]
    VALUES = [None, True, False, -5, 0, 3, 7, 7.5, "k", "p", "z",
              [3, "k"], ["p"], [True, 0], {"x": 3}, [{"x": 3}, "p"]]

    def _random_document(self, rng: random.Random, index: int) -> dict:
        document = {"_id": f"doc{index:04d}"}
        for field in self.FIELDS:
            if rng.random() < 0.8:
                document[field] = rng.choice(self.VALUES)
        return document

    def _random_query(self, rng: random.Random) -> dict:
        query = {}
        for field in rng.sample(self.FIELDS + ["_id"], rng.randint(1, 2)):
            shape = rng.random()
            if field == "_id":
                value = f"doc{rng.randrange(120):04d}"
                query[field] = (value if shape < 0.5
                                else {"$gte": value} if shape < 0.75
                                else {"$lt": value})
                continue
            if shape < 0.25:
                query[field] = rng.choice(self.VALUES)
            elif shape < 0.4:
                query[field] = {"$in": rng.sample(self.VALUES, rng.randint(1, 3))}
            elif shape < 0.5:
                # Conjoined point constraints: arrays may satisfy each
                # through a different element.
                query[field] = {"$eq": rng.choice(self.VALUES),
                                "$in": rng.sample(self.VALUES, rng.randint(1, 2))}
            elif shape < 0.8:
                operators = rng.sample(["$gt", "$gte", "$lt", "$lte"],
                                       rng.randint(1, 2))
                query[field] = {op: rng.choice(self.VALUES[1:11])
                                for op in operators}
            else:
                query[field] = {"$ne": rng.choice(self.VALUES)}
        return query

    @pytest.mark.parametrize("indexed", [False, True], ids=["unindexed", "indexed"])
    @pytest.mark.parametrize("engine_class", [WiredTigerEngine, MmapV1Engine],
                             ids=["wiredtiger", "mmapv1"])
    def test_planner_results_match_brute_force(self, engine_class, indexed):
        rng = random.Random(1234 if indexed else 4321)
        collection = Collection("diff", engine_class())
        if indexed:
            for field in self.FIELDS:
                collection.create_index(field)
        documents = [self._random_document(rng, index) for index in range(120)]
        collection.insert_many(documents)

        brute = {str(doc["_id"]): doc for doc in documents}
        for __ in range(150):
            query = self._random_query(rng)
            expected = sorted(
                (record_id for record_id, doc in brute.items()
                 if matches(doc, query)))
            result = collection.find_with_cost(query)
            actual = sorted(str(doc["_id"]) for doc in result.documents)
            assert actual == expected, (query, indexed)

    def test_index_backed_queries_match_after_mutations(self):
        rng = random.Random(99)
        collection = Collection("diff", WiredTigerEngine())
        collection.create_index("a")
        brute: dict[str, dict] = {}
        for index in range(200):
            roll = rng.random()
            if roll < 0.6 or not brute:
                document = self._random_document(rng, index)
                if str(document["_id"]) in brute:
                    continue
                collection.insert_one(document)
                brute[str(document["_id"])] = document
            elif roll < 0.8:
                target = rng.choice(sorted(brute))
                new_value = rng.choice(self.VALUES)
                collection.update_one({"_id": target}, {"$set": {"a": new_value}})
                brute[target] = {**brute[target], "a": new_value}
            else:
                target = rng.choice(sorted(brute))
                collection.delete_one({"_id": target})
                del brute[target]
            query = self._random_query(rng)
            expected = sorted(record_id for record_id, doc in brute.items()
                              if matches(doc, query))
            actual = sorted(str(doc["_id"])
                            for doc in collection.find_with_cost(query).documents)
            assert actual == expected, query


class TestLazyLookupCostIsTheWalksOwn:
    """A lazy ``INDEX_RANGE`` plan charges the B-tree nodes *its* walk
    visited -- not the change of the index-wide counter, which every other
    reader and writer of the index moves while the walk is suspended."""

    N = 5000
    QUERY = {"_id": {"$gte": "d02500"}}

    def _loaded(self) -> Collection:
        collection = Collection("big", WiredTigerEngine())
        collection.insert_many([{"_id": f"d{index:05d}"} for index in range(self.N)])
        return collection

    def test_another_walk_between_two_candidates_is_not_charged(self):
        collection = self._loaded()
        alone = collection.planner.plan(self.QUERY, limit=10)
        assert alone.access_path == INDEX_RANGE
        candidates = alone.lazy_candidates()
        assert len([next(candidates) for __ in range(10)]) == 10
        interleaved = collection.planner.plan(self.QUERY, limit=10)
        candidates = interleaved.lazy_candidates()
        next(candidates)
        other = collection.planner.plan({"_id": {"$gte": "d00000"}})
        assert len(list(other.lazy_candidates())) == self.N
        assert len([next(candidates) for __ in range(9)]) == 9
        assert (interleaved.current_lookup_cost() == alone.current_lookup_cost()
                < other.current_lookup_cost())

    def test_a_limited_range_read_costs_the_same_beside_a_writer(self):
        collection = self._loaded()
        # One key, inserted and deleted over and over: the index is written
        # all the time and keeps its shape (a delete never rebalances).
        collection.insert_one({"_id": "a-writer"})
        collection.delete_one({"_id": "a-writer"})
        quiet = collection.find_with_cost(self.QUERY, limit=10)
        stop = threading.Event()

        def writer() -> None:
            while not stop.is_set():
                collection.insert_one({"_id": "a-writer"})
                collection.delete_one({"_id": "a-writer"})

        thread = threading.Thread(target=writer)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads inside nearly every read
        try:
            thread.start()
            beside = [collection.find_with_cost(self.QUERY, limit=10)
                      for __ in range(300)]
        finally:
            stop.set()
            thread.join(timeout=10)
            sys.setswitchinterval(interval)
        assert not thread.is_alive()
        assert {len(result.documents) for result in beside} == {10}
        assert {result.simulated_seconds for result in beside} == {
            quiet.simulated_seconds}


def range_scan(index: SecondaryIndex, interval) -> tuple[list[str], int]:
    """An index's materialised :meth:`SecondaryIndex.iter_range`:
    ``(ids, B-tree nodes visited)``."""
    visited = [0]
    return list(index.iter_range(interval, visited)), visited[0]


class TestOrderedIndexUnit:
    def test_range_scan_returns_only_window_entries(self):
        index = SecondaryIndex("n")
        for value in range(100):
            index.add(f"r{value:03d}", {"n": value})
        from repro.docstore.predicates import Interval

        ids, accesses = range_scan(index, Interval(10, 20, True, False))
        assert ids == [f"r{value:03d}" for value in range(10, 20)]
        assert accesses > 0

    def test_range_scan_is_type_segregated(self):
        index = SecondaryIndex("v")
        index.add("num", {"v": 5})
        index.add("text", {"v": "5"})
        index.add("flag", {"v": True})
        from repro.docstore.predicates import Interval

        ids, __ = range_scan(index, Interval(low=0, low_inclusive=True))
        assert ids == ["num"]
        ids, __ = range_scan(index, Interval(low="", low_inclusive=True))
        assert ids == ["text"]
