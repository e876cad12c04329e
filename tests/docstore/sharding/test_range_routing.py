"""Tests for range-aware shard routing and the router's unified cost model."""

from __future__ import annotations

import pytest

from repro.docstore.predicates import Interval
from repro.docstore.server import DocumentServer
from repro.docstore.sharding import ShardedCluster
from repro.docstore.sharding.chunks import ChunkManager
from repro.docstore.sharding.router import combine_shard_costs


def make_range_cluster(documents: int = 200, shards: int = 4) -> ShardedCluster:
    """A range-sharded cluster with chunks split and balanced across shards."""
    cluster = ShardedCluster(shards=shards, strategy="range", split_threshold=16,
                            auto_maintenance=False)
    handle = cluster.database("app").collection("users")
    handle.insert_many([
        {"_id": f"k{index:04d}", "n": index} for index in range(documents)
    ])
    cluster.maintain("app", "users")
    return cluster


class TestShardsForInterval:
    def test_hash_strategy_cannot_target_ranges(self):
        manager = ChunkManager(shard_count=4, strategy="hash")
        assert manager.shards_for_interval(Interval(low="a")) is None

    def test_range_strategy_targets_overlapping_chunks(self):
        manager = ChunkManager(shard_count=4, strategy="range", split_threshold=2)
        manager.split_oversized({0: list(range(12))})
        for index, chunk in enumerate(manager.chunks()):
            manager.assign(chunk, index % 4)
        owners = manager.shards_for_interval(Interval(low=0, high=2,
                                                      low_inclusive=True,
                                                      high_inclusive=True))
        expected = {chunk.shard_id for chunk in manager.chunks()
                    if chunk.lower is None or chunk.lower <= 2}
        assert owners == expected
        assert owners < set(range(4))  # a narrow range targets a strict subset

    def test_unbounded_interval_covers_every_chunk(self):
        manager = ChunkManager(shard_count=2, strategy="range")
        assert manager.shards_for_interval(Interval()) == {0}

    def test_incomparable_bounds_fall_back(self):
        manager = ChunkManager(shard_count=2, strategy="range", split_threshold=2)
        manager.split_oversized({0: list(range(8))})
        assert manager.shards_for_interval(Interval(low=99)) is not None
        # Interval bounds that do not compare with the chunk bounds
        # (string vs int here) -> TypeError -> None -> scatter fallback.
        assert manager.shards_for_interval(Interval(low="zzz")) is None


class TestRangeTargeting:
    def test_chunks_are_spread_before_asserting(self):
        cluster = make_range_cluster()
        state = cluster.sharding_state("app", "users")
        assert len({chunk.shard_id for chunk in state.manager.chunks()}) > 1

    def test_range_query_counts_as_targeted_not_scatter(self):
        cluster = make_range_cluster()
        handle = cluster.database("app").collection("users")
        targeted_before = cluster.router.targeted_operations
        scatter_before = cluster.router.scatter_operations
        handle.find_with_cost({"_id": {"$gte": "k0190"}})
        assert cluster.router.targeted_operations == targeted_before + 1
        assert cluster.router.scatter_operations == scatter_before

    def test_range_query_contacts_only_owning_shards(self):
        cluster = make_range_cluster()
        handle = cluster.database("app").collection("users")
        state = cluster.sharding_state("app", "users")
        owners = state.manager.shards_for_interval(
            Interval(low="k0190", low_inclusive=True))
        assert owners is not None and len(owners) < cluster.shard_count
        result = handle.find_with_cost({"_id": {"$gte": "k0190"}})
        assert set(result.shard_costs) == {f"shard{sid}" for sid in owners}
        assert len(result.documents) == 10

    def test_range_query_on_hash_sharded_key_scatters(self):
        cluster = ShardedCluster(shards=4, strategy="hash", auto_maintenance=False)
        handle = cluster.database("app").collection("users")
        handle.insert_many([{"_id": f"k{index:04d}"} for index in range(40)])
        scatter_before = cluster.router.scatter_operations
        result = handle.find_with_cost({"_id": {"$gte": "k0030"}})
        assert cluster.router.scatter_operations == scatter_before + 1
        assert len(result.shard_costs) == 4
        assert len(result.documents) == 10

    def test_in_points_target_owning_shards_only(self):
        cluster = make_range_cluster()
        handle = cluster.database("app").collection("users")
        state = cluster.sharding_state("app", "users")
        keys = ["k0001", "k0199"]
        owners = {state.manager.shard_for(key) for key in keys}
        targeted_before = cluster.router.targeted_operations
        result = handle.find_with_cost({"_id": {"$in": keys}})
        assert cluster.router.targeted_operations == targeted_before + 1
        assert set(result.shard_costs) == {f"shard{sid}" for sid in owners}
        assert sorted(doc["_id"] for doc in result.documents) == keys

    def test_contradictory_range_contacts_no_shard(self):
        cluster = make_range_cluster()
        handle = cluster.database("app").collection("users")
        result = handle.find_with_cost({"_id": {"$gt": "k0100", "$lt": "k0050"}})
        assert result.documents == [] and result.shard_costs == {}
        assert result.ticks == 0

    def test_range_targeted_update_and_delete_many(self):
        cluster = make_range_cluster()
        handle = cluster.database("app").collection("users")
        scatter_before = cluster.router.scatter_operations
        updated = handle.update_many({"_id": {"$gte": "k0190"}},
                                     {"$set": {"flag": True}})
        assert updated.matched_count == 10
        deleted = handle.delete_many({"_id": {"$gte": "k0195"}})
        assert deleted.deleted_count == 5
        assert cluster.router.scatter_operations == scatter_before
        assert handle.count_documents() == 195

    def test_range_count_documents_is_targeted(self):
        cluster = make_range_cluster()
        handle = cluster.database("app").collection("users")
        targeted_before = cluster.router.targeted_operations
        assert handle.count_documents({"_id": {"$lt": "k0010"}}) == 10
        assert cluster.router.targeted_operations == targeted_before + 1


class TestShardedEqualsSingleServer:
    """Range queries must stay document-for-document equal to one server."""

    QUERIES = [
        {"_id": {"$gte": "k0150"}},
        {"_id": {"$gt": "k0010", "$lte": "k0042"}},
        {"n": {"$gte": 100, "$lt": 120}},
        {"_id": {"$in": ["k0005", "k0050", "k0150", "missing"]}},
    ]

    def _single(self, documents: int = 200):
        server = DocumentServer("wiredtiger")
        collection = server.database("app").collection("users")
        collection.insert_many([
            {"_id": f"k{index:04d}", "n": index} for index in range(documents)
        ])
        return collection

    @pytest.mark.parametrize("strategy", ["range", "hash"])
    def test_results_identical(self, strategy):
        single = self._single()
        if strategy == "range":
            cluster = make_range_cluster()
        else:
            cluster = ShardedCluster(shards=4, strategy="hash",
                                     auto_maintenance=False)
            cluster.database("app").collection("users").insert_many([
                {"_id": f"k{index:04d}", "n": index} for index in range(200)
            ])
        handle = cluster.database("app").collection("users")
        for query in self.QUERIES:
            expected = sorted(
                (doc["_id"] for doc in single.find_with_cost(query).documents))
            actual = sorted(doc["_id"] for doc in handle.find_with_cost(query).documents)
            assert actual == expected, query

    def test_limited_range_scan_on_indexed_field_identical(self):
        """Limited range scans on a non-_id indexed field: the cluster must
        return the same documents as a single server's ordered index scan,
        even when the field order disagrees with the record-id order."""
        import random

        rng = random.Random(5)
        values = list(range(200))
        rng.shuffle(values)
        documents = [{"_id": f"k{index:04d}", "n": values[index]}
                     for index in range(200)]
        server = DocumentServer("wiredtiger")
        single = server.database("app").collection("users")
        single.insert_many(documents)
        single.create_index("n")
        cluster = ShardedCluster(shards=4, strategy="range", split_threshold=16,
                                 auto_maintenance=False)
        handle = cluster.database("app").collection("users")
        handle.insert_many(documents)
        cluster.maintain("app", "users")
        handle.create_index("n")
        for low in (0, 57, 150):
            query = {"n": {"$gte": low}}
            expected = sorted(doc["_id"] for doc in
                              single.find_with_cost(query, limit=7).documents)
            actual = sorted(doc["_id"] for doc in
                            handle.find_with_cost(query, limit=7).documents)
            assert actual == expected, low

    def test_limited_in_query_on_indexed_field_identical(self):
        """Limited $in queries: a single server's equality lookup emits in
        record-id order, and the cluster merge must match it."""
        documents = [{"_id": "a", "v": 2}, {"_id": "b", "v": 1},
                     {"_id": "c", "v": 2}, {"_id": "d", "v": 1}]
        server = DocumentServer("wiredtiger")
        single = server.database("app").collection("users")
        single.insert_many(documents)
        single.create_index("v")
        cluster = ShardedCluster(shards=4, auto_maintenance=False)
        handle = cluster.database("app").collection("users")
        handle.insert_many(documents)
        handle.create_index("v")
        query = {"v": {"$in": [1, 2]}}
        expected = [doc["_id"] for doc in
                    single.find_with_cost(query, limit=2).documents]
        actual = [doc["_id"] for doc in
                  handle.find_with_cost(query, limit=2).documents]
        assert actual == expected

    def test_broad_range_covering_every_shard_counts_as_scatter(self):
        """A range overlapping every chunk did not narrow the fan-out."""
        cluster = make_range_cluster()
        handle = cluster.database("app").collection("users")
        scatter_before = cluster.router.scatter_operations
        result = handle.find_with_cost({"_id": {"$gte": ""}})
        assert len(result.documents) == 200
        assert cluster.router.scatter_operations == scatter_before + 1

    def test_mistyped_pinned_key_falls_back_to_scatter(self):
        """An equality query with a key of the wrong type must not crash the
        range-sharded router; it scatters and returns [] like one server."""
        cluster = make_range_cluster()
        handle = cluster.database("app").collection("users")
        scatter_before = cluster.router.scatter_operations
        assert handle.find_with_cost({"_id": 5}).documents == []
        assert handle.find_with_cost({"_id": {"$in": [5]}}).documents == []
        assert cluster.router.scatter_operations == scatter_before + 2

    @pytest.mark.parametrize("strategy", ["range", "hash"])
    def test_limited_range_scans_identical(self, strategy):
        """The workload-E shape: a range scan with a pushed-down limit."""
        single = self._single()
        if strategy == "range":
            cluster = make_range_cluster()
        else:
            cluster = ShardedCluster(shards=4, strategy="hash",
                                     auto_maintenance=False)
            cluster.database("app").collection("users").insert_many([
                {"_id": f"k{index:04d}", "n": index} for index in range(200)
            ])
        handle = cluster.database("app").collection("users")
        for start in ("k0000", "k0042", "k0190", "k0197"):
            query = {"_id": {"$gte": start}}
            expected = [doc["_id"] for doc in
                        single.find_with_cost(query, limit=10).documents]
            actual = [doc["_id"] for doc in
                      handle.find_with_cost(query, limit=10).documents]
            assert actual == expected, start


class TestCostModel:
    """Regression tests for the unified serial-probe vs parallel-broadcast model."""

    def test_combine_shard_costs_helper(self):
        costs = {"shard0": 1, "shard1": 3, "shard2": 2}
        assert combine_shard_costs(costs, parallel=True) == 3
        assert combine_shard_costs(costs, parallel=False) == 6
        assert combine_shard_costs({}, parallel=True) == 0

    def test_broadcast_cost_is_the_slowest_shard(self):
        cluster = ShardedCluster(shards=4, auto_maintenance=False)
        handle = cluster.database("app").collection("users")
        handle.insert_many([{"_id": f"u{index}", "g": index % 2}
                            for index in range(40)])
        result = handle.update_many({"g": 0}, {"$set": {"touched": True}})
        assert len(result.shard_costs) == 4
        assert result.ticks == max(result.shard_costs.values())

    def test_probe_cost_is_the_sum_of_probed_shards(self):
        cluster = ShardedCluster(shards=4, auto_maintenance=False)
        handle = cluster.database("app").collection("users")
        handle.insert_many([{"_id": f"u{index}", "g": index % 2}
                            for index in range(40)])
        result = handle.delete_one({"g": 1})
        assert result.deleted_count == 1
        assert result.ticks == sum(result.shard_costs.values())

    def test_scatter_read_cost_is_the_slowest_shard(self):
        cluster = ShardedCluster(shards=4, auto_maintenance=False)
        handle = cluster.database("app").collection("users")
        handle.insert_many([{"_id": f"u{index}", "g": index % 2}
                            for index in range(40)])
        result = handle.find_with_cost({"g": 0})
        assert result.ticks == max(result.shard_costs.values())


class TestRouterExplain:
    def test_explain_reports_targeting_and_shard_plans(self):
        cluster = make_range_cluster()
        handle = cluster.database("app").collection("users")
        explanation = handle.explain({"_id": {"$gte": "k0190"}})
        assert explanation["sharded"] is True
        assert explanation["targeting"] == "targeted"
        assert 0 < len(explanation["shards"]) < cluster.shard_count
        for plan in explanation["shard_plans"].values():
            assert plan["winning_plan"]["access_path"] == "INDEX_RANGE"

    def test_explain_scatter_on_unconstrained_query(self):
        cluster = make_range_cluster()
        handle = cluster.database("app").collection("users")
        explanation = handle.explain({"n": {"$gte": 100}})
        assert explanation["targeting"] == "scatter"
        assert len(explanation["shards"]) == cluster.shard_count
