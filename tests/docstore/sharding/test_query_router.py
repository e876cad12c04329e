"""Tests for the query router and the cluster's server-compatible surface."""

from __future__ import annotations

import pytest

from repro.docstore.client import DocumentClient
from repro.docstore.sharding import ShardedCluster
from repro.errors import DocumentStoreError, NotFoundError


@pytest.fixture
def cluster() -> ShardedCluster:
    return ShardedCluster(shards=4, auto_maintenance=False)


@pytest.fixture
def users(cluster):
    handle = cluster.database("app").collection("users")
    handle.insert_many([
        {"_id": f"u{index}", "n": index, "category": f"c{index % 3}"}
        for index in range(40)
    ])
    return handle


class ShardsOnRead:
    """Stands in for a part of a namespace's routing state: reading it shards
    another namespace first, as a client thread could at that moment."""

    def __init__(self, cluster: ShardedCluster, namespace: tuple[str, str], part):
        self.cluster, self.namespace, self.part = cluster, namespace, part

    def __getattr__(self, name: str):
        self.cluster.sharding_state(*self.namespace)
        return getattr(self.part, name)


class TestTargetedOperations:
    def test_keyed_read_targets_a_single_shard(self, cluster, users):
        result = users.find_with_cost({"_id": "u5"})
        assert [document["_id"] for document in result.documents] == ["u5"]
        assert len(result.shard_costs) == 1

    def test_insert_routes_to_the_owning_shard(self, cluster, users):
        state = cluster.sharding_state("app", "users")
        shard_id = state.manager.shard_for("u5")
        collection = cluster.shard_collection_on(shard_id, "app", "users")
        assert collection.find_one({"_id": "u5"}) is not None

    def test_documents_live_only_on_their_owning_shard(self, cluster, users):
        state = cluster.sharding_state("app", "users")
        for index in range(40):
            key = f"u{index}"
            owner = state.manager.shard_for(key)
            for shard_id in range(cluster.shard_count):
                found = cluster.shard_collection_on(
                    shard_id, "app", "users").find_one({"_id": key})
                assert (found is not None) == (shard_id == owner)

    def test_keyed_update_and_delete(self, cluster, users):
        assert users.update_one({"_id": "u3"}, {"$set": {"n": 99}}).matched_count == 1
        assert users.find_one({"_id": "u3"})["n"] == 99
        assert users.delete_one({"_id": "u3"}).deleted_count == 1
        assert users.find_one({"_id": "u3"}) is None

    def test_router_counts_targeted_operations(self, cluster, users):
        before = cluster.router.targeted_operations
        users.find_with_cost({"_id": "u1"})
        assert cluster.router.targeted_operations == before + 1


class TestScatterGather:
    def test_unkeyed_query_fans_out_to_every_shard(self, cluster, users):
        result = users.find_with_cost({"category": "c1"})
        assert len(result.documents) == 13  # 40 documents, categories c1 on 1,4,...
        assert set(result.shard_costs) == {f"shard{i}" for i in range(4)}

    def test_scatter_cost_is_the_slowest_shard(self, cluster, users):
        result = users.find_with_cost({"category": "c0"})
        assert result.ticks == max(result.shard_costs.values())

    def test_full_scan_returns_everything(self, cluster, users):
        result = users.find_with_cost({})
        assert len(result.documents) == 40
        assert result.matched_count == 40

    def test_count_documents_merges_shards(self, cluster, users):
        assert users.count_documents() == 40
        assert users.count_documents({"category": "c2"}) == 13
        assert users.count_documents({"_id": "u1"}) == 1

    def test_unkeyed_update_many_merges_counts(self, cluster, users):
        result = users.update_many({"category": "c0"}, {"$set": {"flag": True}})
        assert result.matched_count == 14
        assert result.modified_count == 14
        assert users.count_documents({"flag": True}) == 14

    def test_unkeyed_delete_many_merges_counts(self, cluster, users):
        assert users.delete_many({"category": "c1"}).deleted_count == 13
        assert users.count_documents() == 27

    def test_unkeyed_single_document_writes_affect_one_document(self, cluster, users):
        assert users.update_one({"category": "c2"}, {"$set": {"n": -1}}).matched_count == 1
        assert users.count_documents({"n": -1}) == 1
        assert users.delete_one({"category": "c2"}).deleted_count == 1
        assert users.count_documents() == 39


class TestShardKeyRules:
    def test_insert_without_shard_key_rejected(self):
        cluster = ShardedCluster(shards=2, shard_key="region")
        handle = cluster.database("app").collection("orders")
        with pytest.raises(DocumentStoreError):
            handle.insert_one({"amount": 10})

    def test_shard_key_is_immutable(self):
        cluster = ShardedCluster(shards=2, shard_key="region")
        handle = cluster.database("app").collection("orders")
        handle.insert_one({"_id": "o1", "region": "eu", "amount": 10})
        with pytest.raises(DocumentStoreError):
            handle.update_one({"_id": "o1"}, {"$set": {"region": "us"}})
        for onto_the_key in ({"amount": "region"}, {"amount": "region.sub"}):
            with pytest.raises(DocumentStoreError, match="is immutable"):
                handle.update_one({"_id": "o1"}, {"$rename": onto_the_key})
        with pytest.raises(DocumentStoreError, match="must be strings"):
            handle.update_one({"_id": "o1"}, {"$set": {1: "x"}})
        assert handle.find_one({"_id": "o1"}) == {
            "_id": "o1", "region": "eu", "amount": 10}

    def test_replacement_must_carry_the_shard_key(self):
        cluster = ShardedCluster(shards=2, shard_key="region")
        handle = cluster.database("app").collection("orders")
        handle.insert_one({"_id": "o1", "region": "eu", "amount": 10})
        with pytest.raises(DocumentStoreError):
            handle.update_one({"region": "eu"}, {"amount": 20})
        with pytest.raises(DocumentStoreError):
            handle.update_one({"region": "eu"}, {"region": "us", "amount": 20})

    def test_replacement_with_unpinned_query_rejected(self):
        """An unpinned replacement could silently re-key a document in place."""
        cluster = ShardedCluster(shards=2, shard_key="region")
        handle = cluster.database("app").collection("orders")
        handle.insert_one({"_id": "o1", "region": "eu", "amount": 10})
        with pytest.raises(DocumentStoreError):
            handle.update_one({"amount": 10}, {"region": "us", "amount": 20})
        # The document is untouched and still found via its shard key.
        assert handle.find_one({"region": "eu"})["amount"] == 10

    def test_pinned_replacement_keeping_the_key_succeeds(self):
        cluster = ShardedCluster(shards=2, shard_key="region")
        handle = cluster.database("app").collection("orders")
        handle.insert_one({"_id": "o1", "region": "eu", "amount": 10})
        result = handle.update_one({"region": "eu"}, {"region": "eu", "amount": 20})
        assert result.matched_count == 1
        assert handle.find_one({"region": "eu"})["amount"] == 20

    def test_unique_index_only_on_the_shard_key(self, cluster, users):
        with pytest.raises(DocumentStoreError):
            users.create_index("category", unique=True)
        assert users.create_index("_id", unique=True) == "_id"

    def test_index_creation_broadcasts_to_every_shard(self, cluster, users):
        users.create_index("category")
        for shard_id in range(cluster.shard_count):
            collection = cluster.shard_collection_on(shard_id, "app", "users")
            assert "category" in collection.indexes.names()


class TestClientIntegration:
    def test_document_client_works_against_a_cluster(self):
        client = DocumentClient(ShardedCluster(shards=3))
        users = client.collection("app", "users")
        users.insert_many([{"_id": f"u{index}", "n": index} for index in range(10)])
        assert users.count_documents() == 10
        assert users.find_one({"_id": "u7"})["n"] == 7
        users.update_one({"_id": "u7"}, {"$set": {"n": 70}})
        assert users.find_one({"_id": "u7"})["n"] == 70
        assert client.latencies("insert")
        assert client.latencies("read")
        assert client.drop_database("app") is True

    def test_cluster_commands(self):
        cluster = ShardedCluster(shards=2)
        client = DocumentClient(cluster)
        client.collection("app", "users").insert_one({"_id": "u1"})
        assert client.command({"ping": 1}) == {"ok": 1}
        assert client.command({"buildInfo": 1})["sharded"] is True
        assert len(client.command({"listShards": 1})["shards"]) == 2
        status = client.command({"serverStatus": 1})
        assert status["totalDocuments"] == 1 and status["shards"] == 2
        assert client.command({"dbStats": "app"})["documents"] == 1
        coll_stats = client.command({"collStats": "app.users"})
        assert coll_stats["documents"] == 1 and coll_stats["sharded"] is True

    def test_shard_collection_command(self):
        cluster = ShardedCluster(shards=2)
        response = cluster.run_command({"shardCollection": "app.orders",
                                        "key": "region", "strategy": "range"})
        assert response["key"] == "region"
        assert cluster.sharding_state("app", "orders").manager.strategy == "range"

    def test_unknown_command_and_missing_namespaces(self):
        cluster = ShardedCluster(shards=2)
        with pytest.raises(DocumentStoreError):
            cluster.run_command({"compact": 1})
        with pytest.raises(NotFoundError):
            cluster.run_command({"dbStats": "nope"})
        with pytest.raises(NotFoundError):
            cluster.run_command({"collStats": "nope.missing"})

    def test_resharding_a_populated_namespace_rejected(self):
        cluster = ShardedCluster(shards=2)
        cluster.database("app").collection("users").insert_one({"_id": "u1"})
        with pytest.raises(DocumentStoreError):
            cluster.shard_collection("app", "users", key="other")

    @pytest.mark.parametrize("command", ["serverStatus", "balancerStatus"])
    def test_a_status_while_a_namespace_is_first_used(self, command):
        """Both statuses sum over the sharded namespaces while clients may
        shard one on first use; here the status itself does, the moment it
        reads the first namespace's chunk map or balancer."""
        cluster = ShardedCluster(shards=2)
        state = cluster.sharding_state("db", "a")
        state.manager = ShardsOnRead(cluster, ("db", "b"), state.manager)
        state.balancer = ShardsOnRead(cluster, ("db", "b"), state.balancer)
        response = cluster.run_command({command: 1})
        assert response["ok"] == 1 and response["migrations"] == 0
        assert cluster.has_collection("db", "b")

    def test_merged_collection_stats(self, cluster, users):
        stats = users.stats()
        assert stats["documents"] == 40
        assert stats["sharded"] is True
        assert stats["shard_key"] == "_id"
        assert len(stats["per_shard"]) == 4
        assert stats["storage_bytes"] == sum(
            shard["storage_bytes"] for shard in stats["per_shard"]
        )
