"""Tests for chunk splitting and balancer migrations at the cluster level."""

from __future__ import annotations

from repro.docstore.client import DocumentClient
from repro.docstore.cost import TICKS_PER_SECOND
from repro.docstore.sharding import ShardedCluster
from tests.docstore.deployments import owners_of


def load(cluster: ShardedCluster, count: int):
    handle = DocumentClient(cluster).collection("app", "users")
    handle.insert_many([
        {"_id": f"user{index:04d}", "n": index} for index in range(count)
    ])
    return handle


class TestSplitting:
    def test_load_splits_oversized_chunks(self):
        cluster = ShardedCluster(shards=2, split_threshold=16, auto_maintenance=False)
        load(cluster, 100)
        assert cluster.split_chunks("app", "users") > 0
        manager = cluster.sharding_state("app", "users").manager
        manager.validate()
        assert len(manager.chunks()) > 2

    def test_every_key_owned_by_exactly_one_chunk_after_splits(self):
        cluster = ShardedCluster(shards=2, split_threshold=8, auto_maintenance=False)
        load(cluster, 120)
        cluster.split_chunks("app", "users")
        manager = cluster.sharding_state("app", "users").manager
        owners = owners_of(manager, [f"user{index:04d}" for index in range(120)])
        assert all(len(chunks) == 1 for chunks in owners.values())

    def test_split_respects_the_threshold(self):
        cluster = ShardedCluster(shards=1, split_threshold=10, auto_maintenance=False)
        load(cluster, 75)
        cluster.split_chunks("app", "users")
        manager = cluster.sharding_state("app", "users").manager
        collection = cluster.shard_collection_on(0, "app", "users")
        for chunk in manager.chunks():
            owned = sum(
                1 for __, document in collection.engine.scan_uncharged()
                if chunk.covers(manager.routing_point(document["_id"]))
            )
            assert owned <= 10


class TestBalancing:
    def test_range_load_converges_to_even_chunk_counts(self):
        cluster = ShardedCluster(shards=4, strategy="range", split_threshold=16,
                                 auto_maintenance=False)
        load(cluster, 200)
        cluster.maintain("app", "users")
        counts = cluster.sharding_state("app", "users").manager.chunk_counts()
        assert max(counts.values()) - min(counts.values()) <= 1

    def test_migration_loses_no_documents(self):
        cluster = ShardedCluster(shards=4, strategy="range", split_threshold=16,
                                 auto_maintenance=False)
        handle = load(cluster, 200)
        before = sorted(d["_id"] for d in handle.find_with_cost({}).documents)
        summary = cluster.maintain("app", "users")
        assert summary["migrations"], "expected the balancer to migrate chunks"
        after = sorted(d["_id"] for d in handle.find_with_cost({}).documents)
        assert before == after
        assert handle.count_documents() == 200

    def test_migrated_documents_live_on_their_new_shard(self):
        cluster = ShardedCluster(shards=2, strategy="range", split_threshold=8,
                                 auto_maintenance=False)
        load(cluster, 60)
        cluster.maintain("app", "users")
        state = cluster.sharding_state("app", "users")
        for index in range(60):
            key = f"user{index:04d}"
            owner = state.manager.shard_for(key)
            document = cluster.shard_collection_on(
                owner, "app", "users").find_one({"_id": key})
            assert document is not None, f"{key} missing from shard {owner}"

    def test_migrations_are_recorded_with_document_counts(self):
        cluster = ShardedCluster(shards=4, strategy="range", split_threshold=16,
                                 auto_maintenance=False)
        load(cluster, 200)
        cluster.maintain("app", "users")
        state = cluster.sharding_state("app", "users")
        assert state.balancer.migrations
        for migration in state.balancer.migrations:
            assert migration.namespace == "app.users"
            assert migration.documents_moved >= 0
            assert migration.source_shard != migration.target_shard

    def test_balanced_cluster_needs_no_further_migrations(self):
        cluster = ShardedCluster(shards=4, split_threshold=16,
                                 auto_maintenance=False)
        load(cluster, 100)
        cluster.maintain("app", "users")
        assert cluster.balance("app", "users") == []

    def test_auto_maintenance_triggers_during_load(self):
        cluster = ShardedCluster(shards=4, strategy="range", split_threshold=16)
        load(cluster, 200)
        state = cluster.sharding_state("app", "users")
        state.manager.validate()
        assert len(state.manager.chunks()) > 1
        assert state.balancer.migrations
        counts = state.manager.chunk_counts()
        assert max(counts.values()) - min(counts.values()) <= 1


class TestMigrationCostAccounting:
    """Chunk migrations are charged to the operations that trigger them."""

    def test_maintain_reports_the_migrations_simulated_cost(self):
        cluster = ShardedCluster(shards=4, strategy="range", split_threshold=16,
                                 auto_maintenance=False)
        load(cluster, 200)
        summary = cluster.maintain("app", "users")
        assert summary["migrations"]
        # every migration the cluster ran: this round's, maintenance is manual
        migrations = cluster.sharding_state("app", "users").balancer.migrations
        assert [m.as_dict() for m in migrations] == summary["migrations"]
        ticks = sum(m.ticks for m in migrations)
        assert ticks > 0
        assert summary["simulated_seconds"] == ticks / TICKS_PER_SECOND

    def test_triggering_insert_pays_for_the_maintenance_round(self):
        cluster = ShardedCluster(shards=4, strategy="range", split_threshold=16)
        handle = DocumentClient(cluster).collection("app", "users")
        state = cluster.sharding_state("app", "users")
        charged = 0
        for index in range(200):
            migrations_before = len(state.balancer.migrations)
            result = handle.insert_one({"_id": f"user{index:04d}", "n": index})
            new_migrations = state.balancer.migrations[migrations_before:]
            if new_migrations:
                round_cost = sum(m.ticks for m in new_migrations)
                assert result.ticks >= round_cost
                assert result.shard_costs["balancer"] == round_cost
                charged += round_cost
        assert state.balancer.migrations, "expected migrations during the load"
        assert charged > 0
        assert cluster.router.maintenance_ticks == charged

    def test_migration_seconds_surface_in_collection_stats(self):
        cluster = ShardedCluster(shards=4, strategy="range", split_threshold=16)
        load(cluster, 200)
        statistics = cluster.collection_stats("app", "users")
        assert statistics["migrations"] > 0
        assert statistics["migration_seconds"] > 0

    def test_free_migrations_regression_benchmark_charges_measured_phase(self):
        """An insert-heavy measured phase must include its balancing cost."""
        from repro.docstore.topology import TopologySpec
        from repro.workloads.runner import DocumentBenchmark, WorkloadSpec
        from repro.workloads.ycsb import OperationMix

        spec = WorkloadSpec(record_count=60, operation_count=240, seed=5,
                            mix=OperationMix(insert=1.0), distribution="uniform")
        benchmark = DocumentBenchmark.for_topology(
            TopologySpec(shards=4, shard_strategy="range"), spec)
        benchmark.load()
        cluster = benchmark.server
        state = cluster.sharding_state("benchmark", "usertable")
        migrations_before = len(state.balancer.migrations)
        charged_before = cluster.router.maintenance_ticks
        result = benchmark.run()
        migrated = state.balancer.migrations[migrations_before:]
        assert migrated, "expected the insert stream to trigger migrations"
        charged = cluster.router.maintenance_ticks - charged_before
        assert charged == sum(m.ticks for m in migrated)
        # The measured latencies include the charge (simulated_seconds of the
        # run is at least the migration cost scaled by the speedup model).
        assert result.simulated_seconds > 0
