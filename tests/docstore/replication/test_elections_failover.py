"""Elections, failover, rollback, partitions -- and a cluster's shards,
which elect exactly as a standalone replica set does."""

from __future__ import annotations

import threading

import pytest

from repro.docstore.client import DocumentClient
from repro.docstore.replication import (
    ROLE_PRIMARY,
    ROLE_SECONDARY,
    FailureInjector,
    ReplicaSet,
)
from repro.docstore.server import DocumentServer
from repro.docstore.sharding.cluster import ShardedCluster
from repro.errors import NoPrimaryError


def loaded_set(**overrides) -> tuple[ReplicaSet, object]:
    options = {"members": 3, "write_concern": "majority"}
    options.update(overrides)
    replica_set = ReplicaSet(**options)
    handle = DocumentClient(replica_set).collection("app", "docs")
    for index in range(20):
        handle.insert_one({"_id": f"d{index}", "n": index})
    return replica_set, handle


class TestElections:
    def test_kill_primary_elects_the_freshest_secondary(self):
        replica_set, handle = loaded_set()
        injector = FailureInjector(replica_set)
        victim = injector.kill_primary()
        # Nothing happens until an operation needs the primary.
        assert replica_set.failovers == 0
        handle.insert_one({"_id": "after", "n": 99})
        assert replica_set.failovers == 1
        assert replica_set.term == 2
        new_primary = replica_set.primary
        assert new_primary.member_id != victim
        assert new_primary.role == ROLE_PRIMARY
        # The winner had the highest applied optime among the survivors.
        assert all(new_primary.applied >= member.applied
                   for member in replica_set.reachable_members())
        assert len(replica_set.elections) == 1
        record = replica_set.elections[0]
        assert record.votes == 2 and record.member_count == 3
        assert record.ticks > 0

    def test_majority_writes_survive_failover_without_rollback(self):
        replica_set, handle = loaded_set(replication_lag=5)
        FailureInjector(replica_set).kill_primary()
        handle.insert_one({"_id": "after", "n": 99})
        assert replica_set.rolled_back_entries == 0
        surviving = {document["_id"]
                     for document in handle.find_with_cost({}).documents}
        assert {f"d{index}" for index in range(20)} <= surviving

    def test_w1_failover_rolls_back_the_unreplicated_tail(self):
        replica_set, handle = loaded_set(write_concern=1, replication_lag=4)
        FailureInjector(replica_set).kill_primary()
        handle.insert_one({"_id": "after", "n": 99})
        assert replica_set.rolled_back_entries == 4
        surviving = {document["_id"]
                     for document in handle.find_with_cost({}).documents}
        # The last 4 acknowledged inserts died with the primary.
        assert surviving == {f"d{index}" for index in range(16)} | {"after"}

    def test_no_majority_means_no_primary(self):
        replica_set, handle = loaded_set()
        injector = FailureInjector(replica_set)
        injector.kill(1)
        injector.kill(2)
        with pytest.raises(NoPrimaryError):
            replica_set.elect()
        with pytest.raises(NoPrimaryError):
            handle.insert_one({"_id": "nope"})

    def test_step_down_hands_over_to_another_member(self):
        replica_set, __ = loaded_set()
        old_primary = replica_set.primary.member_id
        response = replica_set.run_command({"replSetStepDown": 1})
        assert response["ok"] == 1
        assert replica_set.primary.member_id != old_primary
        assert replica_set.members[old_primary].role == ROLE_SECONDARY


class TestRestartAndResync:
    def test_restarted_secondary_catches_up(self):
        replica_set, handle = loaded_set(write_concern=1)
        injector = FailureInjector(replica_set)
        injector.kill(2)
        for index in range(20, 30):
            handle.insert_one({"_id": f"d{index}", "n": index})
        injector.restart(2)
        member = replica_set.members[2]
        assert member.applied == replica_set.oplog.entries[-1].optime
        assert len(member.server.database("app").collection("docs")) == 30

    def test_dead_primary_resyncs_after_rollback(self):
        """The old primary's data ran ahead of the truncated oplog: on
        restart it must rebuild from scratch, dropping the rolled-back tail."""
        replica_set, handle = loaded_set(write_concern=1, replication_lag=4)
        injector = FailureInjector(replica_set)
        victim = injector.kill_primary()
        handle.insert_one({"_id": "after", "n": 99})  # election + rollback
        assert replica_set.members[victim].needs_resync
        injector.restart(victim)
        member = replica_set.members[victim]
        assert member.role == ROLE_SECONDARY
        assert not member.needs_resync
        assert member.resyncs == 1
        documents = {record_id for record_id, __ in member.server.database(
            "app").collection("docs").engine.scan_uncharged()}
        assert "d19" not in documents  # rolled back everywhere, resync included
        assert "after" in documents

    def test_injector_keeps_an_event_log(self):
        replica_set, handle = loaded_set()
        injector = FailureInjector(replica_set)
        victim = injector.kill_primary()
        handle.insert_one({"_id": "x"})
        injector.restart(victim)
        events = [event["event"] for event in injector.events]
        assert events == ["kill", "restart"]


class TestPartitions:
    def test_partitioned_primary_steps_down_for_the_majority_side(self):
        replica_set, handle = loaded_set()
        victim = replica_set.primary.member_id
        FailureInjector(replica_set).partition({victim})
        handle.insert_one({"_id": "after", "n": 99})
        assert replica_set.primary.member_id != victim
        assert replica_set.failovers == 1

    def test_minority_cannot_elect(self):
        replica_set, __ = loaded_set()
        injector = FailureInjector(replica_set)
        injector.partition([0, 1])  # two of three members isolated
        with pytest.raises(NoPrimaryError):
            replica_set.elect()

    def test_heal_rejoins_and_catches_up(self):
        replica_set, handle = loaded_set(write_concern=1)
        injector = FailureInjector(replica_set)
        victim = replica_set.primary.member_id
        injector.partition({victim})
        handle.insert_one({"_id": "after", "n": 99})
        injector.heal()
        member = replica_set.members[victim]
        assert member.role == ROLE_SECONDARY
        assert member.applied == replica_set.oplog.entries[-1].optime
        assert handle.count_documents({}) == 21


class TestRouterFailover:
    def make_cluster(self) -> tuple[ShardedCluster, object]:
        cluster = ShardedCluster(shards=2, replicas=3, write_concern="majority",
                                 split_threshold=16)
        handle = DocumentClient(cluster).collection("app", "docs")
        for index in range(40):
            handle.insert_one({"_id": f"d{index}", "n": index})
        return cluster, handle

    def test_a_killed_shard_primary_is_replaced_on_the_operation_that_notices(self):
        cluster, handle = self.make_cluster()
        replica_set = cluster.replica_set(0)
        victim = FailureInjector(replica_set).kill_primary()
        # Nothing happens until an operation needs the primary.
        assert replica_set.failovers == 0
        assert handle.count_documents({}) == 40
        assert replica_set.failovers == 1 and replica_set.term == 2
        assert replica_set.primary.member_id != victim
        assert cluster.server_status()["repl"]["failovers"] == 1

    def test_router_elects_and_retries_on_failover(self):
        cluster, handle = self.make_cluster()
        FailureInjector(cluster.replica_set(0)).kill_primary()
        FailureInjector(cluster.replica_set(1)).kill_primary()
        # A scatter read touches both shards: each fails over exactly once.
        assert handle.count_documents({}) == 40
        assert [shard.failovers for shard in cluster.shards] == [1, 1]
        assert cluster.server_status()["repl"]["failovers"] == 2

    def test_one_primary_death_is_one_election_however_many_notice(self):
        """Four readers find shard 0's primary dead before any of them acts:
        the first to take the election lock elects, the other three find
        the new primary when they check again under it."""
        cluster, handle = self.make_cluster()
        owner = cluster.sharding_state("app", "docs").manager.shard_for
        key = next(f"d{index}" for index in range(40)
                   if owner(f"d{index}") == 0)
        replica_set = cluster.replica_set(0)
        term = replica_set.term
        FailureInjector(replica_set).kill_primary()
        barrier = threading.Barrier(4)
        noticed = threading.local()
        usable = replica_set._primary_usable

        def primary_usable(member):
            answer = usable(member)
            if not answer and not getattr(noticed, "dead", False):
                noticed.dead = True
                barrier.wait(timeout=10)  # all four saw it dead
            return answer

        replica_set._primary_usable = primary_usable
        found: list = []

        def read() -> None:
            found.append(handle.find_one({"_id": key}))

        threads = [threading.Thread(target=read) for __ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive()
        assert found == [{"_id": key, "n": int(key[1:])}] * 4
        assert replica_set.failovers == 1
        assert replica_set.term == term + 1
        assert len(replica_set.elections) == 1

    def test_workload_continues_after_shard_failover(self):
        cluster, handle = self.make_cluster()
        FailureInjector(cluster.replica_set(0)).kill_primary()
        for index in range(40, 80):
            handle.insert_one({"_id": f"d{index}", "n": index})
        assert handle.count_documents({}) == 80
        assert cluster.server_status()["repl"]["failovers"] == 1
        assert cluster.server_status()["repl"]["rolled_back_entries"] == 0

    def test_unelectable_shard_raises_loudly(self):
        cluster, handle = self.make_cluster()
        injector = FailureInjector(cluster.replica_set(0))
        injector.kill(0)
        injector.kill(1)
        with pytest.raises(NoPrimaryError):
            handle.count_documents({})


NAMESPACES = [("app", "docs"), ("app", "other"), ("keep", "docs")]

#: A cluster's admin paths, and what each is on a standalone.
ADMIN = {
    "maintain": lambda deployment: (
        deployment.maintain("app", "docs")
        if isinstance(deployment, ShardedCluster) else None),
    "drop_collection": lambda deployment: (
        deployment.database("app").drop_collection("docs")),
    "drop_database": lambda deployment: deployment.drop_database("app"),
}


class TestAdminPathsOverADeadShardPrimary:
    """A cluster's admin paths reach every shard without the router: one
    whose primary died elects once, on the path's first operation there,
    and the documents left are a standalone's."""

    @staticmethod
    def load(deployment) -> DocumentClient:
        client = DocumentClient(deployment)
        for namespace in NAMESPACES:
            client.collection(*namespace).insert_many(
                [{"_id": f"d{index}", "n": index} for index in range(40)])
        return client

    @staticmethod
    def contents(client: DocumentClient) -> dict:
        return {namespace: sorted(client.collection(*namespace).find({}),
                                  key=lambda document: document["_id"])
                for namespace in NAMESPACES}

    @pytest.mark.parametrize("admin", sorted(ADMIN))
    def test_the_path_succeeds_with_one_election(self, admin):
        cluster = ShardedCluster(shards=2, replicas=3, write_concern="majority",
                                 split_threshold=16)
        standalone = DocumentServer()
        clients = [self.load(deployment) for deployment in (cluster, standalone)]
        replica_set = cluster.replica_set(1)
        FailureInjector(replica_set).kill_primary()
        for deployment in cluster, standalone:
            ADMIN[admin](deployment)
        assert len(replica_set.elections) == replica_set.failovers == 1
        assert cluster.replica_set(0).failovers == 0
        assert self.contents(clients[0]) == self.contents(clients[1])
        cluster.close()
