"""Differential tests: a replica set must behave like a single server.

With ``w=majority`` and primary reads, a :class:`ReplicaSet` is
document-for-document equal to a single :class:`DocumentServer` for the same
seeded operation sequence -- *including when the primary is killed mid-run*:
every acknowledged write reached a majority, so the elected successor holds
exactly the state the dead primary acknowledged, and the sequence continues
without observable divergence (zero acknowledged-write loss, the acceptance
criterion of the replication PR).

The weaker configurations are exercised for their *documented* divergence:
``w=1`` plus a crash legitimately loses the unreplicated tail (that is the
durability trade-off the write concern buys back).
"""

from __future__ import annotations

import random

import pytest

from repro.docstore.client import CollectionHandle, DocumentClient
from repro.docstore.replication import FailureInjector, ReplicaSet
from repro.docstore.server import DocumentServer
from repro.docstore.sharding.cluster import ShardedCluster
from repro.docstore.topology import TopologySpec
from repro.errors import DuplicateKeyError
from repro.workloads.runner import DocumentBenchmark, WorkloadSpec
from repro.workloads.ycsb import CORE_WORKLOADS


def make_handle(deployment: str, members: int = 3) -> CollectionHandle:
    if deployment == "single":
        server: DocumentServer | ReplicaSet = DocumentServer()
    else:
        server = ReplicaSet(members=members, write_concern="majority",
                            replication_lag=3)
    return DocumentClient(server).collection("app", "users")


def run_sequence(handle: CollectionHandle, seed: int = 5,
                 kill_primary_at: int | None = None):
    """A seeded CRUD mix; optionally crashes the primary at one step.

    Returns (sorted documents, operation outcomes).  Only order-independent
    multi-match operations are used (same caveat as the sharded differential
    suite).
    """
    injector = None
    if kill_primary_at is not None:
        injector = FailureInjector(handle._client.server)
    rng = random.Random(seed)
    outcomes = []
    inserted = 0
    for step in range(300):
        if injector is not None and step == kill_primary_at:
            injector.kill_primary()
        roll = rng.random()
        key = f"user{rng.randrange(max(inserted, 1))}"
        if roll < 0.4 or inserted < 10:
            result = handle.insert_one(
                {"_id": f"user{inserted}", "n": inserted, "group": inserted % 5})
            outcomes.append(("insert", tuple(result.inserted_ids)))
            inserted += 1
        elif roll < 0.6:
            result = handle.update_one({"_id": key}, {"$set": {"n": step}})
            outcomes.append(("update", result.matched_count, result.modified_count))
        elif roll < 0.7:
            result = handle.update_many({"group": rng.randrange(5)},
                                        {"$inc": {"touched": 1}})
            outcomes.append(("update_many", result.matched_count))
        elif roll < 0.8:
            result = handle.delete_one({"_id": key})
            outcomes.append(("delete", result.deleted_count))
        elif roll < 0.9:
            documents = handle.find({"group": rng.randrange(5)})
            outcomes.append(("find", sorted(d["_id"] for d in documents)))
        else:
            outcomes.append(("count", handle.count_documents()))
    documents = sorted(handle.find_with_cost({}).documents,
                       key=lambda document: document["_id"])
    return documents, outcomes


class TestReplicatedEquivalence:
    @pytest.mark.parametrize("members", [3, 5])
    def test_replicated_sequence_matches_single_server(self, members):
        single_documents, single_outcomes = run_sequence(make_handle("single"))
        replicated_documents, replicated_outcomes = run_sequence(
            make_handle("replicated", members))
        assert replicated_outcomes == single_outcomes
        assert replicated_documents == single_documents

    @pytest.mark.parametrize("kill_at", [60, 150, 250])
    def test_mid_run_primary_kill_is_invisible_at_majority(self, kill_at):
        """Acceptance: failover mid-sequence, zero acknowledged-write loss."""
        single_documents, single_outcomes = run_sequence(make_handle("single"))
        handle = make_handle("replicated")
        replica_set: ReplicaSet = handle._client.server
        replicated_documents, replicated_outcomes = run_sequence(
            handle, kill_primary_at=kill_at)
        assert replica_set.failovers == 1  # the kill really caused an election
        assert replica_set.rolled_back_entries == 0
        assert replicated_outcomes == single_outcomes
        assert replicated_documents == single_documents

    def test_acknowledged_inserts_all_survive_a_primary_kill(self):
        """Every insert acknowledged at w=majority is readable after failover."""
        handle = make_handle("replicated")
        replica_set: ReplicaSet = handle._client.server
        injector = FailureInjector(replica_set)
        acknowledged: list[str] = []
        for index in range(120):
            if index == 60:
                injector.kill_primary()
            result = handle.insert_one({"_id": f"event{index}", "n": index})
            acknowledged.extend(result.inserted_ids)
        surviving = {document["_id"]
                     for document in handle.find_with_cost({}).documents}
        assert len(acknowledged) == 120
        assert surviving == set(acknowledged)
        assert replica_set.rolled_back_entries == 0

    def test_w1_crash_loses_exactly_the_lag_window(self):
        """The documented contrast: w=1 durability is bounded by the lag."""
        replica_set = ReplicaSet(members=3, write_concern=1, replication_lag=5)
        handle = DocumentClient(replica_set).collection("app", "users")
        for index in range(50):
            handle.insert_one({"_id": f"event{index}", "n": index})
        FailureInjector(replica_set).kill_primary()
        handle.insert_one({"_id": "after", "n": 999})
        assert replica_set.rolled_back_entries == 5
        surviving = {document["_id"]
                     for document in handle.find_with_cost({}).documents}
        assert surviving == {f"event{index}" for index in range(45)} | {"after"}


class TestBatchesThroughFailover:
    """A batch is one ``primary_write``: what it stored -- all of it, or the
    valid prefix of a failing one -- reached a majority before it returned or
    raised, so it survives the primary like a standalone's survives nothing
    happening."""

    BATCHES = [[{"_id": f"user{index}", "n": index} for index in range(start, stop)]
               for start, stop in ((0, 40), (40, 90))]

    @staticmethod
    def contents(handle: CollectionHandle) -> list[dict]:
        return sorted(handle.find_with_cost({}).documents,
                      key=lambda document: document["_id"])

    def test_a_failing_batch_keeps_its_prefix_through_a_primary_kill(self):
        """The prefix used to sit on the primary alone, unacknowledged and
        untailed, until some later write succeeded: killing the primary in
        between rolled it back."""
        a, b, c = ({"_id": name, "n": 1} for name in "abc")
        handles = [make_handle("single"),
                   DocumentClient(ReplicaSet(members=3, write_concern="majority")
                                  ).collection("app", "users")]
        for handle in handles:
            with pytest.raises(DuplicateKeyError) as raised:
                handle.insert_many([a, b, b, c])
            assert raised.value.inserted_ids == ["a", "b"]
        replica_set: ReplicaSet = handles[1]._client.server
        assert [member.applied.as_list() for member in replica_set.members] == [
            [1, 2]] * 3
        FailureInjector(replica_set).kill_primary()
        replica_set.elect()
        assert replica_set.rolled_back_entries == 0
        assert self.contents(handles[1]) == self.contents(handles[0]) == [a, b]

    @pytest.mark.parametrize("lag", [0, 3])
    def test_a_primary_kill_between_two_batches_is_invisible_at_majority(self, lag):
        single = make_handle("single")
        handle = DocumentClient(ReplicaSet(
            members=3, write_concern="majority", replication_lag=lag)
        ).collection("app", "users")
        replica_set: ReplicaSet = handle._client.server
        first, second = self.BATCHES
        assert (handle.insert_many(first).inserted_ids
                == single.insert_many(first).inserted_ids)
        FailureInjector(replica_set).kill_primary()
        assert (handle.insert_many(second).inserted_ids
                == single.insert_many(second).inserted_ids)
        assert replica_set.failovers == 1 and replica_set.rolled_back_entries == 0
        assert self.contents(handle) == self.contents(single)
        assert len(replica_set.oplog) == 90


class TestReplicatedClusterEquivalence:
    def test_replicated_cluster_matches_single_server_through_failover(self):
        single_documents, single_outcomes = run_sequence(make_handle("single"))
        cluster = ShardedCluster(shards=2, replicas=3, write_concern="majority",
                                 split_threshold=16)
        handle = DocumentClient(cluster).collection("app", "users")
        replicated_documents, replicated_outcomes = run_sequence(handle)
        assert replicated_outcomes == single_outcomes
        assert replicated_documents == single_documents
        FailureInjector(cluster.replica_set(0)).kill_primary()
        FailureInjector(cluster.replica_set(1)).kill_primary()
        after = sorted(handle.find_with_cost({}).documents,
                       key=lambda document: document["_id"])
        assert after == single_documents
        assert cluster.server_status()["failovers"] == 2
        assert cluster.server_status()["rolled_back_entries"] == 0


class TestWorkloadEquivalence:
    @pytest.mark.parametrize("workload", ["A", "B"])
    def test_ycsb_run_leaves_identical_collections(self, workload):
        core = CORE_WORKLOADS[workload]

        def final_documents(replicas: int):
            spec = WorkloadSpec(record_count=120, operation_count=240, threads=4,
                                mix=core.mix, distribution=core.distribution,
                                seed=13)
            topology = TopologySpec(
                replicas=replicas,
                write_concern="majority" if replicas > 1 else 1)
            benchmark = DocumentBenchmark.for_topology(topology, spec)
            benchmark.execute_full()
            return sorted(benchmark.handle.find_with_cost({}).documents,
                          key=lambda document: document["_id"])

        baseline = final_documents(1)
        for replicas in (3, 5):
            assert final_documents(replicas) == baseline
