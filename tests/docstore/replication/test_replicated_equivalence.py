"""Differential tests: a replica set must behave like the reference store.

With ``w=majority`` and primary reads, a :class:`ReplicaSet` answers a
seeded operation sequence document for document as a
:class:`~tests.docstore.reference.ReferenceStore` does -- *including when the
primary is killed mid-run*: every acknowledged write reached a majority, so
the elected successor holds exactly the state the dead primary acknowledged,
and the sequence continues without observable divergence (zero
acknowledged-write loss, the acceptance criterion of the replication PR).
The kill runs on every replicated entry of ``deployments.MATRIX`` whose sets
keep a majority without one member.

The weaker configurations are exercised for their *documented* divergence:
``w=1`` plus a crash legitimately loses the unreplicated tail (that is the
durability trade-off the write concern buys back).
"""

from __future__ import annotations

import pytest

from repro.docstore.client import CollectionHandle, DocumentClient
from repro.docstore.replication import FailureInjector, ReplicaSet
from repro.docstore.sharding.cluster import ShardedCluster
from repro.docstore.topology import TopologySpec
from repro.errors import DuplicateKeyError
from tests.docstore.deployments import MATRIX, after_ycsb, build, replica_sets
from tests.docstore.reference import ReferenceStore, every_row

#: The matrix entries whose replica sets elect a successor when one member dies.
SURVIVE_A_KILL = [name for name, entry in MATRIX.items() if entry.spec.replicas >= 3]


def lagged(members: int = 3) -> ReplicaSet:
    return ReplicaSet(members=members, write_concern="majority", replication_lag=3)


def kill_primaries(deployment) -> None:
    for replica_set in replica_sets(deployment):
        FailureInjector(replica_set).kill_primary()


@pytest.fixture(scope="module")
def expected() -> list[tuple]:
    return every_row(ReferenceStore(), seed=5)


class TestReplicatedEquivalence:
    @pytest.mark.parametrize("members", [3, 5])
    def test_a_lagged_replica_set_answers_like_the_reference(self, members, expected):
        handle = DocumentClient(lagged(members)).collection("app", "users")
        assert every_row(handle, seed=5) == expected

    @pytest.mark.parametrize("kill_at", [10, 40, 70])
    def test_mid_run_primary_kill_is_invisible_at_majority(self, kill_at, expected):
        """Acceptance: failover mid-sequence, zero acknowledged-write loss."""
        replica_set = lagged()
        handle = DocumentClient(replica_set).collection("app", "users")
        assert every_row(handle, seed=5,
                         faults={kill_at: FailureInjector(replica_set).kill_primary}
                         ) == expected
        assert replica_set.failovers == 1  # the kill really caused an election
        assert replica_set.rolled_back_entries == 0

    @pytest.mark.parametrize("kill_at", [10, 40, 70])
    @pytest.mark.parametrize("name", SURVIVE_A_KILL)
    def test_every_primary_killed_mid_run_is_invisible_at_majority(self, name, kill_at,
                                                                  expected):
        deployment = build(name)
        try:
            handle = DocumentClient(deployment).collection("app", "users")
            assert every_row(handle, seed=5,
                             faults={kill_at: lambda: kill_primaries(deployment)}
                             ) == expected
            killed = replica_sets(deployment)
            for replica_set in killed:
                assert (replica_set.failovers, replica_set.rolled_back_entries) == (1, 0)
            # One place on every kind: a replica set's own, a cluster's sums.
            repl = deployment.server_status()["repl"]
            assert (repl["failovers"], repl["rolled_back_entries"]) == (len(killed), 0)
        finally:
            deployment.close()

    def test_acknowledged_inserts_all_survive_a_primary_kill(self):
        """Every insert acknowledged at w=majority is readable after failover."""
        replica_set = lagged()
        handle = DocumentClient(replica_set).collection("app", "users")
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
    def contents(handle: CollectionHandle | ReferenceStore) -> list[dict]:
        return sorted(handle.find_with_cost({}).documents,
                      key=lambda document: document["_id"])

    def test_a_failing_batch_keeps_its_prefix_through_a_primary_kill(self):
        """The prefix used to sit on the primary alone, unacknowledged and
        untailed, until some later write succeeded: killing the primary in
        between rolled it back."""
        a, b, c = ({"_id": name, "n": 1} for name in "abc")
        handles = [ReferenceStore(),
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
        single = ReferenceStore()
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
    def test_replicated_cluster_matches_the_reference_through_failover(self, expected):
        cluster = ShardedCluster(shards=2, replicas=3, write_concern="majority",
                                 split_threshold=16)
        handle = DocumentClient(cluster).collection("app", "users")
        assert every_row(handle, seed=5) == expected
        kill_primaries(cluster)
        assert ("contents", sorted(map(repr, handle.find({})))) == expected[-1]
        assert cluster.server_status()["repl"]["failovers"] == 2
        assert cluster.server_status()["repl"]["rolled_back_entries"] == 0


class TestWorkloadEquivalence:
    @pytest.mark.parametrize("workload", ["A", "B"])
    def test_ycsb_run_leaves_identical_collections(self, workload):
        baseline = after_ycsb(TopologySpec(), workload)
        for replicas in (3, 5):
            assert after_ycsb(TopologySpec(replicas=replicas, write_concern="majority"),
                              workload) == baseline
