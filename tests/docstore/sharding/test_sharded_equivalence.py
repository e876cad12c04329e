"""Differential tests: a sharded cluster must behave like the reference store.

Same seed, same operation sequence (``reference.every_row``), any
deployment -- the surviving documents and every operation's answer must be
what a :class:`~tests.docstore.reference.ReferenceStore` answers; only the
simulated costs may differ (routing, scatter-gather and chunk migrations
legitimately change service times).  Every entry of ``deployments.MATRIX``
runs the sequence, the standalones included; clusters that split and migrate
chunks while it runs are ``test_parallel_router.py``'s, pools open and
closed.

Known, documented exception (matching real ``mongos``): a single-document
write that does not pin the shard key picks its victim in shard-probe
order, which can differ from the store's insertion-order choice when
*several* documents match.  The sequences therefore target single-document
writes by ``_id`` (the common case) and exercise multi-match predicates
through ``update_many``/``delete_many``/``find``, whose results are
order-independent.
"""

from __future__ import annotations

import pytest

from repro.docstore.client import CollectionHandle, DocumentClient
from repro.docstore.sharding import ShardedCluster
from repro.docstore.topology import TopologySpec
from repro.workloads.runner import DocumentBenchmark, WorkloadSpec
from repro.workloads.ycsb import CORE_WORKLOADS
from tests.docstore.deployments import after_ycsb
from tests.docstore.reference import ReferenceStore, every_row

SHARD_COUNTS = [1, 2, 4]


@pytest.fixture(scope="module")
def expected() -> list[tuple]:
    return every_row(ReferenceStore(), seed=3)


class TestCrudEquivalence:
    def test_every_deployment_answers_like_the_reference(self, deployment, expected):
        handle = DocumentClient(deployment).collection("app", "users")
        assert every_row(handle, seed=3) == expected

    def test_costs_may_differ_but_are_accounted(self):
        handle = DocumentClient(ShardedCluster(shards=4)).collection("app", "users")
        handle.insert_one({"_id": "u1", "n": 1})
        result = handle.find_with_cost({"n": 1})
        assert result.simulated_seconds > 0
        assert result.shard_costs


class TestNumericShardKeyEquivalence:
    """A hashed non-``_id`` shard key stored as a float, asked for as the
    equal int: the matcher holds ``1 == 1.0``, so the router must send the
    query to the shard the document was placed on."""

    COUNT = 40

    def handles(self):
        handles = [ReferenceStore(), DocumentClient(ShardedCluster(
            shards=4, shard_key="user")).collection("app", "events")]
        for handle in handles:
            for index in range(self.COUNT):
                handle.insert_one({"_id": f"e{index}", "user": float(index),
                                   "v": index % 35})
        return handles

    def outcomes(self, handle: CollectionHandle | ReferenceStore):
        users = range(self.COUNT)
        return {
            "find": [[d["_id"] for d in handle.find({"user": user})]
                     for user in users],
            "count": [handle.count_documents({"user": user}) for user in users],
            "in": sorted(d["_id"] for d in handle.find(
                {"user": {"$in": list(users)}})),
            "distinct": handle.distinct("v", {"user": {"$in": list(users)}}),
            "update_one": [handle.update_one({"user": user},
                                             {"$inc": {"v": 1}}).modified_count
                           for user in users],
            "delete_one": [handle.delete_one({"user": user}).deleted_count
                           for user in users[::2]],
            "left": sorted((d["_id"], d["v"]) for d in handle.find({})),
        }

    def test_int_queries_find_float_keys(self):
        single, sharded = self.handles()
        expected = self.outcomes(single)
        assert expected["count"] == [1] * self.COUNT
        assert len(expected["distinct"]) == 35
        assert self.outcomes(sharded) == expected

    def test_sub_document_keys_route_by_value_not_key_order(self):
        single = ReferenceStore()
        sharded = DocumentClient(ShardedCluster(shards=4, shard_key="owner")
                                 ).collection("app", "events")
        for handle in (single, sharded):
            for index in range(self.COUNT):
                handle.insert_one({"_id": f"e{index}",
                                   "owner": {"org": index % 7, "id": index}})
        for index in range(self.COUNT):
            query = {"owner": {"id": float(index), "org": index % 7}}
            assert (sharded.count_documents(query)
                    == single.count_documents(query) == 1)


class TestIdsOfDifferentTypesAreDifferentDocuments:
    """``1`` and ``"1"`` on different shards are two documents to every read
    of the router: the one cross-shard identity is the type-tagged
    ``group_token``, never ``str(_id)``."""

    @pytest.mark.parametrize("shards", [2, 4, 8])
    def test_every_read_counts_the_same_documents(self, shards):
        cluster = ShardedCluster(shards=shards)
        handle = DocumentClient(cluster).collection("app", "users")
        manager = cluster.sharding_state("app", "users").manager
        # A shard refuses the second of a pair, as a single server would
        # (its record id is ``str(_id)``): keep the pairs a cluster stores.
        apart = [index for index in range(24)
                 if manager.shard_for(index) != manager.shard_for(str(index))]
        assert len(apart) >= 6
        for index in apart:
            handle.insert_one({"_id": index, "v": index})
            handle.insert_one({"_id": str(index), "v": index})
        stored = 2 * len(apart)
        pipelines = {
            "sort": [{"$sort": {"v": 1}}],
            "stream": [{"$match": {"v": {"$gte": 0}}}, {"$limit": 1000}],
            "group": [{"$group": {"_id": "$_id", "n": {"$count": {}}}}],
        }
        assert len(handle.find({})) == stored
        assert len(handle.find_with_cost({"v": {"$gte": 0}}, limit=1000).documents) == stored
        assert handle.count_documents({}) == stored
        for mode, pipeline in pipelines.items():
            assert cluster.router.explain("app", "users", pipeline)["split"]["mode"] == mode
            assert len(handle.aggregate(pipeline)) == stored, mode
        assert len(handle.distinct("_id")) == stored


class TestWorkloadEquivalence:
    @pytest.mark.parametrize("workload", ["A", "B"])
    def test_ycsb_run_leaves_identical_collections(self, workload):
        baseline = after_ycsb(TopologySpec(), workload)
        for shards in (2, 4):
            assert after_ycsb(TopologySpec(shards=shards), workload) == baseline

    def test_operation_counts_identical_across_shard_counts(self):
        core = CORE_WORKLOADS["F"]
        results = []
        for shards in SHARD_COUNTS:
            spec = WorkloadSpec(record_count=80, operation_count=160, threads=2,
                                mix=core.mix, distribution=core.distribution,
                                seed=21)
            results.append(DocumentBenchmark.for_topology(
                TopologySpec(shards=shards), spec).execute_full())
        counts = [result.operation_counts for result in results]
        assert counts[0] == counts[1] == counts[2]
        documents = [result.engine_statistics["documents"] for result in results]
        assert len(set(documents)) == 1
