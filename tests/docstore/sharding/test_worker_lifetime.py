"""A cluster that is dropped -- not closed -- must still go away.

Regression for the leak PR 11's harness found: an idle ``ShardExecutor``
worker kept the last fan-out's closure (router -> cluster) alive while it
blocked on its queue, so the cluster was never finalized and its
``shardN-fanout-*`` threads lived forever.
"""

from __future__ import annotations

import gc
import threading
import weakref

from repro.agent.base import JobContext
from repro.agent.metrics import AgentMetrics
from repro.agents.sharded_agent import ShardedMongoAgent
from repro.docstore.client import DocumentClient
from repro.docstore.sharding.cluster import ShardedCluster
from repro.util.clock import SimulatedClock


def _fanout_workers() -> list[threading.Thread]:
    return [thread for thread in threading.enumerate()
            if "-fanout-" in thread.name]


def _joined(workers: list[threading.Thread]) -> bool:
    for worker in workers:
        worker.join(timeout=5)
    return not any(worker.is_alive() for worker in workers)


def test_dropped_cluster_is_finalized_and_its_workers_stop():
    cluster = ShardedCluster(shards=2)
    handle = DocumentClient(cluster).collection("db", "c")
    handle.insert_many([{"_id": f"k{index}", "v": index} for index in range(8)])
    assert len(handle.find({})) == 8  # one scatter: spawns shard 1's workers
    executor = cluster.executor
    workers = list(executor._threads)
    assert len(workers) == 2 and all(worker.is_alive() for worker in workers)
    alive = weakref.ref(cluster)
    del cluster, handle
    gc.collect()
    assert alive() is None
    assert executor._closed
    assert _joined(workers)


def test_close_is_idempotent_and_every_deployment_has_it():
    cluster = ShardedCluster(shards=2)
    DocumentClient(cluster).collection("db", "c").find({})
    workers = list(cluster.executor._threads)
    cluster.close()
    cluster.close()
    assert cluster.executor._closed and _joined(workers)
    for shard in cluster.shards:
        shard.close()  # a server holds nothing: a no-op


def test_mongo_agent_clean_up_closes_its_deployment():
    before = set(_fanout_workers())
    agent = ShardedMongoAgent()
    context = JobContext(
        job_id="job-lifetime",
        parameters={"storage_engine": "wiredtiger", "shards": 3, "threads": 1,
                    "record_count": 60, "operation_count": 80,
                    "query_mix": "50:50", "ycsb_workload": "E", "seed": 3},
        deployment={"host": "test"},
        metrics=AgentMetrics(SimulatedClock()),
    )
    agent.set_up(context)
    agent.execute(context)
    spawned = [worker for worker in _fanout_workers() if worker not in before]
    assert spawned, "the workload scattered, so workers were spawned"
    agent.clean_up(context)
    assert context.state == {}
    assert _joined(spawned)
    agent.clean_up(context)  # a second clean-up finds nothing to close
