"""Scale-out demo: a YCSB workload against a 4-shard document-store cluster.

Walks through the full sharding story:

* declare a four-shard :class:`~repro.docstore.topology.TopologySpec` and let
  the topology layer build the
  :class:`~repro.docstore.sharding.cluster.ShardedCluster` behind a
  ``mongos``-style query router,
* run YCSB workload B against it through the unchanged
  :class:`~repro.docstore.client.DocumentClient` machinery,
* inspect the chunk table, split and migration bookkeeping,
* compare throughput against a single server with the same workload, and
* prove the routed results are equivalent: the sharded cluster ends up with
  exactly the same documents as the single server, document for document.

Run with::

    python examples/sharded_cluster_demo.py
"""

from __future__ import annotations

from repro.docstore.server import DocumentServer
from repro.docstore.sharding import ShardedCluster
from repro.docstore.topology import TopologySpec
from repro.workloads.runner import DocumentBenchmark, WorkloadSpec
from repro.workloads.ycsb import CORE_WORKLOADS

WORKLOAD = "B"
SHARDS = 4
THREADS = 8


def build_benchmark(shards: int) -> DocumentBenchmark:
    """The deployment shape is declared data; the topology layer builds it."""
    workload = CORE_WORKLOADS[WORKLOAD]
    spec = WorkloadSpec(record_count=300, operation_count=600, threads=THREADS,
                        mix=workload.mix, distribution=workload.distribution,
                        seed=11)
    topology = TopologySpec(shards=shards, storage_engine="wiredtiger")
    return DocumentBenchmark.for_topology(topology, spec)


def collection_documents(benchmark: DocumentBenchmark) -> list[dict]:
    documents = benchmark.handle.find_with_cost({}).documents
    return sorted(documents, key=lambda document: document["_id"])


def main() -> None:
    workload = CORE_WORKLOADS[WORKLOAD]
    print(f"== YCSB workload {WORKLOAD} ({workload.description}) ==")
    print(f"cluster: {SHARDS} shards, single server baseline, {THREADS} threads")
    print()

    sharded = build_benchmark(SHARDS)
    single = build_benchmark(1)
    print(f"declared topology: {sharded.topology.as_dict()}")
    print()
    sharded_result = sharded.execute_full()
    single_result = single.execute_full()

    cluster: ShardedCluster = sharded.server
    assert isinstance(cluster, ShardedCluster)
    assert isinstance(single.server, DocumentServer)

    print("== Chunk table (after splits and balancing) ==")
    for chunk in cluster.chunk_map("benchmark", "usertable"):
        lower = "-inf" if chunk["lower"] is None else chunk["lower"]
        upper = "+inf" if chunk["upper"] is None else chunk["upper"]
        print(f"  shard{chunk['shard']}: [{lower}, {upper})")
    statistics = sharded_result.engine_statistics
    print(f"chunks: {statistics['chunks']}, splits: {statistics['splits']}, "
          f"migrations: {statistics['migrations']}")
    print(f"chunk distribution: {statistics['chunk_distribution']}")
    print(f"documents per shard: "
          f"{[server.server_status()['totalDocuments'] for server in cluster.shards]}")
    print(f"router: {cluster.router.targeted_operations} targeted, "
          f"{cluster.router.scatter_operations} scatter-gather operations")
    print()

    print("== Throughput ==")
    print("| deployment | throughput (ops/s) | p95 (ms) |")
    print("| --- | --- | --- |")
    print(f"| 1 server | {single_result.throughput_ops_per_sec:,.0f} "
          f"| {single_result.latency_p95_ms:.3f} |")
    print(f"| {SHARDS} shards | {sharded_result.throughput_ops_per_sec:,.0f} "
          f"| {sharded_result.latency_p95_ms:.3f} |")
    speedup = (sharded_result.throughput_ops_per_sec
               / single_result.throughput_ops_per_sec)
    print(f"scale-out speedup: {speedup:.2f}x")
    print()

    print("== Equivalence ==")
    sharded_documents = collection_documents(sharded)
    single_documents = collection_documents(single)
    assert sharded_documents == single_documents, "sharded results diverged!"
    print(f"sharded cluster and single server hold identical results: "
          f"{len(sharded_documents)} documents match document-for-document")


if __name__ == "__main__":
    main()
