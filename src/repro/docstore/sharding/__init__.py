"""A sharded document-store cluster with a ``mongos``-style query router.

This package scales the single-server document store of
:mod:`repro.docstore` out to a cluster, the way MongoDB scales ``mongod``
processes behind ``mongos``:

* :mod:`~repro.docstore.sharding.cluster` --
  :class:`~repro.docstore.sharding.cluster.ShardedCluster` owns N
  :class:`~repro.docstore.server.DocumentServer` shards and mirrors the
  server surface, so ``DocumentClient(ShardedCluster(shards=4))`` works
  wherever ``DocumentClient(DocumentServer())`` did.
* :mod:`~repro.docstore.sharding.router` --
  :class:`~repro.docstore.sharding.router.QueryRouter` targets operations
  that pin the shard key to one shard and scatter-gathers everything else,
  merging per-shard simulated costs into ``OperationResult.shard_costs``.
* :mod:`~repro.docstore.sharding.executor` --
  :class:`~repro.docstore.sharding.executor.ShardExecutor` gives the router
  a persistent per-shard worker pool (mongos-connection-pool style), so
  fan-outs really run concurrently and multi-shard wall-clock tracks the
  slowest shard instead of the sum.
* :mod:`~repro.docstore.sharding.chunks` --
  :class:`~repro.docstore.sharding.chunks.ChunkManager` partitions the key
  space into chunks (``hash`` or ``range`` strategy) and splits chunks that
  grow past a document threshold.
* :mod:`~repro.docstore.sharding.balancer` --
  :class:`~repro.docstore.sharding.balancer.Balancer` migrates chunks (and
  their documents) between shards until chunk ownership is even.

A workload does not know it runs on a cluster: the shape (``shards``,
``shard_key``, ``shard_strategy``) is a
:class:`~repro.docstore.topology.TopologySpec`, and
``DocumentBenchmark.for_topology`` builds a single server or a cluster from
it, so every YCSB core workload (A-F) runs unchanged against clusters.
"""

from repro.docstore.sharding.balancer import Balancer, Migration
from repro.docstore.sharding.chunks import (
    STRATEGIES,
    STRATEGY_HASH,
    STRATEGY_RANGE,
    Chunk,
    ChunkManager,
    hash_shard_key,
)
from repro.docstore.sharding.cluster import (
    RoutedCollection,
    ShardedCluster,
    ShardingState,
)
from repro.docstore.sharding.executor import ShardExecutor
from repro.docstore.sharding.router import QueryRouter

__all__ = [
    "Balancer",
    "Migration",
    "Chunk",
    "ChunkManager",
    "hash_shard_key",
    "STRATEGIES",
    "STRATEGY_HASH",
    "STRATEGY_RANGE",
    "QueryRouter",
    "RoutedCollection",
    "ShardExecutor",
    "ShardedCluster",
    "ShardingState",
]
