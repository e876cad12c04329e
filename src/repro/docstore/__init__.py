"""A MongoDB-like document database with pluggable storage engines.

This package is the System under Evaluation (SuE) of the paper's
demonstration: the comparative evaluation of MongoDB's ``wiredTiger`` and
``mmapv1`` storage engines.  Since a real MongoDB server is not available in
this environment, the package implements a document database that exposes the
same externally visible behaviour the demo depends on:

* databases and collections with CRUD, rich query operators, update
  operators, ordered secondary indexes and cursors
  (:mod:`repro.docstore.collection`, :mod:`repro.docstore.matching`,
  :mod:`repro.docstore.update_ops`), planned by a cost-based query planner
  (:mod:`repro.docstore.planner`) over shared predicate analysis
  (:mod:`repro.docstore.predicates`), with ``explain()`` on every surface,
* an aggregation pipeline (:mod:`repro.docstore.aggregation`):
  ``$match``/``$project``/``$group``/``$sort``/``$limit`` stages executed as
  a streaming iterator chain, with a leading ``$match`` pushed into the
  query planner, ``$sort``+``$limit`` satisfied by ordered index walks, and
  on a cluster a scatter--partial--merge split that ships partial ``$group``
  accumulator states (and pre-sorted limited streams) from the shards to the
  router -- plus ``distinct()`` and sort-aware client cursors on top,
* two storage engines with the *mechanisms that make them differ* in the
  demo: a B-tree based, block-compressed, document-level-locking engine
  (:mod:`repro.docstore.wiredtiger`) and an extent-based, padded, in-place,
  collection-level-locking engine (:mod:`repro.docstore.mmapv1`), and
* a deterministic cost model (:mod:`repro.docstore.cost`) that converts those
  mechanisms into simulated service times so that experiments finish in
  seconds while preserving the comparative shape of the original results, and
* a sharded cluster (:mod:`repro.docstore.sharding`): N servers behind a
  ``mongos``-style query router with hash/range chunk placement, chunk
  splitting and a balancer, reachable through the same
  :class:`~repro.docstore.client.DocumentClient` as a single server, and
* replica sets (:mod:`repro.docstore.replication`): a primary serialising
  writes into an idempotent oplog that secondaries tail and replay, with
  write concern, read preference, replication lag, majority-vote elections
  and failure injection -- also behind the same client, and usable as the
  shards of a cluster (``ShardedCluster(shards=N, replicas=M)``), and
* the topology layer (:mod:`repro.docstore.topology`): a serializable
  :class:`~repro.docstore.topology.TopologySpec` whose field list is the one
  declaration of a deployment shape (shards, replicas, quorum configuration,
  engine), its one reader from loose data (``TopologySpec.parse``) and the single
  :func:`~repro.docstore.topology.build_topology` factory every consumer --
  benchmarks, agents, CLI and the control plane -- builds deployments
  through.
"""

from repro.docstore.client import DocumentClient
from repro.docstore.replication.failures import FailureInjector
from repro.docstore.replication.replica_set import ReplicaSet
from repro.docstore.server import DocumentServer
from repro.docstore.sharding.cluster import ShardedCluster
from repro.docstore.topology import TopologySpec, build_topology, topology_of

__all__ = ["DocumentServer", "DocumentClient", "ShardedCluster", "ReplicaSet",
           "FailureInjector", "TopologySpec", "build_topology", "topology_of"]
