"""The sharded document-store cluster.

A :class:`ShardedCluster` owns N :class:`~repro.docstore.server.DocumentServer`
shards plus, per sharded namespace, a chunk map
(:class:`~repro.docstore.sharding.chunks.ChunkManager`) and a
:class:`~repro.docstore.sharding.balancer.Balancer`.  All data access flows
through the cluster's :class:`~repro.docstore.sharding.router.QueryRouter`.
With ``replicas > 1`` every shard is a
:class:`~repro.docstore.replication.replica_set.ReplicaSet` that elects its
own primary on whichever operation finds the old one dead -- routed, a drop
or a maintenance scan alike -- so the cluster has no failover code.

The cluster is a :class:`~repro.docstore.server.DocumentDeployment` like a
:class:`DocumentServer` (``database()`` / ``run_command()`` /
``drop_database()`` / ``server_status()`` and the diagnostics folded over its
shards) so a :class:`~repro.docstore.client.DocumentClient` can be handed a
cluster wherever it previously took a server -- evaluation clients,
benchmarks and agents gain sharding without code changes.

Concurrency model: each shard has independent locks, so client threads
spread across shards contend far less than on one server.  The workload
runner distributes the thread count over the shards (the cluster's
``concurrency_lanes``) and applies the storage engine's Amdahl-style
:class:`~repro.docstore.cost.ConcurrencyProfile` per shard, capping the total
at the thread count.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass, field as dataclass_field
from typing import Any

from repro.docstore.collection import (
    Collection,
    DerivedReads,
    OperationResult,
)
from repro.docstore.cost import TICKS_PER_SECOND, CostParameters
from repro.docstore.observability import (
    MetricsRegistry,
    Profiler,
    render_query_shape,
)
from repro.docstore.operations import ROUTED, generated
from repro.docstore.replication.replica_set import READ_PRIMARY, ReplicaSet
from repro.docstore.server import BUILD_INFO, DocumentDeployment, DocumentServer
from repro.docstore.sharding.balancer import Balancer, Migration, key_values
from repro.docstore.sharding.chunks import STRATEGIES, STRATEGY_HASH, ChunkManager
from repro.docstore.sharding.executor import ShardExecutor
from repro.docstore.sharding.router import QueryRouter
from repro.errors import DocumentStoreError


@dataclass
class ShardingState:
    """Routing metadata of one sharded namespace."""

    key: str
    manager: ChunkManager
    balancer: Balancer = dataclass_field(default_factory=Balancer)
    inserts_since_maintenance: int = 0
    documents_routed: int = 0

    def __post_init__(self) -> None:
        # Guards the two insert counters (``ShardedCluster.auto_maintain``).
        self._counter_lock = threading.Lock()
        # Held for the duration of a maintenance round.  ``auto_maintain``
        # only *tries* to take it: when another thread is already splitting
        # and balancing the namespace there is no point queueing a second
        # round behind it (it would rescan the same documents), so the
        # trigger is simply skipped.  Explicit ``maintain()`` calls block.
        self.maintenance_lock = threading.Lock()


# Every routed operation of the table: one gate on the *cluster's* profiler,
# the router call behind it, one span wrapper for when profiling is on.
_ROUTED_OPERATION = """
def {name}(self, {params}):
    cluster = self.cluster
    if not cluster.profiler.enabled:
        return cluster.router.{name}(self.database, self.name, {args})
    return self._traced({span!r}, {subject}, {parallel},
                        cluster.router.{name}, {args})
"""


@generated(_ROUTED_OPERATION, ROUTED)
class RoutedCollection(DerivedReads):
    """The router-backed stand-in for a :class:`Collection`.

    Exposes the operation surface :class:`~repro.docstore.client.CollectionHandle`
    expects from its target: the table's routed operations
    (:mod:`repro.docstore.operations`) are generated, delegating every call
    to the cluster's router.
    """

    def __init__(self, cluster: "ShardedCluster", database: str, collection: str):
        cluster.sharding_state(database, collection)  # sharded on first use
        self.cluster = cluster
        self.database = database
        self.name = collection
        self.namespace = f"{database}.{collection}"  # what its spans report

    def _traced(self, label: str | None, subject: Any, parallel: bool,
                operation: Any, *arguments: Any) -> Any:
        """Run one routed operation inside a router-level span.

        Only entered when the *cluster's* profiler is enabled; shard-side
        spans are recorded independently by each shard's own profiler (the
        mongos/mongod split).  The span is filled from the merged result:
        per-shard child spans (from ``shard_costs``, with measured
        ``wall_ms`` when the fan-out really dispatched), the straggler for
        parallel fan-outs, and the scatter/targeted classification.
        Operations without a span label (DDL) run bare.
        """
        if label is None:
            return operation(self.database, self.name, *arguments)
        cluster = self.cluster
        profiler = cluster.profiler
        span = profiler.start(
            label, self.namespace,
            None if subject is None else render_query_shape(subject))
        try:
            result = operation(self.database, self.name, *arguments)
            span.note_result(result)
            # A count or the distinct values carry no per-shard breakdown.
            if isinstance(result, OperationResult) and result.shard_costs:
                shards = span.add_shard_children(result.shard_costs, parallel,
                                                 result.shard_wall_seconds)
                span.targeting = ("scatter" if shards == cluster.shard_count > 1
                                  else "targeted")
            return result
        except BaseException as error:
            span.errored = type(error).__name__
            raise
        finally:
            profiler.finish(span)

    def explain(self, query: dict[str, Any] | list[dict[str, Any]] | None = None,
                limit: int | None = None) -> dict[str, Any]:
        """Routing decision plus the per-shard query plans.

        A pipeline (list of stages) reports the shard/router split and every
        shard's pushdown decisions instead of a single query plan.
        """
        return self.cluster.router.explain(
            self.database, self.name, {} if query is None else query, limit=limit)

    # -- statistics ----------------------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """Merged ``collStats`` across shards plus routing metadata."""
        return self.cluster.collection_stats(self.database, self.name)

    @property
    def engine(self):
        """A representative engine (shard 0's) for concurrency/name lookups."""
        return self.cluster.shard_collection_on(0, self.database, self.name).engine

    def __repr__(self) -> str:
        return (f"RoutedCollection({self.database}.{self.name}, "
                f"shards={self.cluster.shard_count})")


class ShardedCluster(DocumentDeployment):
    """N document servers behind one ``mongos``-style query router.

    Args:
        shards: number of shard servers to start.
        storage_engine: engine every shard runs (``"wiredtiger"``/``"mmapv1"``).
        shard_key: default shard key for namespaces not explicitly sharded.
        strategy: default placement strategy, ``"hash"`` or ``"range"``.
        split_threshold: chunk size (documents) that triggers a split.
        auto_maintenance: when True, chunk splitting and balancing run
            automatically after every ``split_threshold`` inserts into a
            namespace; when False, call :meth:`maintain` explicitly.
        replicas: members per shard; ``1`` (the default) runs plain
            :class:`DocumentServer` shards, larger values run each shard as
            a :class:`~repro.docstore.replication.replica_set.ReplicaSet`
            (which elects its own primary on failover).
        write_concern / read_preference / replication_lag: replica-set
            configuration applied to every shard (ignored for replicas=1).
        cost_parameters / engine_options: forwarded to every shard server.

    Multi-shard fan-outs dispatch concurrently through the cluster's
    per-shard :class:`~repro.docstore.sharding.executor.ShardExecutor`
    until :meth:`close`, and serially inline after it.
    """

    def __init__(
        self,
        shards: int = 2,
        storage_engine: str = "wiredtiger",
        shard_key: str = "_id",
        strategy: str = STRATEGY_HASH,
        split_threshold: int = 64,
        auto_maintenance: bool = True,
        replicas: int = 1,
        write_concern: int | str = 1,
        read_preference: str = READ_PRIMARY,
        replication_lag: int = 0,
        cost_parameters: CostParameters | None = None,
        **engine_options: Any,
    ):
        super().__init__()
        if shards <= 0:
            raise DocumentStoreError("a cluster needs at least one shard")
        if replicas <= 0:
            raise DocumentStoreError("a shard needs at least one replica")
        if strategy not in STRATEGIES:
            raise DocumentStoreError(
                f"unknown sharding strategy {strategy!r}; supported: {STRATEGIES}"
            )
        if replicas == 1:
            self.shards: list[DocumentServer | ReplicaSet] = [
                DocumentServer(storage_engine, cost_parameters=cost_parameters,
                               **engine_options)
                for __ in range(shards)
            ]
        else:
            self.shards = [
                ReplicaSet(members=replicas, storage_engine=storage_engine,
                           set_name=f"shard{index}", write_concern=write_concern,
                           read_preference=read_preference,
                           replication_lag=replication_lag,
                           cost_parameters=cost_parameters, **engine_options)
                for index in range(shards)
            ]
        self.replicas = replicas
        self.storage_engine = storage_engine
        self.default_shard_key = shard_key
        self.default_strategy = strategy
        self.split_threshold = split_threshold
        self.auto_maintenance = auto_maintenance
        # The cluster's parallel dispatch layer: one queue + worker pool per
        # shard, created with the cluster and shut down with it.  The
        # finalizer holds only the executor (via the bound method), never
        # the cluster, so the router<->cluster reference cycle still
        # collects; ``close()`` runs it early and is idempotent.
        self.executor = ShardExecutor(shards)
        self._executor_finalizer = weakref.finalize(self, self.executor.close)
        self.router = QueryRouter(self)
        self._states: dict[tuple[str, str], ShardingState] = {}
        # Guards get-or-create on ``_states``: two threads first touching a
        # namespace concurrently must agree on one ShardingState (two chunk
        # maps for the same namespace would route the same key to different
        # shards), and the statuses' snapshot of it (``_sharding_states``).
        # Reentrant because ``sharding_state`` holds it across its call into
        # ``shard_collection``, which takes it again to publish.
        self._states_lock = threading.RLock()
        # Router-level observability (the mongos side): router spans carry
        # per-shard child spans; each shard keeps its own registry/profiler.
        self.metrics = MetricsRegistry()
        self.profiler = Profiler(self.metrics)

    # -- the deployment surface ------------------------------------------------------

    #: Router spans are tagged ``source: "router"`` in the merged slow-op log.
    source = "router"
    children_key = "shards"
    collection_class = RoutedCollection

    @property
    def shard_count(self) -> int:
        return len(self.shards)

    def children(self) -> list[tuple[str, DocumentDeployment]]:
        return [(f"shard{index}", shard) for index, shard in enumerate(self.shards)]

    def concurrency_lanes(self) -> int:
        return self.shard_count

    def has_collection(self, database: str, collection: str) -> bool:
        return (database, collection) in self._states

    def database_stats(self, database: str) -> dict[str, Any]:
        """Merged ``dbStats`` across every shard."""
        merged = {"db": database, "collections": 0, "documents": 0, "storage_bytes": 0}
        for server in self.shards:
            if database in server.database_names():
                stats = server.database(database).stats()
                merged["documents"] += stats["documents"]
                merged["storage_bytes"] += stats["storage_bytes"]
        merged["collections"] = len(self.collection_names(database))
        merged["shards"] = self.shard_count
        return merged

    def drop_database(self, name: str) -> bool:
        dropped = False
        for server in self.shards:
            dropped = server.drop_database(name) or dropped
        with self._states_lock:
            for key in [key for key in self._states if key[0] == name]:
                del self._states[key]
        self._forget_stand_ins(name)  # after the states: sharded on next use
        return dropped

    def database_names(self) -> list[str]:
        names: set[str] = set()
        for server in self.shards:
            names.update(server.database_names())
        return sorted(names)

    def own_command(self, command: dict[str, Any]) -> dict[str, Any]:
        """The sharding commands: ``listShards``, ``shardCollection`` (with
        ``key``/``strategy`` fields) and ``balancerStatus`` (plus
        ``buildInfo`` and the per-shard ``replSetGetStatus``)."""
        if "buildInfo" in command:
            return {**BUILD_INFO, "sharded": True, "shards": self.shard_count}
        if "listShards" in command:
            return {"ok": 1, "shards": [
                {"id": name, "engine": server.storage_engine,
                 "databases": len(server.database_names())}
                for name, server in self.children()
            ]}
        if "shardCollection" in command:
            namespace = command["shardCollection"]
            db_name, __, coll_name = namespace.partition(".")
            state = self.shard_collection(
                db_name, coll_name,
                key=command.get("key", self.default_shard_key),
                strategy=command.get("strategy", self.default_strategy),
            )
            return {"ok": 1, "collectionsharded": namespace, "key": state.key,
                    "strategy": state.manager.strategy}
        if "balancerStatus" in command:
            return {"ok": 1, "migrations": self._migration_count()}
        if "replSetGetStatus" in command:
            if not self.replicated:
                return {"ok": 1, "set": None, "role": "standalone", "members": []}
            return {"ok": 1, "shards": {
                name: shard.replica_set_status() for name, shard in self.children()
            }}
        return super().own_command(command)

    def server_status(self) -> dict[str, Any]:
        """Cluster-wide status merging every shard's ``serverStatus``."""
        per_shard = [server.server_status() for server in self.shards]
        status = {
            "storageEngine": {"name": self.storage_engine},
            "sharded": True,
            "shards": self.shard_count,
            "replicas": self.replicas,
            "fanout": {
                "workers": self.executor.active_workers(),
                "fanouts": self.executor.fanouts,
                "tasks_dispatched": self.executor.tasks_dispatched,
            },
            "commands": self._commands_executed,
            "databases": len(self.database_names()),
            "totalDocuments": sum(status["totalDocuments"] for status in per_shard),
            "chunks": sum(len(state.manager.chunks()) for state in self._sharding_states()),
            "migrations": self._migration_count(),
        }
        if self.replicated:  # where a replica set reports them
            status["repl"] = {
                "failovers": sum(rs.failovers for rs in self.shards),
                "rolled_back_entries": sum(rs.rolled_back_entries for rs in self.shards),
            }
        status["metrics"] = self.metrics_snapshot()
        status["locks"] = self.locks_report()
        return status

    # -- sharding management -----------------------------------------------------------

    def shard_collection(self, database: str, collection: str, key: str | None = None,
                         strategy: str | None = None) -> ShardingState:
        """Explicitly shard ``database.collection`` with ``key``/``strategy``.

        Must happen before the namespace holds documents; re-sharding a
        populated namespace would orphan its chunk bookkeeping.
        """
        existing = self._states.get((database, collection))
        if existing is not None:
            populated = any(
                len(shard.database(database).collection(collection)) > 0
                for shard in self.shards
                if shard.has_collection(database, collection)
            )
            if populated:
                raise DocumentStoreError(
                    f"{database}.{collection} is already sharded and populated"
                )
        state = ShardingState(
            key=key or self.default_shard_key,
            manager=ChunkManager(self.shard_count,
                                 strategy=strategy or self.default_strategy,
                                 split_threshold=self.split_threshold),
        )
        with self._states_lock:
            self._states[(database, collection)] = state
        return state

    def sharding_state(self, database: str, collection: str) -> ShardingState:
        """The routing state of a namespace (sharded with defaults on first use)."""
        state = self._states.get((database, collection))
        if state is None:
            # Get-or-create under the lock: two threads racing the first
            # access of a namespace must not each build a chunk map.
            with self._states_lock:
                state = self._states.get((database, collection))
                if state is None:
                    state = self.shard_collection(database, collection)
        return state

    def shard_collection_on(self, shard_id: int, database: str,
                            collection: str) -> Collection:
        """The physical collection of one shard (router/balancer plumbing).

        With replicated shards this is the shard's
        :class:`~repro.docstore.replication.replica_set.ReplicatedCollection`,
        which speaks the same operation protocol.
        """
        return self.shards[shard_id].database(database).collection(collection)

    # -- replication management --------------------------------------------------------

    @property
    def replicated(self) -> bool:
        return self.replicas > 1

    def replica_set(self, shard_id: int) -> ReplicaSet:
        """The replica set backing one shard (replicated clusters only)."""
        shard = self.shards[shard_id]
        if not isinstance(shard, ReplicaSet):
            raise DocumentStoreError(
                f"shard {shard_id} is not replicated (replicas={self.replicas})"
            )
        return shard

    def drop_collection(self, database: str, collection: str) -> bool:
        dropped = False
        for server in self.shards:
            if database in server.database_names():
                dropped = server.database(database).drop_collection(collection) or dropped
        with self._states_lock:
            self._states.pop((database, collection), None)
        self._forget_stand_ins(database, collection)  # after the state
        return dropped

    def collection_names(self, database: str) -> list[str]:
        names: set[str] = set()
        for server in self.shards:
            if database in server.database_names():
                names.update(server.database(database).collection_names())
        return sorted(names)

    # -- maintenance: splits and balancing ---------------------------------------------

    def maintain(self, database: str, collection: str) -> dict[str, Any]:
        """Run one maintenance round: split oversized chunks, then balance.

        Returns a summary with the splits performed, the migrations run and
        their total ``simulated_seconds`` (each migration physically inserts
        and deletes its documents, so the time is real and callers must
        charge it -- the router bills it to the insert that triggered the
        round, the benchmark's load phase to the load total).
        """
        state = self.sharding_state(database, collection)
        with state.maintenance_lock:
            splits, migrations = self._maintain_locked(database, collection, state)
        return {
            "splits": splits,
            "migrations": [m.as_dict() for m in migrations],
            "simulated_seconds": sum(m.ticks for m in migrations) / TICKS_PER_SECOND,
        }

    def _maintain_locked(self, database: str, collection: str,
                         state: ShardingState) -> tuple[int, list[Migration]]:
        """One maintenance round -- the splits it made, the migrations it ran
        -- while the caller holds ``state.maintenance_lock``."""
        splits = self.split_chunks(database, collection)
        migrations = self.balance(database, collection)
        with state._counter_lock:
            state.inserts_since_maintenance = 0
        return splits, migrations

    def split_chunks(self, database: str, collection: str) -> int:
        """Split every oversized chunk of a namespace; returns the split count."""
        state = self.sharding_state(database, collection)
        locate = state.manager.locate
        points_by_chunk: dict[int, list[Any]] = {}
        for point in self._routing_points(database, collection, state):
            points_by_chunk.setdefault(locate(point)[0], []).append(point)
        return state.manager.split_oversized(points_by_chunk)

    def balance(self, database: str, collection: str) -> list[Migration]:
        """Run the balancer for a namespace; returns the migrations performed."""
        state = self.sharding_state(database, collection)
        return state.balancer.balance(f"{database}.{collection}", state.key,
                                      state.manager,
                                      self._shard_collections(database, collection))

    def auto_maintain(self, database: str, collection: str,
                      state: ShardingState, inserted: int) -> int:
        """Count ``inserted`` documents the router just stored in a namespace
        and fire the maintenance trigger when they reached it.

        Each maintenance round scans the namespace, so the trigger backs
        off geometrically with the routed document count: rounds run after
        ``split_threshold`` inserts at first, then only once the namespace
        has grown by another ~50%.  That keeps the total maintenance cost
        O(N log N) over a load of N documents instead of O(N^2 / threshold).

        Returns the ticks the round's chunk migrations cost (0 when no round
        ran), which the router charges to the insert that triggered it.
        """
        # ``+=`` on the insert counters is a read-modify-write; concurrent
        # router threads interleaving it would under-count and starve the
        # trigger.
        with state._counter_lock:
            state.inserts_since_maintenance += inserted
            state.documents_routed += inserted
        if not self.auto_maintenance:
            return 0
        trigger = max(self.split_threshold, state.documents_routed // 2)
        if state.inserts_since_maintenance < trigger:
            return 0
        # Non-blocking: when another thread is already running a round for
        # this namespace, a second round queued behind it would rescan the
        # same documents for nothing -- skip and let the next insert retry.
        if not state.maintenance_lock.acquire(blocking=False):
            return 0
        try:
            __, migrations = self._maintain_locked(database, collection, state)
        finally:
            state.maintenance_lock.release()
        return sum(migration.ticks for migration in migrations)

    def inserts_before_maintenance(self, state: ShardingState) -> int | None:
        """How many more routed inserts it takes to fire :meth:`auto_maintain`'s
        trigger -- its inequality solved for the insert count -- or ``None``
        without automatic maintenance.  Where the router cuts a batch.  At
        least 1: a due round that lost the maintenance lock to another thread
        is retried by the next insert.
        """
        if not self.auto_maintenance:
            return None
        since = state.inserts_since_maintenance
        return max(1, self.split_threshold - since,
                   state.documents_routed - 2 * since - 1)

    # -- statistics ---------------------------------------------------------------------

    def collection_stats(self, database: str, collection: str) -> dict[str, Any]:
        """Merged per-shard ``collStats`` plus chunk/balancer metadata."""
        state = self.sharding_state(database, collection)
        per_shard = []
        for shard_id, physical in enumerate(
                self._shard_collections(database, collection)):
            stats = physical.stats()
            stats["shard"] = f"shard{shard_id}"
            per_shard.append(stats)
        return {
            "collection": collection,
            "engine": self.storage_engine,
            "sharded": True,
            "shard_key": state.key,
            "strategy": state.manager.strategy,
            "documents": sum(stats["documents"] for stats in per_shard),
            "storage_bytes": sum(stats["storage_bytes"] for stats in per_shard),
            "simulated_seconds": sum(stats["simulated_seconds"] for stats in per_shard),
            "chunks": len(state.manager.chunks()),
            # JSON-friendly keys: results carrying these stats are uploaded
            # to the control plane, where object keys must be strings.
            "chunk_distribution": {
                f"shard{shard_id}": count
                for shard_id, count in state.manager.chunk_counts().items()
            },
            "splits": state.manager.splits_performed,
            "migrations": len(state.balancer.migrations),
            "migration_seconds": sum(
                m.ticks for m in state.balancer.migrations) / TICKS_PER_SECOND,
            "indexes": per_shard[0]["indexes"] if per_shard else [],
            "per_shard": per_shard,
        }

    def chunk_map(self, database: str, collection: str) -> list[dict[str, Any]]:
        """The namespace's chunk table, one dict per chunk."""
        return self.sharding_state(database, collection).manager.describe()

    # -- lifecycle ----------------------------------------------------------------------

    def close(self) -> None:
        """Shut down the fan-out worker pool.

        Optional -- the pool's daemon workers also stop when the cluster is
        garbage-collected (via the finalizer) or the process exits.  After
        closing, routed operations keep working with serial fan-out.
        """
        self._executor_finalizer()

    # -- internals -------------------------------------------------------------------------

    def _sharding_states(self) -> list[ShardingState]:
        """Every namespace's routing state (a snapshot taken under the lock:
        clients may shard a namespace while a status is being assembled)."""
        with self._states_lock:
            return list(self._states.values())

    def _migration_count(self) -> int:
        return sum(len(state.balancer.migrations) for state in self._sharding_states())

    def _shard_collections(self, database: str, collection: str) -> list[Collection]:
        return [self.shard_collection_on(shard_id, database, collection)
                for shard_id in range(self.shard_count)]

    def _routing_points(self, database: str, collection: str,
                        state: ShardingState) -> list[Any]:
        return [state.manager.routing_point(value)
                for physical in self._shard_collections(database, collection)
                for __, value in key_values(physical, state.key)]

    def __repr__(self) -> str:
        return (f"ShardedCluster(shards={self.shard_count}, "
                f"engine={self.storage_engine!r})")
