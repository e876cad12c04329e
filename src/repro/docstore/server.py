"""The document database server: databases, collections and server commands.

A :class:`DocumentServer` plays the role of one ``mongod`` instance
configured with a specific storage engine.  Deployments in Chronos each wrap
one server instance, which is how the demo compares ``wiredtiger`` and
``mmapv1`` side by side.

Observability (PR 8): every server owns one :class:`MetricsRegistry` and one
:class:`Profiler`, shared by all of its collections.  ``server_status()``
reports the registry snapshot plus the server-wide plan-cache rollup and
per-collection lock statistics; ``run_command`` understands the MongoDB
profiler surface (``{"profile": level, "slowms": n}``, ``{"currentOp": 1}``,
``{"top": 1}``).

Admin surface (PR 12): :class:`DocumentDeployment` is the base a server, a
:class:`~repro.docstore.replication.replica_set.ReplicaSet` and a
:class:`~repro.docstore.sharding.cluster.ShardedCluster` share.  It owns the
commands all three understand and folds the diagnostics over
:meth:`~DocumentDeployment.children` (members or shards), so each class adds
only what is its own.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Iterator

from repro.docstore.collection import Collection
from repro.docstore.cost import CostParameters
from repro.docstore.engine_base import StorageEngine
from repro.docstore.mmapv1 import MmapV1Engine
from repro.docstore.observability import (
    MetricsRegistry,
    Profiler,
    check_profiling,
    merge_slow_ops,
    merge_top,
)
from repro.docstore.wiredtiger import WiredTigerEngine
from repro.errors import DocumentStoreError, NotFoundError

_ENGINE_FACTORIES: dict[str, Callable[..., StorageEngine]] = {
    "wiredtiger": WiredTigerEngine,
    "mmapv1": MmapV1Engine,
}

BUILD_INFO = {"ok": 1, "version": "4.0-sim",
              "storageEngines": sorted(_ENGINE_FACTORIES)}


class _Database:
    """A named database: its collections, created on first use.

    Two threads racing the first access of a collection name must agree on
    one object, so get-or-create re-checks under ``_create_lock``; every
    later access is one dictionary lookup.
    """

    def __init__(self, name: str):
        self.name = name
        self._collections: dict[str, Any] = {}
        self._create_lock = threading.Lock()

    def collection(self, name: str) -> Any:
        """Return (creating on first use) the collection called ``name``."""
        existing = self._collections.get(name)
        if existing is not None:
            return existing
        with self._create_lock:
            existing = self._collections.get(name)
            if existing is None:
                existing = self._collections[name] = self._new_collection(name)
        return existing

    def __getitem__(self, name: str) -> Any:
        return self.collection(name)


class DatabaseNamespace(_Database):
    """A named database inside one server (a namespace for collections).

    Each collection carries its own engine -- the loser of a creation race
    would keep its documents in an unreachable one.
    """

    def __init__(self, name: str, engine_factory: Callable[[], StorageEngine],
                 profiler: Profiler | None = None):
        super().__init__(name)
        self._engine_factory = engine_factory
        self._profiler = profiler

    def _new_collection(self, name: str) -> Collection:
        return Collection(name, self._engine_factory(), profiler=self._profiler,
                          namespace=f"{self.name}.{name}")

    def drop_collection(self, name: str) -> bool:
        return self._collections.pop(name, None) is not None

    def collection_names(self) -> list[str]:
        return sorted(self._collections)

    def stats(self) -> dict[str, Any]:
        return {
            "db": self.name,
            "collections": len(self._collections),
            "documents": sum(len(coll) for coll in self._collections.values()),
            "storage_bytes": sum(
                coll.engine.storage_bytes() for coll in self._collections.values()
            ),
        }


class DeploymentDatabase(_Database):
    """A named database of a replica set or a sharded cluster.

    Holds no data: its collections are the deployment's ``collection_class``
    stand-ins (three references each), kept so that an operation does not
    construct one, and the deployment answers for the rest
    (``drop_collection`` / ``collection_names`` / ``database_stats``, each
    taking the database name first).  What is kept here says nothing about
    which collections exist.
    """

    def __init__(self, deployment: "DocumentDeployment", name: str):
        super().__init__(name)
        self.deployment = deployment

    def _new_collection(self, name: str) -> Any:
        return self.deployment.collection_class(self.deployment, self.name, name)

    def forget(self, name: str | None = None) -> None:
        """Let go of the stand-in called ``name`` (of all, without a name), so
        the next access constructs it anew.  Under the creation lock: a
        stand-in that survives a drop was constructed after it."""
        with self._create_lock:
            if name is None:
                self._collections.clear()
            else:
                self._collections.pop(name, None)

    def drop_collection(self, name: str) -> bool:
        return self.deployment.drop_collection(self.name, name)

    def collection_names(self) -> list[str]:
        return self.deployment.collection_names(self.name)

    def stats(self) -> dict[str, Any]:
        return self.deployment.database_stats(self.name)


class DocumentDeployment:
    """What a server, a replica set and a sharded cluster have in common.

    A deployment is a tree: :meth:`children` names its members or shards (a
    server has none) and ``profiler`` / ``metrics`` are its *own*
    observability pair, if it has one (a server's, a cluster's router-level
    pair; a replica set has only its members').  On that the base builds
    the admin surface once: the commands every deployment understands
    (``ping``, ``serverStatus``, ``profile``, ``currentOp``, ``top``,
    ``dbStats``, ``collStats``) and the diagnostics folded over the tree.
    Subclasses provide ``database_names()``, ``server_status()`` and
    ``storage_engine``, and override the small hooks below.
    """

    profiler: Profiler | None = None
    metrics: MetricsRegistry | None = None
    #: The stand-in ``database(d).collection(c)`` hands out, constructed as
    #: ``collection_class(deployment, d, c)`` (a server has real collections).
    collection_class: type
    #: ``source`` tag of this deployment's own entries in a merged slow-op log.
    source: str | None = None
    #: Key counting the children in ``metrics_snapshot()["profiler"]``.
    children_key = "members"
    _commands_executed = 0

    def __init__(self) -> None:
        # The databases handed out so far, one object per name: a server's
        # real namespaces, a replica set's or a cluster's stand-ins.
        self._databases: dict[str, Any] = {}
        # Same get-or-create discipline as ``_Database.collection()``.
        self._create_lock = threading.Lock()

    def children(self) -> list[tuple[str, "DocumentDeployment"]]:
        """The named sub-deployments: members or shards."""
        return []

    def reporting_profiler(self) -> Profiler:
        """The profiler whose level and ``slowms`` describe the deployment."""
        return self.profiler

    def concurrency_lanes(self) -> int:
        """How many independent servers client threads spread over (the
        ``lanes`` of :meth:`~repro.docstore.cost.ConcurrencyProfile.speedup`)."""
        return 1

    def has_collection(self, database: str, collection: str) -> bool:
        return (database in self.database_names()
                and collection in self.database(database).collection_names())

    def close(self) -> None:
        """Release what the deployment holds besides memory (idempotent)."""

    def database(self, name: str) -> Any:
        """Return (creating on first use) the database called ``name``."""
        existing = self._databases.get(name)
        if existing is not None:
            return existing
        with self._create_lock:
            existing = self._databases.get(name)
            if existing is None:
                existing = self._databases[name] = self._new_database(name)
        return existing

    def _new_database(self, name: str) -> Any:
        return DeploymentDatabase(self, name)

    def _forget_stand_ins(self, database: str, collection: str | None = None) -> None:
        """What ``drop_collection`` / ``drop_database`` of a replica set or a
        cluster end with: the dropped namespace's stand-ins are constructed
        anew on their next use (a cluster's shards the namespace again then)."""
        if collection is None:
            stand_in = self._databases.pop(database, None)
        else:
            stand_in = self._databases.get(database)
        if stand_in is not None:
            stand_in.forget(collection)

    def __getitem__(self, name: str) -> Any:
        return self.database(name)

    # -- server commands -----------------------------------------------------------

    def run_command(self, command: dict[str, Any]) -> dict[str, Any]:
        """Execute an administrative command (subset of the MongoDB commands).

        Every deployment supports ``ping``, ``serverStatus``, ``dbStats``,
        ``collStats``, ``profile``, ``currentOp`` and ``top``;
        :meth:`own_command` adds the ones of its kind.
        """
        self._commands_executed += 1
        if "ping" in command:
            return {"ok": 1}
        if "serverStatus" in command:
            return {"ok": 1, **self.server_status()}
        if "profile" in command:
            level = command["profile"]
            if level == -1:  # query without changing, as in MongoDB
                profiler = self.reporting_profiler()
                return {"ok": 1, "was": profiler.level, "level": profiler.level,
                        "slowms": profiler.slow_ms}
            return {"ok": 1, **self.set_profiling(level,
                                                  slow_ms=command.get("slowms"))}
        if "currentOp" in command:
            return {"ok": 1, "inprog": self.current_ops()}
        if "top" in command:
            return {"ok": 1, "totals": self.top()}
        if "dbStats" in command:
            name = command["dbStats"]
            if name not in self.database_names():
                raise NotFoundError(f"database {name!r} does not exist")
            return {"ok": 1, **self.database(name).stats()}
        if "collStats" in command:
            namespace = command["collStats"]
            db_name, __, coll_name = namespace.partition(".")
            if not self.has_collection(db_name, coll_name):
                raise NotFoundError(f"collection {namespace!r} does not exist")
            return {"ok": 1,
                    **self.database(db_name).collection(coll_name).stats()}
        return self.own_command(command)

    def own_command(self, command: dict[str, Any]) -> dict[str, Any]:
        """The commands only this kind of deployment understands."""
        raise DocumentStoreError(f"unsupported command {sorted(command)!r}")

    # -- profiling / metrics, folded over the tree -----------------------------------

    def profilers(self) -> Iterator[tuple[str | None, Profiler]]:
        """Every profiler at or below this deployment with the ``source`` its
        entries carry in merged reports: the own one first (``"router"`` on a
        cluster), then the children's, named by the innermost name that
        identifies them (``"shardN"``, ``"shardN/memberM"``)."""
        if self.profiler is not None:
            yield self.source, self.profiler
        for name, child in self.children():
            for source, profiler in child.profilers():
                yield source or name, profiler

    def set_profiling(self, level: int, slow_ms: float | None = None,
                      capacity: int | None = None) -> dict[str, Any]:
        """Set the profiling level (0 off, 1 slow ops only, 2 all ops) on
        every profiler of the tree; each keeps its own slow-op log.  A request
        one of them would refuse is refused before any of them is touched."""
        check_profiling(level, slow_ms, capacity)
        result: dict[str, Any] = {}
        for __, child in self.children():
            result = child.set_profiling(level, slow_ms=slow_ms, capacity=capacity)
        if self.profiler is not None:
            result = self.profiler.set_profiling(level, slow_ms=slow_ms,
                                                 capacity=capacity)
        return result

    def get_slow_ops(self, limit: int | None = None) -> list[dict[str, Any]]:
        """Every slow-op log of the tree merged (the ``system.profile``
        analog), each entry tagged with its ``source``, ordered by start."""
        return merge_slow_ops(((source, profiler.slow_ops())
                               for source, profiler in self.profilers()), limit)

    def current_ops(self) -> list[dict[str, Any]]:
        """Spans currently in flight (the ``currentOp`` analog), tagged."""
        return [dict(entry, source=source)
                for source, profiler in self.profilers()
                for entry in profiler.current_ops()]

    def top(self) -> dict[str, Any]:
        """Per-namespace, per-op usage totals (the ``top`` analog), summed."""
        own = [self.profiler.top()] if self.profiler is not None else []
        return merge_top(own + [child.top() for __, child in self.children()])

    def metrics_snapshot(self) -> dict[str, Any]:
        """Own and children's registries merged (counters and histogram
        buckets sum), plus the planner rollup and profiler state.

        Counters intentionally layer on a cluster (a routed query counts
        once at the router and once per contacted shard, exactly as mongos
        and mongod each count it).
        """
        children = [child.metrics_snapshot() for __, child in self.children()]
        own = [self.metrics.snapshot()] if self.metrics is not None else []
        merged = MetricsRegistry.merge(own + children)
        merged["planner"] = {
            key: sum(snap["planner"][key] for snap in children)
            for key in ("entries", "hits", "misses", "fast_id_plans", "collections")}
        reporting = self.reporting_profiler()
        profilers = [profiler for __, profiler in self.profilers()]
        merged["profiler"] = {
            "level": reporting.level,
            "slowms": reporting.slow_ms,
            "slow_ops_recorded": sum(p.slow_ops_recorded for p in profilers),
            "slow_ops_dropped": sum(p.slow_ops_dropped for p in profilers),
            self.children_key: len(children),
        }
        return merged

    def locks_report(self) -> dict[str, dict[str, float]]:
        """Per-namespace lock statistics summed over the children."""
        report: dict[str, dict[str, float]] = {}
        for __, child in self.children():
            for namespace, stats in child.locks_report().items():
                slot = report.setdefault(namespace, {})
                for key, value in stats.items():
                    slot[key] = slot.get(key, 0) + value
        return report


class DocumentServer(DocumentDeployment):
    """One simulated document-database server process.

    Args:
        storage_engine: ``"wiredtiger"`` or ``"mmapv1"``.
        cost_parameters: optional cost-model overrides.
        engine_options: extra keyword arguments passed to the engine
            constructor (e.g. ``cache_bytes`` for wiredTiger,
            ``padding_factor`` for mmapv1); one the engine refuses raises
            its ``TypeError`` / ``ValueError`` here.
    """

    def __init__(
        self,
        storage_engine: str = "wiredtiger",
        cost_parameters: CostParameters | None = None,
        **engine_options: Any,
    ):
        if storage_engine not in _ENGINE_FACTORIES:
            raise DocumentStoreError(
                f"unknown storage engine {storage_engine!r}; "
                f"supported: {sorted(_ENGINE_FACTORIES)}"
            )
        super().__init__()
        self.storage_engine = storage_engine
        self._cost_parameters = cost_parameters
        self._engine_options = engine_options
        # Engines are built per collection, on first use: build one now so an
        # option the engine refuses fails here, on every deployment shape.
        self._new_engine()
        # Replication view of this process, maintained by the owning
        # ``ReplicaSetMember`` ({"set", "member_id", "role", "optime", ...});
        # None for a standalone server.
        self.replication: dict[str, Any] | None = None
        # Observability substrate: one registry + profiler per server,
        # shared by every collection (profiling level 0 by default).
        self.metrics = MetricsRegistry()
        self.profiler = Profiler(self.metrics)

    # -- namespace management ----------------------------------------------------

    def _new_database(self, name: str) -> DatabaseNamespace:
        return DatabaseNamespace(name, self._new_engine, profiler=self.profiler)

    def drop_database(self, name: str) -> bool:
        return self._databases.pop(name, None) is not None

    def database_names(self) -> list[str]:
        return sorted(self._databases)

    # -- profiling / metrics: the leaves of the fold ---------------------------------

    def get_slow_ops(self, limit: int | None = None) -> list[dict[str, Any]]:
        """The slow-op log, oldest first (the ``system.profile`` analog)."""
        return self.profiler.slow_ops(limit)

    def current_ops(self) -> list[dict[str, Any]]:
        """Spans currently in flight (the ``currentOp`` analog)."""
        return self.profiler.current_ops()

    def top(self) -> dict[str, Any]:
        """Per-namespace, per-op usage totals (the ``top`` analog)."""
        return self.profiler.top()

    def metrics_snapshot(self) -> dict[str, Any]:
        """The metrics registry snapshot plus the planner/profiler rollups."""
        snapshot = self.metrics.snapshot()
        snapshot["planner"] = self.planner_rollup()
        snapshot["profiler"] = self.profiler.describe()
        return snapshot

    def planner_rollup(self) -> dict[str, int]:
        """Plan-cache counters summed across every collection on the server."""
        rollup = {"entries": 0, "hits": 0, "misses": 0, "fast_id_plans": 0,
                  "collections": 0}
        for collection in self._collections():
            stats = collection.planner.cache_stats()
            rollup["collections"] += 1
            for key in ("entries", "hits", "misses", "fast_id_plans"):
                rollup[key] += stats[key]
        return rollup

    def locks_report(self) -> dict[str, dict[str, float]]:
        """Per-collection lock statistics (acquisitions, contentions, wait)."""
        return {collection.namespace: collection.engine.locks.stats.snapshot()
                for collection in self._collections()}

    # -- server commands -----------------------------------------------------------

    def own_command(self, command: dict[str, Any]) -> dict[str, Any]:
        """``replSetGetStatus`` (this process's view) and ``buildInfo``."""
        if "replSetGetStatus" in command:
            if self.replication is not None:
                return {"ok": 1, **self.replication}
            return {"ok": 1, "set": None, "role": "standalone", "members": []}
        if "buildInfo" in command:
            return dict(BUILD_INFO)
        return super().own_command(command)

    def server_status(self) -> dict[str, Any]:
        """Server-wide statistics (engine, databases, totals, replication role)."""
        return {
            "storageEngine": {"name": self.storage_engine},
            "databases": len(self._databases),
            "commands": self._commands_executed,
            "totalDocuments": sum(len(collection)
                                  for collection in self._collections()),
            "repl": dict(self.replication) if self.replication is not None
            else {"role": "standalone"},
            "metrics": self.metrics_snapshot(),
            "locks": self.locks_report(),
        }

    # -- internals --------------------------------------------------------------------

    def _collections(self) -> Iterator[Collection]:
        """Every collection of every database (over snapshots: clients may
        create namespaces while a status is being assembled)."""
        for database in list(self._databases.values()):
            for name in database.collection_names():
                yield database.collection(name)

    def _new_engine(self) -> StorageEngine:
        factory = _ENGINE_FACTORIES[self.storage_engine]
        if self._cost_parameters is not None:
            return factory(parameters=self._cost_parameters, **self._engine_options)
        return factory(**self._engine_options)
