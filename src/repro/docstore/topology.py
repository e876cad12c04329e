"""The topology layer: deployment shape as first-class, serializable data.

Before this module existed every consumer of the document store re-encoded
"what cluster shape am I talking to": the benchmark runner hand-built servers
or clusters, each Chronos agent re-parsed the same parameters, and the
control plane could not describe a deployment beyond a free-form environment
dictionary.  Real distributed stores treat topology (replication factor,
shard layout, quorum configuration) as a *declared property of a deployment*;
this module does the same for the reproduction.

Two pieces:

* :class:`TopologySpec` -- a frozen, validated, JSON-serializable value
  describing one deployment shape: shard count/key/strategy, replica count,
  write concern, read preference, replication lag and storage engine.  Its
  field list is the only place the shape is written down: a workload carries
  none of it, and :meth:`TopologySpec.parse` -- the one reader of a shape
  from loose data, with one coercion per field type -- inverts ``as_dict``,
  so the control plane can store a spec in
  :attr:`~repro.core.entities.Deployment.environment`, validate it at
  registration time and sweep it across deployments, and the agent resolves
  registration defaults, job parameters and that declaration through the
  same reader.
* :func:`build_topology` -- the single factory turning a spec into a live
  deployment: a :class:`~repro.docstore.server.DocumentServer`, a
  :class:`~repro.docstore.replication.replica_set.ReplicaSet` or a
  :class:`~repro.docstore.sharding.cluster.ShardedCluster` (whose shards are
  replica sets when ``replicas > 1``).  Benchmarks, agents, the CLI and the
  control-plane examples all build through this one function; none of them
  contains topology-construction logic of its own.

:func:`topology_of` closes the loop for deployments that were built by hand
(tests, the CLI's workload table): it derives the spec describing an existing
deployment object, so result reporting always comes from the topology layer.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from typing import Any, Mapping

from repro.docstore.cost import CostParameters
from repro.docstore.replication.replica_set import (
    READ_PREFERENCES,
    READ_PRIMARY,
    WRITE_CONCERN_MAJORITY,
    ReplicaSet,
    resolve_write_concern,
)
from repro.docstore.server import (
    _ENGINE_FACTORIES,
    DocumentDeployment,
    DocumentServer,
)
from repro.docstore.sharding.chunks import STRATEGIES, STRATEGY_HASH
from repro.docstore.sharding.cluster import ShardedCluster
from repro.errors import ValidationError

KIND_STANDALONE = "standalone"
KIND_REPLICA_SET = "replica_set"
KIND_SHARDED = "sharded_cluster"
KIND_REPLICATED_CLUSTER = "replicated_cluster"


def parse_int(raw: Any, name: str) -> int:
    """An ``int``, an integral ``float`` or the string of an integer."""
    if isinstance(raw, int) and not isinstance(raw, bool):
        return raw
    if isinstance(raw, float) and raw.is_integer():
        return int(raw)
    if isinstance(raw, str):
        try:
            return int(raw)
        except ValueError:
            pass
    raise ValidationError(f"{name} must be an integer, got {raw!r}")


def parse_str(raw: Any, name: str) -> str:
    if isinstance(raw, str):
        return raw
    raise ValidationError(f"{name} must be a string, got {raw!r}")


def parse_write_concern(raw: Any, name: str = "write_concern") -> int | str:
    """``"majority"`` stays a string, anything else becomes an int."""
    if raw == WRITE_CONCERN_MAJORITY:
        return WRITE_CONCERN_MAJORITY
    return parse_int(raw, f"{name} (unless 'majority')")


#: The coercion of each field type :meth:`TopologySpec.parse` accepts, keyed
#: by the dataclass annotation.
_COERCIONS = {"int": parse_int, "str": parse_str,
              "int | str": parse_write_concern}


@dataclass(frozen=True)
class TopologySpec:
    """One deployment shape of the document store, as plain validated data.

    Attributes:
        shards: shard servers behind the query router (1 means unsharded).
        shard_key: field the sharded namespaces are partitioned on.
        shard_strategy: chunk placement strategy (``"hash"`` or ``"range"``).
        replicas: replica-set members per deployment/shard (1 means
            unreplicated).
        write_concern: ``1`` .. ``replicas`` or ``"majority"``.
        read_preference: ``"primary"`` / ``"secondary"`` / ``"nearest"``.
        replication_lag: oplog entries secondaries may trail behind.
        storage_engine: engine every server runs
            (``"wiredtiger"`` / ``"mmapv1"``).
    """

    shards: int = 1
    shard_key: str = "_id"
    shard_strategy: str = STRATEGY_HASH
    replicas: int = 1
    write_concern: int | str = 1
    read_preference: str = READ_PRIMARY
    replication_lag: int = 0
    storage_engine: str = "wiredtiger"

    def __post_init__(self) -> None:
        if self.shards <= 0:
            raise ValidationError("shards must be positive")
        if not self.shard_key:
            raise ValidationError("shard_key cannot be empty")
        if self.shard_strategy not in STRATEGIES:
            raise ValidationError(
                f"shard_strategy must be one of {STRATEGIES}, "
                f"got {self.shard_strategy!r}"
            )
        if self.replicas <= 0:
            raise ValidationError("replicas must be positive")
        if self.read_preference not in READ_PREFERENCES:
            raise ValidationError(
                f"read_preference must be one of {READ_PREFERENCES}, "
                f"got {self.read_preference!r}"
            )
        if self.replication_lag < 0:
            raise ValidationError("replication_lag cannot be negative")
        if self.storage_engine not in _ENGINE_FACTORIES:
            raise ValidationError(
                f"unknown storage engine {self.storage_engine!r}; "
                f"supported: {sorted(_ENGINE_FACTORIES)}"
            )
        try:
            resolve_write_concern(self.write_concern, self.replicas)
        except Exception as error:
            raise ValidationError(str(error)) from error

    # -- derived shape -----------------------------------------------------------------

    @property
    def is_sharded(self) -> bool:
        return self.shards > 1

    @property
    def is_replicated(self) -> bool:
        return self.replicas > 1

    @property
    def kind(self) -> str:
        """Which of the four deployment shapes this spec describes."""
        if self.is_sharded:
            return KIND_REPLICATED_CLUSTER if self.is_replicated else KIND_SHARDED
        return KIND_REPLICA_SET if self.is_replicated else KIND_STANDALONE

    def describe(self) -> str:
        """A one-line human description (used in agent logs and demos)."""
        if self.kind == KIND_STANDALONE:
            return f"{self.storage_engine} standalone server"
        if self.kind == KIND_REPLICA_SET:
            return (f"{self.storage_engine} replica set ({self.replicas} members, "
                    f"w={self.write_concern!r}, reads={self.read_preference}, "
                    f"lag={self.replication_lag})")
        description = (f"{self.storage_engine} sharded cluster ({self.shards} shards, "
                       f"{self.shard_strategy} placement on {self.shard_key!r}")
        if self.is_replicated:
            description += (f", {self.replicas}-member shards, "
                            f"w={self.write_concern!r}")
        return description + ")"

    # -- serialization -----------------------------------------------------------------

    def as_dict(self) -> dict[str, Any]:
        """JSON-compatible form (what ``Deployment.environment`` stores)."""
        data = asdict(self)
        data["kind"] = self.kind
        return data

    @classmethod
    def parse(cls, *layers: Mapping[str, Any]) -> "TopologySpec":
        """The shape that layers of loose name -> value pairs declare.

        The one reader of a shape from plain data (a stored declaration, job
        parameters, registration defaults).  Layers are given weakest first
        and a later one wins; a value of ``""`` or ``None`` means "not said"
        and falls through to the weaker layer, and ``kind`` is derived data
        and ignored.  A name that is not a field is rejected so a typo fails
        loudly instead of silently evaluating the wrong topology, and every
        value goes through the one coercion of its field's type, so an
        ill-typed value is a :class:`ValidationError` naming the field.
        ``replicas`` left unsaid grows to cover a numeric write concern:
        ``{"write_concern": 2}`` alone declares two members.
        """
        coercions = {spec_field.name: _COERCIONS[spec_field.type]
                     for spec_field in fields(cls)}
        said: dict[str, Any] = {}
        for layer in layers:
            if not isinstance(layer, Mapping):
                raise ValidationError(
                    f"a topology must be a mapping, got {type(layer).__name__}")
            unknown = sorted(set(layer) - set(coercions) - {"kind"})
            if unknown:
                raise ValidationError(f"unknown topology fields: {unknown}")
            said.update((name, coercions[name](value, name))
                        for name, value in layer.items()
                        if name != "kind" and value not in ("", None))
        if isinstance(said.get("write_concern"), int):
            said.setdefault("replicas", max(said["write_concern"], 1))
        return cls(**said)


def build_topology(spec: TopologySpec,
                   cost_parameters: CostParameters | None = None,
                   **engine_options: Any) -> DocumentDeployment:
    """Build the live deployment a :class:`TopologySpec` describes.

    The one place in the codebase that decides which deployment class a
    shape maps onto: ``shards == replicas == 1`` yields a plain
    :class:`DocumentServer`; ``replicas > 1`` alone a :class:`ReplicaSet`;
    ``shards > 1`` a :class:`ShardedCluster` whose shards are replica sets
    when ``replicas > 1``.
    """
    options: dict[str, Any] = dict(storage_engine=spec.storage_engine,
                                   cost_parameters=cost_parameters,
                                   **engine_options)
    if not spec.is_sharded and not spec.is_replicated:
        return DocumentServer(**options)
    options.update(write_concern=spec.write_concern,
                   read_preference=spec.read_preference,
                   replication_lag=spec.replication_lag)
    if not spec.is_sharded:
        return ReplicaSet(members=spec.replicas, **options)
    return ShardedCluster(
        shards=spec.shards,
        shard_key=spec.shard_key,
        strategy=spec.shard_strategy,
        replicas=spec.replicas,
        **options,
    )


def topology_of(server: Any) -> TopologySpec:
    """Derive the spec describing an already-built deployment object.

    Lets consumers that received a hand-built deployment (tests, the CLI's
    workload table) still report topology through the topology layer
    instead of probing attributes themselves.  Fields the deployment's shape
    does not realise (a shard key without shards, a write concern without
    replicas) read as their defaults.
    """
    shape: dict[str, Any] = {
        "storage_engine": getattr(server, "storage_engine", "wiredtiger")}
    replica_set = server
    if isinstance(server, ShardedCluster):
        shape.update(shards=server.shard_count,
                     shard_key=server.default_shard_key,
                     shard_strategy=server.default_strategy)
        replica_set = server.replica_set(0) if server.replicated else None
    if isinstance(replica_set, ReplicaSet):
        shape.update(replicas=replica_set.replica_count,
                     write_concern=replica_set.write_concern,
                     read_preference=replica_set.read_preference,
                     replication_lag=replica_set.replication_lag)
    return TopologySpec(**shape)
