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
  write concern, read preference, replication lag and storage engine.  It
  round-trips through plain dictionaries (``as_dict``/``from_dict``) and
  JSON, so the control plane can store it in
  :attr:`~repro.core.entities.Deployment.environment`, validate it at
  registration time and sweep it across deployments.
* :func:`build_topology` -- the single factory turning a spec into a live
  deployment: a :class:`~repro.docstore.server.DocumentServer`, a
  :class:`~repro.docstore.replication.replica_set.ReplicaSet` or a
  :class:`~repro.docstore.sharding.cluster.ShardedCluster` (whose shards are
  replica sets when ``replicas > 1``).  Benchmarks, agents, the CLI and the
  control-plane examples all build through this one function; none of them
  contains topology-construction logic of its own.

:func:`topology_of` closes the loop for deployments that were built by hand
(tests, custom server factories): it derives the spec describing an existing
deployment object, so result reporting always comes from the topology layer.
"""

from __future__ import annotations

import json
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


def parse_write_concern(raw: Any) -> int | str:
    """``"majority"`` stays a string, anything else becomes an int."""
    if raw == WRITE_CONCERN_MAJORITY:
        return WRITE_CONCERN_MAJORITY
    try:
        return int(raw)
    except (TypeError, ValueError) as error:
        raise ValidationError(
            f"write concern must be an int or 'majority', got {raw!r}"
        ) from error


def parse_bool(raw: Any, name: str) -> bool:
    """Coerce a parameter-style boolean (``"true"``/``"0"``/``1``/...)."""
    if isinstance(raw, bool):
        return raw
    if isinstance(raw, (int, float)) and raw in (0, 1):
        return bool(raw)
    if isinstance(raw, str):
        lowered = raw.strip().lower()
        if lowered in ("true", "yes", "on", "1"):
            return True
        if lowered in ("false", "no", "off", "0"):
            return False
    raise ValidationError(f"{name} must be a boolean, got {raw!r}")


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
        parallel_fanout: whether a sharded deployment's router dispatches
            multi-shard fan-outs concurrently through its per-shard
            executor pool (True, the default) or serially (the measured
            baseline of benchmark E17).  Ignored for unsharded shapes.
    """

    shards: int = 1
    shard_key: str = "_id"
    shard_strategy: str = STRATEGY_HASH
    replicas: int = 1
    write_concern: int | str = 1
    read_preference: str = READ_PRIMARY
    replication_lag: int = 0
    storage_engine: str = "wiredtiger"
    parallel_fanout: bool = True

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
        if not isinstance(self.parallel_fanout, bool):
            raise ValidationError(
                f"parallel_fanout must be a boolean, "
                f"got {self.parallel_fanout!r}"
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
        if not self.parallel_fanout:
            description += ", serial fan-out"
        return description + ")"

    # -- serialization -----------------------------------------------------------------

    def as_dict(self) -> dict[str, Any]:
        """JSON-compatible form (what ``Deployment.environment`` stores)."""
        data = asdict(self)
        data["kind"] = self.kind
        return data

    @classmethod
    def from_dict(cls, mapping: Mapping[str, Any]) -> "TopologySpec":
        """Parse (and validate) a spec from its dictionary form.

        ``kind`` is derived data and therefore ignored on input; any other
        unknown field is rejected so typos fail loudly at registration time
        instead of silently evaluating the wrong topology.
        """
        if not isinstance(mapping, Mapping):
            raise ValidationError(
                f"a topology must be a mapping, got {type(mapping).__name__}"
            )
        data = dict(mapping)
        data.pop("kind", None)
        known = {spec_field.name for spec_field in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValidationError(f"unknown topology fields: {unknown}")
        if "write_concern" in data:
            data["write_concern"] = parse_write_concern(data["write_concern"])
        return cls(**data)

    @classmethod
    def from_partial(cls, mapping: Mapping[str, Any]) -> "TopologySpec":
        """Complete a *sparse* declaration to the minimal spec satisfying it.

        Where :meth:`from_dict` materializes class defaults (full-spec
        semantics), this validates a declaration that deliberately names
        only some fields: unnamed fields take their defaults, except
        ``replicas``, which grows to cover a declared numeric write concern
        (``{"write_concern": 2}`` alone implies at least two members, so it
        must not be rejected against the one-member default).
        """
        if not isinstance(mapping, Mapping):
            raise ValidationError(
                f"a topology must be a mapping, got {type(mapping).__name__}"
            )
        data = dict(mapping)
        data.pop("kind", None)
        known = {spec_field.name for spec_field in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValidationError(f"unknown topology fields: {unknown}")
        if "write_concern" in data:
            data["write_concern"] = parse_write_concern(data["write_concern"])
            write_concern = data["write_concern"]
            if isinstance(write_concern, int) and "replicas" not in data:
                data["replicas"] = max(write_concern, 1)
        return cls(**data)

    @classmethod
    def normalise_partial(cls, mapping: Mapping[str, Any]) -> dict[str, Any]:
        """Validate a sparse declaration and return only its named fields,
        normalised (what the control plane stores for dict declarations)."""
        spec = cls.from_partial(mapping)
        return {name: getattr(spec, name) for name in mapping if name != "kind"}

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "TopologySpec":
        try:
            decoded = json.loads(text)
        except json.JSONDecodeError as error:
            raise ValidationError(f"invalid topology JSON: {error}") from error
        return cls.from_dict(decoded)

    @classmethod
    def from_parameters(cls, parameters: Mapping[str, Any],
                        defaults: Mapping[str, Any] | None = None) -> "TopologySpec":
        """Build a spec from a Chronos parameter dictionary.

        ``parameters`` are the job parameters of an evaluation point; values
        arrive as strings or numbers depending on the parameter definition
        and are coerced here.  ``defaults`` sit below the parameters (an
        agent registration's assumed shape, or the topology declared on the
        deployment); empty-string parameters fall through to them.
        """
        merged: dict[str, Any] = dict(defaults or {})
        known = {spec_field.name for spec_field in fields(cls)}
        for name, value in parameters.items():
            if name in known and value not in ("", None):
                merged[name] = value
        try:
            return cls(
                shards=int(merged.get("shards", 1)),
                shard_key=str(merged.get("shard_key", "_id")),
                shard_strategy=str(merged.get("shard_strategy", STRATEGY_HASH)),
                replicas=int(merged.get("replicas", 1)),
                write_concern=parse_write_concern(merged.get("write_concern", 1)),
                read_preference=str(merged.get("read_preference", READ_PRIMARY)),
                replication_lag=int(merged.get("replication_lag", 0)),
                storage_engine=str(merged.get("storage_engine", "wiredtiger")),
                parallel_fanout=parse_bool(
                    merged.get("parallel_fanout", True), "parallel_fanout"),
            )
        except (TypeError, ValueError) as error:
            raise ValidationError(f"invalid topology parameters: {error}") from error

    # -- construction ------------------------------------------------------------------

    def build(self, cost_parameters: CostParameters | None = None,
              **engine_options: Any) -> DocumentDeployment:
        """Convenience alias for :func:`build_topology`."""
        return build_topology(self, cost_parameters=cost_parameters,
                              **engine_options)


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
    if not spec.is_sharded and not spec.is_replicated:
        return DocumentServer(spec.storage_engine,
                              cost_parameters=cost_parameters, **engine_options)
    if not spec.is_sharded:
        return ReplicaSet(
            members=spec.replicas,
            storage_engine=spec.storage_engine,
            write_concern=spec.write_concern,
            read_preference=spec.read_preference,
            replication_lag=spec.replication_lag,
            cost_parameters=cost_parameters,
            **engine_options,
        )
    return ShardedCluster(
        shards=spec.shards,
        storage_engine=spec.storage_engine,
        shard_key=spec.shard_key,
        strategy=spec.shard_strategy,
        replicas=spec.replicas,
        write_concern=spec.write_concern,
        read_preference=spec.read_preference,
        replication_lag=spec.replication_lag,
        parallel_fanout=spec.parallel_fanout,
        cost_parameters=cost_parameters,
        **engine_options,
    )


def topology_of(server: Any) -> TopologySpec:
    """Derive the spec describing an already-built deployment object.

    Lets consumers that received a hand-built deployment (tests, custom
    server factories) still report topology through the topology layer
    instead of probing attributes themselves.
    """
    if isinstance(server, ShardedCluster):
        if server.replicated:
            replica_set = server.replica_set(0)
            return TopologySpec(
                shards=server.shard_count,
                shard_key=server.default_shard_key,
                shard_strategy=server.default_strategy,
                replicas=server.replicas,
                write_concern=replica_set.write_concern,
                read_preference=replica_set.read_preference,
                replication_lag=replica_set.replication_lag,
                storage_engine=server.storage_engine,
                parallel_fanout=server.parallel_fanout,
            )
        return TopologySpec(
            shards=server.shard_count,
            shard_key=server.default_shard_key,
            shard_strategy=server.default_strategy,
            storage_engine=server.storage_engine,
            parallel_fanout=server.parallel_fanout,
        )
    if isinstance(server, ReplicaSet):
        return TopologySpec(
            replicas=server.replica_count,
            write_concern=server.write_concern,
            read_preference=server.read_preference,
            replication_lag=server.replication_lag,
            storage_engine=server.storage_engine,
        )
    return TopologySpec(
        storage_engine=getattr(server, "storage_engine", "wiredtiger")
    )
