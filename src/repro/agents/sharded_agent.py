"""The ``mongodb-sharded`` system: the scale-out evaluation scenario.

Registers the sharded document-store SuE (shard count x placement strategy x
engine) and binds the shared :class:`~repro.agents.mongo_agent.MongoAgent`
to it with a two-shard default topology and cluster statistics in the
results.  The deployment itself is built by the topology layer.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.agents.mongo_agent import (
    FACET_CLUSTER,
    SEED_PARAMETER,
    WORKLOAD_PARAMETERS,
    MongoAgent,
)
from repro.core.enums import DiagramKind
from repro.core.parameters import checkbox, interval, value
from repro.core.systems import diagram_spec, result_config

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.control import ChronosControl
    from repro.core.entities import System

SHARDED_MONGODB_SYSTEM_NAME = "mongodb-sharded"


def register_sharded_mongodb_system(control: "ChronosControl",
                                    owner_id: str = "") -> "System":
    """Register the sharded document-store SuE with its evaluation axes."""
    parameters = [
        checkbox("storage_engine", ["wiredtiger", "mmapv1"],
                 "storage engine every shard runs"),
        interval("shards", "number of shards in the cluster"),
        checkbox("shard_strategy", ["hash", "range"],
                 "chunk placement strategy of the shard key"),
        *WORKLOAD_PARAMETERS,
        value("shard_key", "field the collection is sharded on",
              default="_id", required=False),
        SEED_PARAMETER,
    ]
    configuration = result_config(
        metrics=["throughput_ops_per_sec", "latency_avg_ms", "latency_p95_ms",
                 "latency_p99_ms", "storage_bytes", "chunks", "migrations"],
        diagrams=[
            diagram_spec(DiagramKind.LINE, "Throughput vs shards",
                         x_field="shards", y_field="throughput_ops_per_sec",
                         group_field="storage_engine"),
            diagram_spec(DiagramKind.LINE, "p95 latency vs shards",
                         x_field="shards", y_field="latency_p95_ms",
                         group_field="storage_engine"),
            diagram_spec(DiagramKind.BAR, "Chunk migrations",
                         x_field="shards", y_field="migrations"),
        ],
    )
    return control.systems.register(
        name=SHARDED_MONGODB_SYSTEM_NAME,
        parameters=parameters,
        result_configuration=configuration,
        description="Sharded document database behind a mongos-style query "
                    "router (scale-out scenario)",
        owner_id=owner_id,
    )


class ShardedMongoAgent(MongoAgent):
    """The ``mongodb-sharded`` registration: two shards unless specified."""

    system_name = SHARDED_MONGODB_SYSTEM_NAME
    topology_defaults = {"shards": 2}
    result_facets = (FACET_CLUSTER,)
