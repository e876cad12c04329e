"""The ``mongodb-replicated`` system: the durability/availability scenario.

Registers the replicated document-store SuE (write concern x read preference
x member count, with and without a primary failure) and binds the shared
:class:`~repro.agents.mongo_agent.MongoAgent` to it with a three-member
default topology and replication statistics in the results.  Failure
injection (``kill_primary_at``) lives in the shared agent, so every
registration -- and every deployment-declared replica-set topology -- can
use it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.agents.mongo_agent import (
    FACET_REPLICATION,
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

REPLICATED_MONGODB_SYSTEM_NAME = "mongodb-replicated"


def register_replicated_mongodb_system(control: "ChronosControl",
                                       owner_id: str = "") -> "System":
    """Register the replicated document-store SuE with its evaluation axes."""
    parameters = [
        checkbox("storage_engine", ["wiredtiger", "mmapv1"],
                 "storage engine every member runs"),
        interval("replicas", "replica-set members (1 primary + N-1 secondaries)"),
        checkbox("write_concern", ["1", "2", "majority"],
                 "members that must acknowledge every write"),
        checkbox("read_preference", ["primary", "secondary", "nearest"],
                 "member selection for reads"),
        value("replication_lag", "oplog entries secondaries may trail behind",
              default=0, required=False),
        value("kill_primary_at",
              "fraction of the measured phase after which the primary is "
              "killed (0 disables failure injection)",
              default=0.0, required=False),
        *WORKLOAD_PARAMETERS,
        SEED_PARAMETER,
    ]
    configuration = result_config(
        metrics=["throughput_ops_per_sec", "latency_avg_ms", "latency_p95_ms",
                 "latency_p99_ms", "failovers", "rolled_back_entries",
                 "staleness_mean"],
        diagrams=[
            diagram_spec(DiagramKind.LINE, "Latency vs write concern",
                         x_field="write_concern", y_field="latency_avg_ms",
                         group_field="storage_engine"),
            diagram_spec(DiagramKind.LINE, "Throughput vs read preference",
                         x_field="read_preference",
                         y_field="throughput_ops_per_sec",
                         group_field="storage_engine"),
            diagram_spec(DiagramKind.BAR, "Rolled-back writes",
                         x_field="write_concern", y_field="rolled_back_entries"),
        ],
    )
    return control.systems.register(
        name=REPLICATED_MONGODB_SYSTEM_NAME,
        parameters=parameters,
        result_configuration=configuration,
        description="Replicated document database (replica set with an oplog, "
                    "elections, write/read concern and failure injection)",
        owner_id=owner_id,
    )


class ReplicatedMongoAgent(MongoAgent):
    """The ``mongodb-replicated`` registration: three members unless specified."""

    system_name = REPLICATED_MONGODB_SYSTEM_NAME
    topology_defaults = {"replicas": 3}
    result_facets = (FACET_REPLICATION,)
