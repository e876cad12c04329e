"""The ``mongodb`` system: the paper's storage-engine demonstration scenario.

The demo compares the two MongoDB storage engines *wiredTiger* and *mmapv1*
on a standalone server.  Since the topology refactor the lifecycle lives in
:class:`~repro.agents.mongo_agent.MongoAgent`; this module only keeps the
system registration (the parameters the demo's experiment sweeps plus the
diagrams of Fig. 3d) and the backwards-compatible agent name.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.agents.mongo_agent import (
    SEED_PARAMETER,
    WORKLOAD_PARAMETERS,
    MongoAgent,
)
from repro.core.enums import DiagramKind
from repro.core.parameters import checkbox
from repro.core.systems import diagram_spec, result_config

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.control import ChronosControl
    from repro.core.entities import System

MONGODB_SYSTEM_NAME = "mongodb"


def register_mongodb_system(control: "ChronosControl", owner_id: str = "") -> "System":
    """Register the MongoDB SuE with its demo parameters and diagrams."""
    parameters = [
        checkbox("storage_engine", ["wiredtiger", "mmapv1"],
                 "MongoDB storage engine to evaluate"),
        *WORKLOAD_PARAMETERS,
        SEED_PARAMETER,
    ]
    configuration = result_config(
        metrics=["throughput_ops_per_sec", "latency_avg_ms", "latency_p95_ms",
                 "latency_p99_ms", "storage_bytes"],
        diagrams=[
            diagram_spec(DiagramKind.LINE, "Throughput vs threads",
                         x_field="threads", y_field="throughput_ops_per_sec",
                         group_field="storage_engine"),
            diagram_spec(DiagramKind.LINE, "p95 latency vs threads",
                         x_field="threads", y_field="latency_p95_ms",
                         group_field="storage_engine"),
            diagram_spec(DiagramKind.BAR, "Storage footprint",
                         x_field="storage_engine", y_field="storage_bytes"),
        ],
    )
    return control.systems.register(
        name=MONGODB_SYSTEM_NAME,
        parameters=parameters,
        result_configuration=configuration,
        description="Document database with interchangeable storage engines "
                    "(wiredTiger vs mmapv1 demo)",
        owner_id=owner_id,
    )


class MongoDbAgent(MongoAgent):
    """The ``mongodb`` registration: a standalone server unless the
    deployment (or the job) declares another topology."""

    system_name = MONGODB_SYSTEM_NAME
