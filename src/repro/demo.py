"""End-to-end helpers that wire up the paper's demonstration scenario.

These functions reproduce the two workflows of Section 3 programmatically:
registering an SuE in Chronos Control and running a complete evaluation (the
comparative analysis of the wiredTiger and mmapv1 storage engines).  They are
shared by the examples, the integration tests and the benchmark harnesses so
that every consumer runs exactly the same workflow the paper demonstrates.

:func:`run_topology_comparison` is the topology-layer counterpart: one
project, one SuE, one experiment -- and one *deployment per topology*, each
carrying its :class:`~repro.docstore.topology.TopologySpec` in
``Deployment.environment``.  Every shape (standalone server, replica set,
sharded cluster, replicated cluster) is evaluated end to end through the
control plane: registered, scheduled, executed by the shared
:class:`~repro.agents.mongo_agent.MongoAgent` and uploaded as results.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Mapping

from repro.agent.fleet import AgentFleet, FleetReport
from repro.agents.mongo_agent import FACET_CLUSTER, FACET_REPLICATION, MongoAgent
from repro.agents.mongodb_agent import MongoDbAgent, register_mongodb_system
from repro.core.control import ChronosControl
from repro.core.entities import Evaluation, Experiment, Project, System
from repro.docstore.topology import TopologySpec
from repro.errors import ValidationError
from repro.util.clock import SimulatedClock


@dataclass
class DemoSetup:
    """Everything created for one demo evaluation."""

    control: ChronosControl
    system: System
    project: Project
    experiment: Experiment
    evaluation: Evaluation
    deployment_ids: list[str]
    report: FleetReport | None = None
    results: list[dict[str, Any]] = field(default_factory=list)


DEFAULT_DEMO_PARAMETERS: dict[str, Any] = {
    "storage_engine": ["wiredtiger", "mmapv1"],
    "threads": {"start": 1, "stop": 16, "step": 2, "scale": "geometric"},
    "record_count": 300,
    "operation_count": 600,
    "query_mix": "50:50",
    "distribution": "zipfian",
}


def build_demo_control() -> ChronosControl:
    """A Chronos Control instance on a simulated clock (fast and deterministic)."""
    return ChronosControl(clock=SimulatedClock(), create_admin=True)


def prepare_demo(
    control: ChronosControl | None = None,
    parameters: dict[str, Any] | None = None,
    deployments_per_engine_sweep: int = 1,
    project_name: str = "MongoDB storage engines",
    experiment_name: str = "wiredTiger vs mmapv1",
) -> DemoSetup:
    """Create project, system, deployments, experiment and evaluation (Fig. 3a/3b)."""
    control = control or build_demo_control()
    admin = control.users.get_by_username("admin")

    system = control.systems.get_by_name("mongodb") or register_mongodb_system(
        control, owner_id=admin.id
    )
    deployment_ids = [
        control.deployments.register(
            system.id,
            name=f"mongodb-deployment-{index + 1}",
            environment={"host": f"node{index + 1}", "memory_gb": 16},
            version="4.0-sim",
        ).id
        for index in range(max(1, deployments_per_engine_sweep))
    ]
    project = control.projects.create(project_name, admin,
                                      description="Demonstration of Chronos at work")
    experiment = control.experiments.create(
        project_id=project.id,
        system_id=system.id,
        name=experiment_name,
        parameters=parameters or dict(DEFAULT_DEMO_PARAMETERS),
        description="Comparative performance analysis of two MongoDB storage engines",
    )
    evaluation, _jobs = control.evaluations.create(
        experiment.id, name=f"{experiment_name} evaluation", deployment_ids=deployment_ids
    )
    return DemoSetup(
        control=control,
        system=system,
        project=project,
        experiment=experiment,
        evaluation=evaluation,
        deployment_ids=deployment_ids,
    )


def run_demo(setup: DemoSetup, parallel: bool = False) -> DemoSetup:
    """Execute the demo evaluation with one MongoDB agent per deployment (Fig. 3c/3d)."""
    fleet = AgentFleet(
        control=setup.control,
        system_id=setup.system.id,
        deployment_ids=setup.deployment_ids,
        agent_factory=MongoDbAgent,
        clock=setup.control.clock,
    )
    setup.report = fleet.drive_evaluation(setup.evaluation.id, parallel=parallel)
    jobs = setup.control.evaluations.jobs(setup.evaluation.id)
    results = setup.control.results.for_jobs([job.id for job in jobs])
    setup.results = [result.data for result in results]
    return setup


# -- topology comparison through the control plane -----------------------------------

#: The deployment shapes the topology evaluation compares by default.  The
#: sharded shape uses range placement so the balancer genuinely migrates
#: chunks (hash placement balances by construction), exercising the
#: migration cost accounting.
TOPOLOGY_COMPARISON: dict[str, TopologySpec] = {
    "standalone": TopologySpec(),
    "replica-set": TopologySpec(replicas=3, write_concern="majority"),
    "sharded": TopologySpec(shards=4, shard_strategy="range"),
    "replicated-cluster": TopologySpec(shards=2, replicas=3,
                                       write_concern="majority"),
}

DEFAULT_TOPOLOGY_PARAMETERS: dict[str, Any] = {
    "storage_engine": "mmapv1",
    "threads": 8,
    "record_count": 200,
    "operation_count": 400,
    "query_mix": "50:50",
    "distribution": "zipfian",
    "seed": 42,
}


@dataclass
class TopologyComparisonSetup:
    """Everything created for one topology-comparison evaluation."""

    control: ChronosControl
    system: System
    project: Project
    experiment: Experiment
    deployment_ids: dict[str, str] = field(default_factory=dict)
    evaluations: dict[str, Evaluation] = field(default_factory=dict)
    reports: dict[str, FleetReport] = field(default_factory=dict)
    results: dict[str, list[dict[str, Any]]] = field(default_factory=dict)


def run_topology_comparison(
    control: ChronosControl | None = None,
    topologies: Mapping[str, TopologySpec] | None = None,
    parameters: dict[str, Any] | None = None,
    project_name: str = "Deployment topologies",
    experiment_name: str = "standalone vs sharded vs replicated",
) -> TopologyComparisonSetup:
    """Evaluate one workload across deployment topologies, end to end.

    For every named :class:`TopologySpec` this registers a deployment
    carrying the spec in its environment, creates one evaluation of the
    shared experiment pinned to that deployment, and drives it with the
    topology-agnostic :class:`MongoAgent` -- which builds the deployment the
    spec declares through :func:`~repro.docstore.topology.build_topology`.
    The identical parameter point (same seed) makes the per-topology results
    directly comparable.
    """
    control = control or build_demo_control()
    admin = control.users.get_by_username("admin")
    parameters = dict(parameters or DEFAULT_TOPOLOGY_PARAMETERS)
    # The deployment record is the source of truth for the topology (a
    # declared shape -- engine included -- outranks job parameters), so the
    # declared engine must be the one the jobs evaluate.  A storage_engine
    # sweep is contradictory here: one deployment runs one engine.
    engine = parameters.get("storage_engine", "wiredtiger")
    if not isinstance(engine, str):
        raise ValidationError(
            "storage_engine cannot be swept across declared topologies; "
            "run one comparison per engine"
        )
    topologies = {
        name: replace(topology, storage_engine=engine)
        for name, topology in dict(topologies or TOPOLOGY_COMPARISON).items()
    }

    system = control.systems.get_by_name("mongodb") or register_mongodb_system(
        control, owner_id=admin.id
    )
    project = control.projects.create(
        project_name, admin,
        description="One workload, every deployment topology")
    experiment = control.experiments.create(
        project_id=project.id,
        system_id=system.id,
        name=experiment_name,
        parameters=parameters,
        description="Comparative evaluation across deployment topologies",
    )
    setup = TopologyComparisonSetup(control=control, system=system,
                                    project=project, experiment=experiment)
    for name, topology in topologies.items():
        deployment = control.deployments.register(
            system.id,
            name=f"mongodb-{name}",
            environment={"host": name},
            version="4.0-sim",
            topology=topology,
        )
        evaluation, __ = control.evaluations.create(
            experiment.id, name=f"{name} run", deployment_ids=[deployment.id]
        )
        fleet = AgentFleet(
            control=control,
            system_id=system.id,
            deployment_ids=[deployment.id],
            agent_factory=lambda: MongoAgent(
                result_facets=(FACET_CLUSTER, FACET_REPLICATION)),
            clock=control.clock,
        )
        report = fleet.drive_evaluation(evaluation.id)
        jobs = control.evaluations.jobs(evaluation.id)
        results = control.results.for_jobs([job.id for job in jobs])
        setup.deployment_ids[name] = deployment.id
        setup.evaluations[name] = evaluation
        setup.reports[name] = report
        setup.results[name] = [result.data for result in results]
    return setup


def topology_comparison_rows(
        setup: TopologyComparisonSetup) -> dict[str, dict[str, Any]]:
    """Flatten a comparison into per-topology rows (CLI tables, E12 checks).

    Metrics are means over every uploaded result of the topology's
    evaluation -- exact for the single-point experiments the comparison
    runs by default, honest (and counted in ``jobs_finished``) when an
    experiment expands to a sweep.  A topology whose evaluation uploaded no
    result yields a zeroed row with its ``jobs_failed`` count, so consumers
    can report the failure instead of crashing on it.
    """
    from repro.util.stats import mean

    rows: dict[str, dict[str, Any]] = {}
    for name, deployment_id in setup.deployment_ids.items():
        declared = setup.control.deployments.get(deployment_id).topology_spec()
        report = setup.reports[name]
        results = setup.results[name]
        statistics = [result.get("engine_statistics", {}) for result in results]

        def averaged(field_name: str, source: list[dict[str, Any]]) -> float:
            return mean(entry.get(field_name, 0) or 0 for entry in source)

        rows[name] = {
            "declared_kind": declared.kind if declared else None,
            "reported_kind": results[0].get("topology") if results else None,
            "jobs_finished": report.jobs_finished,
            "jobs_failed": report.jobs_failed,
            "throughput": averaged("throughput_ops_per_sec", results),
            "latency_avg_ms": averaged("latency_avg_ms", results),
            "latency_p95_ms": averaged("latency_p95_ms", results),
            "documents": averaged("documents", statistics),
            "storage_bytes": averaged("storage_bytes", statistics),
            "migrations": averaged("migrations", statistics),
            "migration_seconds": averaged("migration_seconds", statistics),
            "failovers": averaged("failovers", results),
        }
    return rows
