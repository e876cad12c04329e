"""One Chronos Agent for every document-store deployment topology.

The three historical agents (``mongodb``, ``mongodb-sharded``,
``mongodb-replicated``) each re-implemented the same lifecycle -- build a
deployment, load, warm up, run the mix, report -- differing only in which
topology parameters they read and which statistics they attached to the
result.  :class:`MongoAgent` is that lifecycle written once, parameterized by
a :class:`~repro.docstore.topology.TopologySpec`; the historical system names
survive as thin registrations over it (see
:mod:`repro.agents.mongodb_agent`, :mod:`repro.agents.sharded_agent` and
:mod:`repro.agents.replicated_agent`).

Topology resolution is written here and nowhere else: :meth:`topology_for`
selects the shape fields out of the job parameters (the only layer holding
foreign names such as ``threads``) and hands three layers to the one reader,
:meth:`TopologySpec.parse <repro.docstore.topology.TopologySpec.parse>`,
weakest first:

1. the registration's :attr:`~MongoAgent.topology_defaults` (e.g. the
   ``mongodb-sharded`` system assumes two shards),
2. the job parameters (an experiment sweeping ``shards`` still works
   exactly as before), and
3. the topology declared on the *deployment* the agent serves
   (``Deployment.environment["topology"]``, written by
   :meth:`~repro.core.deployments.DeploymentService.register`) -- this is
   what lets one evaluation compare standalone, sharded and replicated
   deployments without a single topology parameter in the job.

The deployment declaration is strongest deliberately: a declared shape is
the deployment's physical truth, and job parameter sets materialize the
registration's *defaults* for every parameter an experiment leaves unset --
if parameters outranked the declaration, those untouched defaults would
silently reshape the declared deployment.  The declaration only covers the
fields it actually names (the control plane stores dictionary declarations
sparsely), so a deployment declared as ``{"shards": 4}`` still lets an
experiment sweep ``storage_engine``.

The agent contains no topology-construction logic: the resolved spec goes to
:meth:`DocumentBenchmark.for_topology`, which builds through
:func:`~repro.docstore.topology.build_topology`; the workload spec beside it
is made from the job parameters alone.

This module also declares the workload parameters the three registrations
share (:data:`WORKLOAD_PARAMETERS`, :data:`SEED_PARAMETER`).
"""

from __future__ import annotations

from dataclasses import fields
from typing import Any, Mapping

from repro.agent.base import ChronosAgent, JobContext
from repro.core.parameters import checkbox, interval, ratio, value
from repro.docstore.replication.failures import FailureInjector
from repro.docstore.replication.replica_set import ReplicaSet
from repro.docstore.topology import TopologySpec
from repro.workloads.runner import DocumentBenchmark, WorkloadSpec
from repro.workloads.ycsb import mix_from_ratio, ycsb_workload

#: Result facets a registration can enable: ``"cluster"`` attaches chunk and
#: migration statistics, ``"replication"`` failover/staleness statistics.
FACET_CLUSTER = "cluster"
FACET_REPLICATION = "replication"

#: The workload parameters every mongo system declares, in job order; each
#: registration splices them (and ``seed``, always last) into its own list.
WORKLOAD_PARAMETERS = (
    interval("threads", "number of concurrent client threads"),
    value("record_count", "documents loaded before the measurement", default=500),
    value("operation_count", "operations in the measured phase", default=1000),
    ratio("query_mix", "read:update ratio of the benchmark"),
    checkbox("distribution", ["uniform", "zipfian", "latest", "hotspot"],
             "key access distribution"),
    value("ycsb_workload", "optional YCSB core workload overriding the mix",
          default="", required=False),
)
SEED_PARAMETER = value("seed", "random seed for reproducible runs",
                       default=42, required=False)


class MongoAgent(ChronosAgent):
    """The parameterized document-store agent behind every mongo system."""

    system_name = "mongodb"
    #: Topology values assumed when neither the deployment environment nor
    #: the job parameters specify them (how the registrations differ).
    topology_defaults: Mapping[str, Any] = {}
    #: Which statistics families ``analyze`` promotes into the result.
    result_facets: tuple[str, ...] = ()

    def __init__(self, result_facets: tuple[str, ...] | None = None):
        if result_facets is not None:
            self.result_facets = tuple(result_facets)

    # -- lifecycle -----------------------------------------------------------------------

    def set_up(self, context: JobContext) -> None:
        topology = self.topology_for(context)
        spec = self._workload_spec(context.parameters)
        benchmark = DocumentBenchmark.for_topology(topology, spec)
        context.state["benchmark"] = benchmark
        context.log(f"starting {benchmark.topology.describe()}, "
                    f"loading {spec.record_count} records")
        load_seconds = benchmark.load()
        context.metrics.set("load_simulated_seconds", load_seconds)
        context.metrics.set("records_loaded", spec.record_count)

    def warm_up(self, context: JobContext) -> None:
        benchmark: DocumentBenchmark = context.state["benchmark"]
        warm_seconds = benchmark.warm_up()
        context.metrics.set("warmup_simulated_seconds", warm_seconds)
        context.log("warm-up finished")

    def execute(self, context: JobContext) -> dict[str, Any]:
        benchmark: DocumentBenchmark = context.state["benchmark"]
        spec = benchmark.spec
        kill_fraction = float(context.parameters.get("kill_primary_at", 0.0) or 0.0)
        injector = self._arm_failure_injection(context, benchmark, kill_fraction)
        context.log(
            f"running {spec.operation_count} operations with {spec.threads} "
            f"threads on {benchmark.topology.describe()}"
        )
        result = benchmark.run()
        context.metrics.set("operations", result.operations)
        context.metrics.set("throughput_ops_per_sec", result.throughput_ops_per_sec)
        raw = result.as_dict()
        if injector is not None:
            raw["failure_events"] = list(injector.events)
        return raw

    def analyze(self, context: JobContext, raw: dict[str, Any]) -> dict[str, Any]:
        """Attach the job parameters plus the facets' statistics."""
        analysed = dict(raw)
        statistics = raw.get("engine_statistics", {})
        analysed["parameters"] = dict(context.parameters)
        analysed["storage_bytes"] = statistics.get("storage_bytes", 0)
        if FACET_CLUSTER in self.result_facets:
            analysed["chunks"] = statistics.get("chunks", 1)
            analysed["migrations"] = statistics.get("migrations", 0)
            analysed["chunk_distribution"] = statistics.get("chunk_distribution", {})
        if FACET_REPLICATION in self.result_facets:
            replication = statistics.get("replication", {})
            analysed["failovers"] = replication.get("failovers", 0)
            analysed["rolled_back_entries"] = replication.get("rolled_back_entries", 0)
            analysed["staleness_mean"] = replication.get("staleness_mean", 0.0)
            analysed["staleness_max"] = replication.get("staleness_max", 0)
            analysed["oplog_entries"] = replication.get("oplog_entries", 0)
            analysed["elections"] = replication.get("elections", [])
        return analysed

    def clean_up(self, context: JobContext) -> None:
        benchmark = context.state.pop("benchmark", None)
        if benchmark is not None:
            # A cluster's fan-out workers stop with close(), not with the
            # last reference: dropping the deployment is not enough.
            benchmark.server.close()

    def extra_result_files(self, context: JobContext,
                           result: dict[str, Any]) -> dict[str, str] | None:
        """Archive the facet-specific status files next to the result JSON."""
        statistics = result.get("engine_statistics", {})
        files: dict[str, str] = {}
        if FACET_CLUSTER in self.result_facets:
            lines = [f"shard_key: {statistics.get('shard_key', '_id')}",
                     f"strategy: {statistics.get('strategy', 'hash')}",
                     f"chunks: {statistics.get('chunks', 1)}",
                     f"splits: {statistics.get('splits', 0)}",
                     f"migrations: {statistics.get('migrations', 0)}",
                     f"chunk_distribution: {statistics.get('chunk_distribution', {})}"]
            files["cluster_statistics.txt"] = "\n".join(lines)
        if FACET_REPLICATION in self.result_facets:
            replication = statistics.get("replication", {})
            lines = [f"set: {replication.get('set', 'rs0')}",
                     f"replicas: {replication.get('replicas', 1)}",
                     f"write_concern: {replication.get('write_concern', 1)}",
                     f"read_preference: {replication.get('read_preference', 'primary')}",
                     f"oplog_entries: {replication.get('oplog_entries', 0)}",
                     f"failovers: {replication.get('failovers', 0)}",
                     f"rolled_back_entries: {replication.get('rolled_back_entries', 0)}",
                     f"staleness_mean: {replication.get('staleness_mean', 0.0)}",
                     f"failure_events: {result.get('failure_events', [])}"]
            files["replication_status.txt"] = "\n".join(lines)
        if not files:
            lines = [f"{key}: {statistics[key]}" for key in sorted(statistics)]
            files["engine_statistics.txt"] = "\n".join(lines)
        return files

    # -- topology resolution -----------------------------------------------------------

    def topology_for(self, context: JobContext) -> TopologySpec:
        """Resolve the deployment shape for one job (defaults < job < deployment)."""
        shape_fields = {spec_field.name for spec_field in fields(TopologySpec)}
        parameters = {name: raw for name, raw in context.parameters.items()
                      if name in shape_fields}
        return TopologySpec.parse(self.topology_defaults, parameters,
                                  context.deployment.get("topology") or {})

    # -- helpers -----------------------------------------------------------------------------

    @staticmethod
    def _arm_failure_injection(context: JobContext, benchmark: DocumentBenchmark,
                               kill_fraction: float) -> FailureInjector | None:
        """Install an operation hook killing the primary mid-run."""
        if kill_fraction <= 0:
            return None
        server = benchmark.server
        if not isinstance(server, ReplicaSet):
            context.log("kill_primary_at ignored: deployment is not a replica set")
            return None
        injector = FailureInjector(server)
        kill_at = int(benchmark.spec.operation_count * min(kill_fraction, 1.0))

        def hook(index: int) -> None:
            if index == kill_at:
                victim = injector.kill_primary()
                context.log(f"failure injection: killed primary member{victim} "
                            f"at operation {index}")

        benchmark.operation_hook = hook
        return injector

    @staticmethod
    def _workload_spec(parameters: Mapping[str, Any]) -> WorkloadSpec:
        workload_name = parameters.get("ycsb_workload") or ""
        if workload_name:
            workload = ycsb_workload(workload_name)
            mix = workload.mix
            distribution = workload.distribution
        else:
            mix = mix_from_ratio(parameters.get("query_mix", "95:5"))
            distribution = parameters.get("distribution", "zipfian")
        return WorkloadSpec(
            record_count=int(parameters.get("record_count", 500)),
            operation_count=int(parameters.get("operation_count", 1000)),
            threads=int(parameters.get("threads", 1)),
            mix=mix,
            distribution=distribution,
            seed=int(parameters.get("seed", 42)),
        )
