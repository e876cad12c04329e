"""Tests for the sharded-deployment Chronos agent and its system registration."""

from __future__ import annotations

from repro.agent.base import JobContext
from repro.agent.fleet import AgentFleet
from repro.agent.metrics import AgentMetrics
from repro.agents.mongodb_agent import MongoDbAgent
from repro.agents.sharded_agent import (
    ShardedMongoAgent,
    register_sharded_mongodb_system,
)
from repro.docstore.topology import TopologySpec
from repro.util.clock import SimulatedClock


def make_context(parameters: dict) -> JobContext:
    return JobContext(
        job_id="job-sharded",
        parameters=parameters,
        deployment={"host": "test"},
        metrics=AgentMetrics(SimulatedClock()),
    )


class TestShardedMongoAgent:
    PARAMETERS = {
        "storage_engine": "wiredtiger",
        "shards": 4,
        "shard_strategy": "hash",
        "threads": 4,
        "record_count": 80,
        "operation_count": 160,
        "query_mix": "80:20",
        "distribution": "uniform",
        "seed": 1,
    }

    def run_agent(self, parameters):
        agent = ShardedMongoAgent()
        context = make_context(parameters)
        agent.set_up(context)
        agent.warm_up(context)
        raw = agent.execute(context)
        result = agent.analyze(context, raw)
        agent.clean_up(context)
        return agent, context, result

    def test_full_lifecycle_produces_sharded_result(self):
        __, context, result = self.run_agent(self.PARAMETERS)
        assert result["engine"] == "wiredtiger"
        assert result["shards"] == 4
        assert result["operations"] == 160
        assert result["throughput_ops_per_sec"] > 0
        assert result["chunks"] >= 4
        assert "migrations" in result and "chunk_distribution" in result
        assert context.state == {}  # clean_up cleared the benchmark

    def test_range_strategy_selected_from_parameters(self):
        parameters = dict(self.PARAMETERS, shard_strategy="range")
        __, __, result = self.run_agent(parameters)
        assert result["engine_statistics"]["strategy"] == "range"

    def test_single_shard_degenerates_to_one_server(self):
        parameters = dict(self.PARAMETERS, shards=1)
        __, __, result = self.run_agent(parameters)
        assert result["shards"] == 1
        assert result["chunks"] == 1  # single-server stats carry no chunk table

    def test_ycsb_workload_parameter_overrides_mix(self):
        parameters = dict(self.PARAMETERS, ycsb_workload="C")
        __, __, result = self.run_agent(parameters)
        assert result["operation_counts"]["update"] == 0

    def test_sharded_and_single_results_hold_the_same_documents(self):
        __, __, sharded = self.run_agent(self.PARAMETERS)
        __, __, single = self.run_agent(dict(self.PARAMETERS, shards=1))
        assert (sharded["engine_statistics"]["documents"]
                == single["engine_statistics"]["documents"])

    def test_deployment_declared_topology_outranks_parameter_defaults(self):
        # Job parameter sets materialize the registration's defaults for
        # every parameter an experiment leaves unset (shard_key="_id",
        # shards=2 here); a topology declared on the deployment must not be
        # reshaped by them.
        agent = ShardedMongoAgent()
        context = JobContext(
            job_id="job-declared",
            parameters={"storage_engine": "wiredtiger", "shards": 2,
                        "shard_key": "_id", "shard_strategy": "hash",
                        "threads": 2, "record_count": 40,
                        "operation_count": 60, "query_mix": "80:20",
                        "distribution": "uniform", "seed": 1},
            deployment={"host": "test", "topology": {
                "shards": 4, "shard_key": "region",
                "shard_strategy": "range"}},
            metrics=AgentMetrics(SimulatedClock()),
        )
        topology = agent.topology_for(context)
        assert topology.shards == 4
        assert topology.shard_key == "region"
        assert topology.shard_strategy == "range"

    def test_sparse_declaration_leaves_undeclared_fields_to_the_job(self):
        # A shape-only declaration ({"shards": 4}) must not pin the storage
        # engine: an experiment sweeping it still works on that deployment.
        agent = ShardedMongoAgent()
        context = JobContext(
            job_id="job-sparse",
            parameters={"storage_engine": "mmapv1", "shards": 2},
            deployment={"host": "test", "topology": {"shards": 4}},
            metrics=AgentMetrics(SimulatedClock()),
        )
        topology = agent.topology_for(context)
        assert topology.shards == 4
        assert topology.storage_engine == "mmapv1"

    def test_agent_builds_what_the_control_plane_reports(self, control, admin,
                                                         mongodb_system):
        # {"write_concern": 2} alone declares two members -- to the control
        # plane and to the agent alike, because both read the stored
        # declaration through the one reader.
        deployment = control.deployments.register(
            mongodb_system.id, name="w2", topology={"write_concern": 2})
        declared = deployment.topology_spec()
        assert declared == TopologySpec(replicas=2, write_concern=2)
        context = JobContext(
            job_id="job-w2", parameters={"storage_engine": "wiredtiger"},
            deployment=deployment.environment,
            metrics=AgentMetrics(SimulatedClock()))
        assert MongoDbAgent().topology_for(context) == declared
        # A job that does say ``replicas`` keeps it: w=2 of three.
        context.parameters["replicas"] = 3
        assert MongoDbAgent().topology_for(context) == TopologySpec(
            replicas=3, write_concern=2)

        project = control.projects.create("p", admin)
        experiment = control.experiments.create(
            project_id=project.id, system_id=mongodb_system.id, name="e",
            parameters={"storage_engine": "wiredtiger", "threads": 2,
                        "record_count": 40, "operation_count": 60,
                        "query_mix": "50:50", "distribution": "uniform"})
        evaluation, __ = control.evaluations.create(
            experiment.id, name="pinned", deployment_ids=[deployment.id])
        report = AgentFleet(
            control=control, system_id=mongodb_system.id,
            deployment_ids=[deployment.id], agent_factory=MongoDbAgent,
            clock=control.clock).drive_evaluation(evaluation.id)
        assert (report.jobs_finished, report.jobs_failed) == (1, 0)
        [job] = control.evaluations.jobs(evaluation.id)
        [result] = control.results.for_jobs([job.id])
        assert result.data["replicas"] == 2

    def test_extra_result_files_render_cluster_statistics(self):
        agent, context, result = self.run_agent(self.PARAMETERS)
        files = agent.extra_result_files(context, result)
        assert "cluster_statistics.txt" in files
        assert "chunks:" in files["cluster_statistics.txt"]

    def test_system_registration_defines_scale_out_axes(self, control, admin):
        system = register_sharded_mongodb_system(control, owner_id=admin.id)
        names = [d.name for d in control.systems.parameter_definitions(system.id)]
        # The order is the job order of every evaluation (slowest first).
        assert names == ["storage_engine", "shards", "shard_strategy", "threads",
                         "record_count", "operation_count", "query_mix",
                         "distribution", "ycsb_workload", "shard_key", "seed"]
        diagrams = control.systems.diagrams(system.id)
        assert any(d["y_field"] == "throughput_ops_per_sec" for d in diagrams)
        assert any(d["y_field"] == "migrations" for d in diagrams)
