"""Tests for the replicated-deployment Chronos agent and its registration."""

from __future__ import annotations

from repro.agent.base import JobContext
from repro.agent.metrics import AgentMetrics
from repro.agents.replicated_agent import (
    ReplicatedMongoAgent,
    register_replicated_mongodb_system,
)
from repro.util.clock import SimulatedClock


def make_context(parameters: dict) -> JobContext:
    return JobContext(
        job_id="job-replicated",
        parameters=parameters,
        deployment={"host": "test"},
        metrics=AgentMetrics(SimulatedClock()),
    )


class TestReplicatedMongoAgent:
    PARAMETERS = {
        "storage_engine": "wiredtiger",
        "replicas": 3,
        "write_concern": "majority",
        "read_preference": "primary",
        "replication_lag": 2,
        "threads": 4,
        "record_count": 80,
        "operation_count": 160,
        "query_mix": "80:20",
        "distribution": "uniform",
        "seed": 1,
    }

    def run_agent(self, parameters):
        agent = ReplicatedMongoAgent()
        context = make_context(parameters)
        agent.set_up(context)
        agent.warm_up(context)
        raw = agent.execute(context)
        result = agent.analyze(context, raw)
        agent.clean_up(context)
        return agent, context, result

    def test_full_lifecycle_produces_replicated_result(self):
        __, context, result = self.run_agent(self.PARAMETERS)
        assert result["engine"] == "wiredtiger"
        assert result["replicas"] == 3
        assert result["operations"] == 160
        assert result["throughput_ops_per_sec"] > 0
        assert result["failovers"] == 0
        assert result["rolled_back_entries"] == 0
        assert context.state == {}  # clean_up cleared the benchmark

    def test_secondary_reads_report_staleness(self):
        parameters = dict(self.PARAMETERS, read_preference="secondary",
                          write_concern="1", replication_lag=4)
        __, __, result = self.run_agent(parameters)
        assert result["staleness_mean"] > 0

    def test_kill_primary_mid_run_fails_over_without_loss(self):
        parameters = dict(self.PARAMETERS, kill_primary_at=0.5)
        agent, context, result = self.run_agent(parameters)
        assert result["failovers"] == 1
        assert result["rolled_back_entries"] == 0  # w=majority
        assert result["failure_events"][0]["event"] == "kill"
        files = agent.extra_result_files(context, result)
        assert "failovers: 1" in files["replication_status.txt"]

    def test_single_member_degenerates_to_standalone_behaviour(self):
        parameters = dict(self.PARAMETERS, replicas=1, write_concern="1",
                          kill_primary_at=0.0)
        __, __, result = self.run_agent(parameters)
        assert result["replicas"] == 1
        assert result["failovers"] == 0

    def test_replicated_and_single_results_hold_the_same_documents(self):
        __, __, replicated = self.run_agent(self.PARAMETERS)
        single = dict(self.PARAMETERS, replicas=1, write_concern="1")
        __, __, baseline = self.run_agent(single)
        assert (replicated["engine_statistics"]["documents"]
                == baseline["engine_statistics"]["documents"])

    def test_system_registration_defines_replication_axes(self, control, admin):
        system = register_replicated_mongodb_system(control, owner_id=admin.id)
        names = [d.name for d in control.systems.parameter_definitions(system.id)]
        # The order is the job order of every evaluation (slowest first).
        assert names == ["storage_engine", "replicas", "write_concern",
                         "read_preference", "replication_lag", "kill_primary_at",
                         "threads", "record_count", "operation_count",
                         "query_mix", "distribution", "ycsb_workload", "seed"]
        diagrams = control.systems.diagrams(system.id)
        assert any(d["y_field"] == "latency_avg_ms" for d in diagrams)
        assert any(d["y_field"] == "rolled_back_entries" for d in diagrams)
