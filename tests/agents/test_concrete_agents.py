"""Tests for the concrete agents: MongoDB demo agent, key-value agent, test agents."""

from __future__ import annotations

import pytest

from repro.agent.base import JobContext
from repro.agent.metrics import AgentMetrics
from repro.agents.kvstore_agent import KeyValueStoreAgent, register_kvstore_system
from repro.agents.mongodb_agent import MongoDbAgent, register_mongodb_system
from repro.agents.testing import FlakyAgent, SleepAgent
from repro.errors import AgentError
from repro.util.clock import SimulatedClock


class CrashingAgent(SleepAgent):
    """Claims a job and never reports back (simulates an agent host crash)."""

    def execute(self, context: JobContext) -> dict:
        raise SystemExit("simulated agent crash")


def make_context(parameters: dict) -> JobContext:
    return JobContext(
        job_id="job-test",
        parameters=parameters,
        deployment={"host": "test"},
        metrics=AgentMetrics(SimulatedClock()),
    )


class TestMongoDbAgent:
    PARAMETERS = {
        "storage_engine": "wiredtiger",
        "threads": 2,
        "record_count": 50,
        "operation_count": 100,
        "query_mix": "80:20",
        "distribution": "uniform",
        "seed": 1,
    }

    def run_agent(self, parameters):
        agent = MongoDbAgent()
        context = make_context(parameters)
        agent.set_up(context)
        agent.warm_up(context)
        raw = agent.execute(context)
        result = agent.analyze(context, raw)
        agent.clean_up(context)
        return agent, context, result

    def test_full_lifecycle_produces_result(self):
        __, context, result = self.run_agent(self.PARAMETERS)
        assert result["engine"] == "wiredtiger"
        assert result["operations"] == 100
        assert result["throughput_ops_per_sec"] > 0
        assert result["parameters"]["threads"] == 2
        assert "storage_bytes" in result
        assert context.state == {}  # clean_up cleared the benchmark

    def test_mmapv1_engine_selected_from_parameters(self):
        parameters = dict(self.PARAMETERS, storage_engine="mmapv1")
        __, __, result = self.run_agent(parameters)
        assert result["engine"] == "mmapv1"

    def test_ycsb_workload_parameter_overrides_mix(self):
        parameters = dict(self.PARAMETERS, ycsb_workload="C")
        __, __, result = self.run_agent(parameters)
        assert result["operation_counts"]["update"] == 0

    def test_metrics_collected(self):
        __, context, __ = self.run_agent(self.PARAMETERS)
        metrics = context.metrics.as_dict()
        assert metrics["records_loaded"] == 50
        assert metrics["operations"] == 100

    def test_extra_result_files_render_statistics(self):
        agent, context, result = self.run_agent(self.PARAMETERS)
        files = agent.extra_result_files(context, result)
        assert "engine_statistics.txt" in files
        assert "engine" in files["engine_statistics.txt"]

    def test_system_registration_defines_demo_parameters(self, control, admin):
        system = register_mongodb_system(control, owner_id=admin.id)
        names = [d.name for d in control.systems.parameter_definitions(system.id)]
        # The order is the job order of every evaluation (slowest first).
        assert names == ["storage_engine", "threads", "record_count",
                         "operation_count", "query_mix", "distribution",
                         "ycsb_workload", "seed"]
        diagrams = control.systems.diagrams(system.id)
        assert any(d["kind"] == "line" for d in diagrams)
        assert any(d["kind"] == "bar" for d in diagrams)


class TestKeyValueStoreAgent:
    PARAMETERS = {"engine": "log", "key_count": 100, "operation_count": 200,
                  "value_size": 64, "write_fraction": 0.5, "seed": 2}

    def test_lifecycle(self):
        agent = KeyValueStoreAgent()
        context = make_context(self.PARAMETERS)
        agent.set_up(context)
        agent.warm_up(context)
        result = agent.analyze(context, agent.execute(context))
        agent.clean_up(context)
        assert result["engine"] == "log"
        assert result["reads"] + result["writes"] == 200
        assert result["throughput_ops_per_sec"] > 0
        assert result["parameters"]["engine"] == "log"

    def test_hash_engine(self):
        agent = KeyValueStoreAgent()
        context = make_context(dict(self.PARAMETERS, engine="hash"))
        agent.set_up(context)
        result = agent.execute(context)
        assert result["engine"] == "hash"

    def test_registration(self, control, admin):
        system = register_kvstore_system(control, owner_id=admin.id)
        names = [d.name for d in control.systems.parameter_definitions(system.id)]
        assert "engine" in names and "write_fraction" in names


class TestTestingAgents:
    def test_sleep_agent_reports_work(self):
        agent = SleepAgent()
        context = make_context({"work_units": 7})
        agent.set_up(context)
        result = agent.execute(context)
        assert result["work_done"] == 7
        assert agent.jobs_executed == 1

    def test_flaky_agent_fails_first_attempts(self):
        agent = FlakyAgent(fail_first_attempts=2)
        context = make_context({"work_units": 1})
        agent.set_up(context)
        with pytest.raises(AgentError):
            agent.execute(context)
        with pytest.raises(AgentError):
            agent.execute(context)
        assert agent.execute(context)["work_done"] == 1
        assert agent.failures_injected == 2

    def test_flaky_agent_failure_rate_deterministic(self):
        first = FlakyAgent(failure_rate=0.5, seed=9)
        second = FlakyAgent(failure_rate=0.5, seed=9)

        def outcomes(agent):
            results = []
            context = make_context({"work_units": 1})
            agent.set_up(context)
            for _ in range(10):
                try:
                    agent.execute(context)
                    results.append(True)
                except AgentError:
                    results.append(False)
            return results

        assert outcomes(first) == outcomes(second)

    def test_crashing_agent_raises_system_exit(self):
        agent = CrashingAgent()
        context = make_context({"work_units": 1})
        agent.set_up(context)
        with pytest.raises(SystemExit):
            agent.execute(context)
