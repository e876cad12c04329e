"""Tests for the Python Chronos Agent library: connection, runner, metrics, upload."""

from __future__ import annotations

import pytest

from repro.agent.base import ChronosAgent, JobContext
from repro.agent.connection import AgentConnection
from repro.agent.metrics import AgentMetrics
from repro.agent.runner import AgentRunner
from repro.agent.upload import ResultUploader
from repro.agents.testing import FlakyAgent, SleepAgent
from repro.errors import AgentError
from repro.rest.client import RestClient
from repro.util.clock import SimulatedClock


@pytest.fixture
def workspace(control, admin, sleep_system):
    """Project/experiment/evaluation plus a deployment and a connection."""
    project = control.projects.create("agent tests", admin)
    experiment = control.experiments.create(project.id, sleep_system.id, "exp",
                                            parameters={"work_units": [2, 4]})
    evaluation, jobs = control.evaluations.create(experiment.id, max_attempts=2)
    deployment = control.deployments.register(sleep_system.id, "node-1")
    connection = AgentConnection(RestClient(control.api))
    connection.login("admin", "admin")
    return control, sleep_system, deployment, evaluation, connection


class TestAgentMetrics:
    def test_phase_timing(self):
        clock = SimulatedClock()
        metrics = AgentMetrics(clock)
        metrics.start_phase("execution")
        clock.advance(2.0)
        assert metrics.stop_phase("execution") == pytest.approx(2.0)
        assert metrics.as_dict()["execution_seconds"] == pytest.approx(2.0)

    def test_counters(self):
        metrics = AgentMetrics(SimulatedClock())
        metrics.increment("operations", 5)
        metrics.increment("operations")
        metrics.set("threads", 4)
        exported = metrics.as_dict()
        assert exported["operations"] == 6
        assert exported["threads"] == 4
        assert metrics.get("missing", -1) == -1

    def test_stop_unknown_phase_is_zero(self):
        assert AgentMetrics(SimulatedClock()).stop_phase("nope") == 0.0


class TestResultUploader:
    def test_upload_and_read_back(self, tmp_path):
        uploader = ResultUploader(tmp_path)
        path = uploader.upload("job-1", {"throughput": 10}, {"raw.csv": "a,b\n1,2"})
        assert path.endswith("job-1.zip")
        assert uploader.list_uploads() == ["job-1.zip"]
        assert uploader.read("job-1")["throughput"] == 10

    def test_read_missing_raises(self, tmp_path):
        with pytest.raises(AgentError):
            ResultUploader(tmp_path).read("nope")

    def test_upload_requires_job_id(self, tmp_path):
        with pytest.raises(AgentError):
            ResultUploader(tmp_path).upload("", {})


class TestAgentConnection:
    def test_login_sets_token(self, workspace):
        control, system, deployment, _, connection = workspace
        job = connection.claim_next_job(system.id, deployment.id)
        assert job is not None and job["status"] == "running"

    def test_progress_logs_and_result(self, workspace):
        control, system, deployment, _, connection = workspace
        job = connection.claim_next_job(system.id, deployment.id)
        connection.report_progress(job["id"], 42, log="almost half")
        connection.append_log(job["id"], "more detail")
        uploaded = connection.upload_result(job["id"], {"v": 1}, {"metric": 2.0})
        assert uploaded["job"]["status"] == "finished"
        assert control.jobs.get(job["id"]).progress == 100
        assert "almost half" in control.logs.full_text(job["id"])

    def test_report_failure(self, workspace):
        control, system, deployment, _, connection = workspace
        job = connection.claim_next_job(system.id, deployment.id)
        response = connection.report_failure(job["id"], "broke")
        assert response["job"]["status"] in ("scheduled", "failed")

    def test_claim_returns_none_when_idle(self, workspace):
        control, system, deployment, evaluation, connection = workspace
        while connection.claim_next_job(system.id, deployment.id):
            job = control.jobs.list(status=None)
            running = [j for j in job if j.status.value == "running"]
            for j in running:
                connection.upload_result(j.id, {"done": True})
        assert connection.claim_next_job(system.id, deployment.id) is None


class TestAgentRunner:
    def test_run_until_idle_finishes_all_jobs(self, workspace, clock):
        control, system, deployment, evaluation, connection = workspace
        agent = SleepAgent()
        runner = AgentRunner(agent, connection, system.id, deployment.id, clock=clock)
        report = runner.run_until_idle()
        assert report.jobs_finished == 2
        assert report.jobs_failed == 0
        assert agent.jobs_executed == 2
        assert control.evaluations.is_complete(evaluation.id)

    def test_lifecycle_order_and_context(self, workspace, clock):
        control, system, deployment, _, connection = workspace
        calls = []

        class RecordingAgent(ChronosAgent):
            def set_up(self, context: JobContext) -> None:
                calls.append("set_up")
                assert context.parameters["work_units"] in (2, 4)

            def warm_up(self, context: JobContext) -> None:
                calls.append("warm_up")

            def execute(self, context: JobContext):
                calls.append("execute")
                return {"ok": True}

            def analyze(self, context: JobContext, raw):
                calls.append("analyze")
                return raw

            def clean_up(self, context: JobContext) -> None:
                calls.append("clean_up")

        runner = AgentRunner(RecordingAgent(), connection, system.id, deployment.id,
                             clock=clock)
        assert runner.run_one() is True
        assert calls == ["set_up", "warm_up", "execute", "analyze", "clean_up"]

    def test_agent_exception_reported_as_failure(self, workspace, clock):
        control, system, deployment, evaluation, connection = workspace
        agent = FlakyAgent(fail_first_attempts=100)  # always fails
        runner = AgentRunner(agent, connection, system.id, deployment.id, clock=clock)
        report = runner.run_until_idle()
        assert report.jobs_failed > 0
        counts = control.jobs.counts_by_status(evaluation.id)
        assert counts["failed"] == 2  # both jobs exhausted their 2 attempts

    def test_non_dict_execute_result_is_failure(self, workspace, clock):
        control, system, deployment, _, connection = workspace

        class BrokenAgent(SleepAgent):
            def execute(self, context):
                return "not a dict"

        runner = AgentRunner(BrokenAgent(), connection, system.id, deployment.id, clock=clock)
        report = runner.run_until_idle()
        assert report.jobs_failed > 0 and report.jobs_finished == 0
        failed = [j for j in control.jobs.list() if j.status.value == "failed"]
        assert failed and "AgentError" in failed[0].error

    def test_run_one_returns_false_when_no_work(self, control, sleep_system, clock):
        deployment = control.deployments.register(sleep_system.id, "lonely-node")
        connection = AgentConnection(RestClient(control.api))
        connection.login("admin", "admin")
        runner = AgentRunner(SleepAgent(), connection, sleep_system.id, deployment.id,
                             clock=clock)
        assert runner.run_one() is False

    def test_extra_result_files_uploaded(self, workspace, clock):
        control, system, deployment, _, connection = workspace

        class FileAgent(SleepAgent):
            def extra_result_files(self, context, result):
                return {"notes.txt": "hello"}

        runner = AgentRunner(FileAgent(), connection, system.id, deployment.id, clock=clock)
        runner.run_one()
        finished = [j for j in control.jobs.list() if j.status.value == "finished"]
        result = control.results.for_job(finished[0].id)
        # Without an archive directory the file is not persisted but the result exists.
        assert result.data["work_done"] == 2

    def test_metrics_attached_to_result(self, workspace, clock):
        control, system, deployment, _, connection = workspace
        runner = AgentRunner(SleepAgent(), connection, system.id, deployment.id, clock=clock)
        runner.run_one()
        finished = [j for j in control.jobs.list() if j.status.value == "finished"]
        result = control.results.for_job(finished[0].id)
        assert "execution_seconds" in result.metrics
        assert result.metrics["work_done"] == 2
