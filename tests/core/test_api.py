"""Tests for the versioned REST API of Chronos Control."""

from __future__ import annotations

import re

import pytest

from repro.core.api.routes import ROUTES
from repro.core.enums import JobStatus
from repro.errors import StateError
from repro.rest.client import RestClient


@pytest.fixture
def registered(control, client, sleep_system):
    """A project, experiment and deployment created through the API."""
    project = client.post("/api/v1/projects", {"name": "api project"}).json()["project"]
    deployment = client.post("/api/v1/deployments", {
        "system_id": sleep_system.id, "name": "node-1"}).json()["deployment"]
    experiment = client.post("/api/v1/experiments", {
        "project_id": project["id"], "system_id": sleep_system.id,
        "name": "api experiment", "parameters": {"work_units": [1, 2]},
    }).json()["experiment"]
    return project, deployment, experiment


class TestAuthentication:
    def test_info_is_public(self, control):
        response = control.api.request("GET", "/api/v1/info")
        assert response.ok and response.body["api_versions"] == ["v1", "v2"]

    def test_login_returns_token(self, control):
        response = control.api.request("POST", "/api/v1/login",
                                       body={"username": "admin", "password": "admin"})
        assert response.ok and "token" in response.body

    def test_bad_credentials_rejected(self, control):
        response = control.api.request("POST", "/api/v1/login",
                                       body={"username": "admin", "password": "nope"})
        assert response.status == 401

    def test_protected_routes_require_token(self, control):
        assert control.api.request("GET", "/api/v1/projects").status == 401

    @pytest.mark.parametrize("segment", ["info", "login"])
    def test_every_private_route_refuses_a_request_without_a_token(self, control, segment):
        """Whether a route is open is its row's, not the path's last segment."""
        private = [row for row in ROUTES if not row.public]
        assert any("{" in row.path for row in private)
        for row in private:
            path = f"/api/{row.version}" + re.sub(r"\{\w+\}", segment, row.path)
            response = control.api.request(row.method, path, body={})
            assert (response.status, response.body["error"]["message"]) == (
                401, "missing authentication token"), path
        assert {(row.method, row.path) for row in ROUTES if row.public} == {
            ("GET", "/info"), ("POST", "/login")}

    def test_invalid_token_rejected(self, control):
        response = control.api.request("GET", "/api/v1/projects",
                                       headers={"Authorization": "Bearer nope"})
        assert response.status == 401


class TestProjectsApi:
    def test_create_and_list(self, client):
        created = client.post("/api/v1/projects", {"name": "p1", "description": "d"})
        assert created.status == 201
        listed = client.get("/api/v1/projects").json()["projects"]
        assert [project["name"] for project in listed] == ["p1"]

    def test_get_single_project(self, client):
        project = client.post("/api/v1/projects", {"name": "p1"}).json()["project"]
        fetched = client.get(f"/api/v1/projects/{project['id']}")
        assert fetched.json()["project"]["name"] == "p1"

    def test_archive_endpoint(self, client):
        project = client.post("/api/v1/projects", {"name": "p1"}).json()["project"]
        archived = client.post(f"/api/v1/projects/{project['id']}/archive")
        assert archived.json()["project"]["archived"] is True

    def test_add_member(self, control, client):
        control.users.create_user("newbie", "pw")
        project = client.post("/api/v1/projects", {"name": "p1"}).json()["project"]
        updated = client.post(f"/api/v1/projects/{project['id']}/members",
                              {"username": "newbie"})
        assert len(updated.json()["project"]["members"]) == 2

    def test_missing_project_404(self, client):
        assert client.get("/api/v1/projects/project-999999").status == 404

    def test_outsider_cannot_view_project(self, control, client):
        control.users.create_user("outsider", "pw")
        project = client.post("/api/v1/projects", {"name": "p1"}).json()["project"]
        outsider_token = control.users.login("outsider", "pw")
        outsider = RestClient(control.api, token=outsider_token, raise_for_status=False)
        assert outsider.get(f"/api/v1/projects/{project['id']}").status == 403


class TestSystemsAndDeploymentsApi:
    def test_create_system_via_api(self, client):
        created = client.post("/api/v1/systems", {
            "name": "api-system",
            "description": "made by a test",
            "parameters": [{"name": "size", "kind": "interval"}],
            "result_config": {"metrics": ["m"], "diagrams": []},
        })
        assert created.status == 201
        system_id = created.json()["system"]["id"]
        assert client.get(f"/api/v1/systems/{system_id}").json()["system"]["name"] == "api-system"

    def test_list_systems(self, client, sleep_system):
        systems = client.get("/api/v1/systems").json()["systems"]
        assert any(system["id"] == sleep_system.id for system in systems)

    def test_deployments_crud(self, client, sleep_system):
        created = client.post("/api/v1/deployments", {
            "system_id": sleep_system.id, "name": "node-1",
            "environment": {"ram": 8}})
        assert created.status == 201
        deployment_id = created.json()["deployment"]["id"]
        assert client.get(f"/api/v1/deployments/{deployment_id}").ok
        listed = client.get("/api/v1/deployments",
                            query={"system_id": sleep_system.id}).json()["deployments"]
        assert len(listed) == 1


class TestEvaluationWorkflowApi:
    def test_experiment_space_endpoint(self, client, registered):
        *_, experiment = registered
        space = client.get(f"/api/v1/experiments/{experiment['id']}/space").json()
        assert space["jobs"] == 2

    def test_experiments_listed_by_the_query_strings_project(self, client, registered,
                                                              sleep_system):
        """A GET row reads its fields from the query string."""
        project, _, experiment = registered
        other = client.post("/api/v1/projects", {"name": "other"}).json()["project"]
        second = client.post("/api/v1/experiments", {
            "project_id": other["id"], "system_id": sleep_system.id, "name": "second",
        }).json()["experiment"]

        def listed(query):
            response = client.get("/api/v1/experiments", query=query)
            return [item["id"] for item in response.json()["experiments"]]
        assert listed({"project_id": project["id"]}) == [experiment["id"]]
        assert listed({"project_id": other["id"]}) == [second["id"]]
        assert listed({"project_id": "unknown"}) == []
        assert sorted(listed({})) == sorted([experiment["id"], second["id"]])

    def test_evaluation_results_are_its_jobs_results(self, client, registered, sleep_system):
        _, deployment, experiment = registered
        evaluation = client.post("/api/v1/evaluations",
                                 {"experiment_id": experiment["id"]}).json()["evaluation"]
        results = f"/api/v1/evaluations/{evaluation['id']}/results"
        assert client.get(results).json() == {"results": []}
        job = client.post("/api/v1/agents/next-job", {
            "system_id": sleep_system.id, "deployment_id": deployment["id"]}).json()["job"]
        client.post(f"/api/v1/jobs/{job['id']}/result", {"data": {"work_done": 3}})
        listed = client.get(results).json()["results"]
        assert [(result["job_id"], result["data"]) for result in listed] \
            == [(job["id"], {"work_done": 3})]
        other = client.post("/api/v1/evaluations",
                            {"experiment_id": experiment["id"]}).json()["evaluation"]
        assert client.get(f"/api/v1/evaluations/{other['id']}/results").json() \
            == {"results": []}

    def test_create_evaluation_and_jobs(self, client, registered):
        *_, experiment = registered
        created = client.post("/api/v1/evaluations", {"experiment_id": experiment["id"]})
        assert created.status == 201
        assert len(created.json()["jobs"]) == 2
        evaluation_id = created.json()["evaluation"]["id"]
        jobs = client.get(f"/api/v1/evaluations/{evaluation_id}/jobs").json()["jobs"]
        assert all(job["status"] == "scheduled" for job in jobs)

    def test_integer_fields_arrive_as_integers(self, client, registered, sleep_system):
        """A body field whose default is an ``int`` is coerced, as JSON clients
        may send a number as a string."""
        _, deployment, experiment = registered
        created = client.post("/api/v1/evaluations", {"experiment_id": experiment["id"],
                                                      "max_attempts": "2"}).json()
        assert {job["max_attempts"] for job in created["jobs"]} == {2}
        job = client.post("/api/v1/agents/next-job", {
            "system_id": sleep_system.id, "deployment_id": deployment["id"]}).json()["job"]
        ticked = client.patch(f"/api/v1/jobs/{job['id']}/progress", {"progress": "40"})
        assert ticked.json()["job"]["progress"] == 40

    def test_agent_workflow_over_api(self, client, registered, sleep_system):
        _, deployment, experiment = registered
        evaluation = client.post("/api/v1/evaluations",
                                 {"experiment_id": experiment["id"]}).json()["evaluation"]
        job = client.post("/api/v1/agents/next-job", {
            "system_id": sleep_system.id, "deployment_id": deployment["id"]}).json()["job"]
        assert job["status"] == "running"
        client.patch(f"/api/v1/jobs/{job['id']}/progress", {"progress": 40, "log": "hi"})
        client.post(f"/api/v1/jobs/{job['id']}/logs", {"content": "more output"})
        uploaded = client.post(f"/api/v1/jobs/{job['id']}/result", {
            "data": {"work_done": 1}, "metrics": {"execution_seconds": 0.5}})
        assert uploaded.status == 201
        fetched_job = client.get(f"/api/v1/jobs/{job['id']}").json()["job"]
        assert fetched_job["status"] == "finished"
        logs = client.get(f"/api/v1/jobs/{job['id']}/logs").json()["log"]
        assert "hi" in logs and "more output" in logs
        timeline = client.get(f"/api/v1/jobs/{job['id']}/timeline").json()["events"]
        assert any(event["event_type"] == "finished" for event in timeline)
        result = client.get(f"/api/v1/jobs/{job['id']}/result").json()["result"]
        assert result["data"]["work_done"] == 1
        progress = client.get(f"/api/v1/evaluations/{evaluation['id']}/progress").json()
        assert progress["counts"]["finished"] == 1

    def test_failure_reported_over_api(self, client, registered, sleep_system):
        _, deployment, experiment = registered
        client.post("/api/v1/evaluations", {"experiment_id": experiment["id"]})
        job = client.post("/api/v1/agents/next-job", {
            "system_id": sleep_system.id, "deployment_id": deployment["id"]}).json()["job"]
        failed = client.post(f"/api/v1/jobs/{job['id']}/failure", {"error": "boom"})
        # With attempts remaining the job is immediately re-scheduled.
        assert failed.json()["job"]["status"] == "scheduled"

    def test_abort_and_reschedule_endpoints(self, client, registered, sleep_system):
        _, deployment, experiment = registered
        evaluation = client.post("/api/v1/evaluations",
                                 {"experiment_id": experiment["id"],
                                  "max_attempts": 1}).json()["evaluation"]
        job = client.post("/api/v1/agents/next-job", {
            "system_id": sleep_system.id, "deployment_id": deployment["id"]}).json()["job"]
        client.post(f"/api/v1/jobs/{job['id']}/failure", {"error": "x"})
        rescheduled = client.post(f"/api/v1/jobs/{job['id']}/reschedule")
        assert rescheduled.json()["job"]["status"] == "scheduled"
        aborted = client.post(f"/api/v1/evaluations/{evaluation['id']}/abort")
        assert aborted.json()["evaluation"]["status"] == "aborted"

    def test_claim_when_no_work_returns_null(self, client, registered, sleep_system):
        _, deployment, _ = registered
        response = client.post("/api/v1/agents/next-job", {
            "system_id": sleep_system.id, "deployment_id": deployment["id"]})
        assert response.json()["job"] is None


def claim(client, system, deployment) -> dict | None:
    return client.post("/api/v1/agents/next-job", {
        "system_id": system.id, "deployment_id": deployment["id"]}).json()["job"]


class TestJobActionsApi:
    """Abort and reschedule over REST: an aborted job's deployment is free at
    once, and the evaluation reads back the status its jobs derive."""

    @pytest.mark.parametrize("route", ["job", "evaluation"])
    def test_an_aborted_jobs_deployment_claims_the_next_job_at_once(
            self, control, client, registered, sleep_system, route):
        _, deployment, experiment = registered
        first, second = (client.post("/api/v1/evaluations",
                                     {"experiment_id": experiment["id"]}).json()
                         for _ in range(2))
        job = claim(client, sleep_system, deployment)
        assert job["id"] == first["jobs"][0]["id"]
        if route == "job":
            client.post(f"/api/v1/jobs/{job['id']}/abort")
            following = first["jobs"][1]
        else:
            client.post(f"/api/v1/evaluations/{first['evaluation']['id']}/abort")
            following = second["jobs"][0]
        assert claim(client, sleep_system, deployment)["id"] == following["id"]

        def rows():
            return {name: list(control.database.table(name).all_rows())
                    for name in control.database.table_names()}

        before = rows()
        with pytest.raises(StateError):
            control.report_failure(job["id"], "late crash")
        assert rows() == before
        assert control.jobs.get(job["id"]).status is JobStatus.ABORTED

    @staticmethod
    def one_job_evaluation(client, registered, sleep_system, max_attempts) -> dict:
        project, *_ = registered
        experiment = client.post("/api/v1/experiments", {
            "project_id": project["id"], "system_id": sleep_system.id,
            "name": "one job", "parameters": {"work_units": 1},
        }).json()["experiment"]
        return client.post("/api/v1/evaluations", {
            "experiment_id": experiment["id"],
            "max_attempts": max_attempts}).json()["evaluation"]

    @staticmethod
    def status(client, evaluation) -> str:
        return client.get(f"/api/v1/evaluations/{evaluation['id']}").json()["evaluation"]["status"]

    def test_aborting_the_only_running_job_reads_back_aborted(
            self, client, registered, sleep_system):
        evaluation = self.one_job_evaluation(client, registered, sleep_system, 3)
        job = claim(client, sleep_system, registered[1])
        assert self.status(client, evaluation) == "running"
        client.post(f"/api/v1/jobs/{job['id']}/abort")
        assert self.status(client, evaluation) == "aborted"

    def test_rescheduling_the_failed_job_reads_back_created(
            self, client, registered, sleep_system):
        evaluation = self.one_job_evaluation(client, registered, sleep_system, 1)
        job = claim(client, sleep_system, registered[1])
        client.post(f"/api/v1/jobs/{job['id']}/failure", {"error": "boom"})
        assert self.status(client, evaluation) == "failed"
        client.post(f"/api/v1/jobs/{job['id']}/reschedule")
        assert self.status(client, evaluation) == "created"


class TestV2Api:
    def test_statistics_endpoint(self, client):
        statistics = client.get("/api/v2/statistics").json()["statistics"]
        assert "jobs" in statistics and "projects" in statistics

    def test_schedule_endpoint(self, client, registered):
        *_, experiment = registered
        scheduled = client.post("/api/v2/schedule", {
            "experiment_id": experiment["id"], "triggered_by": "build-42"})
        assert scheduled.status == 201
        assert scheduled.json()["job_count"] == 2
        assert scheduled.json()["triggered_by"] == "build-42"

    def test_recover_endpoint(self, client):
        response = client.post("/api/v2/recover")
        assert response.ok
        assert set(response.json()) == {"rescheduled", "stalled_recovered", "permanently_failed"}

    def test_scheduler_snapshot_endpoint(self, client, registered):
        *_, experiment = registered
        client.post("/api/v2/schedule", {"experiment_id": experiment["id"]})
        snapshot = client.get("/api/v2/scheduler").json()
        assert snapshot["scheduled"] == 2
