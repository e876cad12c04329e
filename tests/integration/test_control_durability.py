"""Integration tests for Chronos Control durability and REST-driven recovery."""

from __future__ import annotations

import itertools
import json
import shutil
from pathlib import Path

import pytest

from repro.agent.fleet import AgentFleet
from repro.agents.testing import FlakyAgent, SleepAgent, register_sleep_system
from repro.core.api.routes import ROUTES
from repro.core.control import ChronosControl
from repro.core.enums import JobStatus
from repro.rest.client import RestClient
from repro.util.clock import SimulatedClock


class TestControlRestart:
    def test_metadata_survives_restart(self, tmp_path):
        """Chronos Control can be stopped and restarted without losing state."""
        first = ChronosControl(data_directory=tmp_path, clock=SimulatedClock())
        admin = first.users.get_by_username("admin")
        system = register_sleep_system(first, owner_id=admin.id)
        deployment = first.deployments.register(system.id, "node-1")
        project = first.projects.create("durable", admin)
        experiment = first.experiments.create(project.id, system.id, "exp",
                                              parameters={"work_units": [1, 2, 3]})
        evaluation, _ = first.evaluations.create(experiment.id)
        job = first.claim_next_job(system.id, deployment.id)
        first.report_success(job.id, {"done": 1})
        first.checkpoint()
        job2 = first.claim_next_job(system.id, deployment.id)
        first.report_success(job2.id, {"done": 2})
        first.close()

        second = ChronosControl(data_directory=tmp_path, clock=SimulatedClock(),
                                create_admin=False)
        assert second.projects.get(project.id).name == "durable"
        jobs = second.evaluations.jobs(evaluation.id)
        finished = [j for j in jobs if j.status is JobStatus.FINISHED]
        assert len(finished) == 2
        assert second.results.for_job(job.id).data == {"done": 1}
        assert len(second.evaluations.jobs(evaluation.id)) == 3

    def test_interrupted_evaluation_resumes_after_restart(self, tmp_path):
        clock = SimulatedClock()
        first = ChronosControl(data_directory=tmp_path, clock=clock, heartbeat_timeout=30)
        admin = first.users.get_by_username("admin")
        system = register_sleep_system(first, owner_id=admin.id)
        deployment = first.deployments.register(system.id, "node-1")
        project = first.projects.create("resume", admin)
        experiment = first.experiments.create(project.id, system.id, "exp",
                                              parameters={"work_units": [1, 2]})
        evaluation, _ = first.evaluations.create(experiment.id)
        first.claim_next_job(system.id, deployment.id)  # claimed, never finished
        first.close()

        # Restart: the claimed job is still "running" with a stale heartbeat.
        clock2 = SimulatedClock(start=1000.0)
        second = ChronosControl(data_directory=tmp_path, clock=clock2,
                                heartbeat_timeout=30, create_admin=False)
        report = second.recover_stalled_jobs()
        assert report.stalled_jobs_recovered
        fleet = AgentFleet(second, system.id, [deployment.id], SleepAgent, clock=clock2)
        fleet.drive_evaluation(evaluation.id)
        assert second.evaluations.get(evaluation.id).status.value == "finished"

    def test_a_job_running_at_restart_keeps_its_deployment_busy(self, tmp_path):
        """The restarted instance knows the deployment busy from the job row
        alone: no second job for it until a recovery pass fails the first."""
        clock = SimulatedClock()
        first = ChronosControl(data_directory=tmp_path, clock=clock, heartbeat_timeout=30)
        admin = first.users.get_by_username("admin")
        system = register_sleep_system(first, owner_id=admin.id)
        deployment = first.deployments.register(system.id, "node-1")
        project = first.projects.create("busy", admin)
        experiment = first.experiments.create(project.id, system.id, "exp",
                                              parameters={"work_units": [1, 2]})
        first.evaluations.create(experiment.id)
        claimed = first.claim_next_job(system.id, deployment.id)
        first.close()

        second = ChronosControl(data_directory=tmp_path, clock=clock, heartbeat_timeout=30,
                                create_admin=False)
        assert second.claim_next_job(system.id, deployment.id) is None
        client = RestClient(second.api, token=second.users.login("admin", "admin"))
        assert client.get("/api/v2/scheduler").json()["busy_deployments"] == [deployment.id]
        clock.advance(31)
        second.recover_stalled_jobs()
        again = second.claim_next_job(system.id, deployment.id)
        assert (again.id, again.attempts) == (claimed.id, 2)
        assert [job.id for job in second.jobs.running_jobs()] == [claimed.id]
        second.close()

    def test_a_crash_at_any_write_of_a_claim_is_recoverable(self, tmp_path):
        """The process dies before the n-th write of a claim, for every n: the
        restarted instance finds the job scheduled or fully claimed -- never
        *running* without the deployment, heartbeat and attempt the stall
        detector and the scheduler know it by -- and completes the evaluation."""
        for n in itertools.count(1):
            first = ChronosControl(data_directory=tmp_path / str(n), clock=SimulatedClock(),
                                   heartbeat_timeout=30)
            admin = first.users.get_by_username("admin")
            system = register_sleep_system(first, owner_id=admin.id)
            deployment = first.deployments.register(system.id, "node-1")
            project = first.projects.create("crash", admin)
            experiment = first.experiments.create(project.id, system.id, "exp",
                                                  parameters={"work_units": [1, 2]})
            evaluation, _ = first.evaluations.create(experiment.id)
            writes = itertools.count(1)

            def dying(write):
                def write_or_die(*arguments):
                    if next(writes) == n:
                        raise ProcessDied
                    return write(*arguments)
                return write_or_die

            first.database.insert = dying(first.database.insert)
            first.database.update = dying(first.database.update)
            try:
                first.claim_next_job(system.id, deployment.id)
            except ProcessDied:
                pass
            else:
                break  # a claim is fewer than n writes: every one of them was tried
            finally:
                first.close()

            clock = SimulatedClock(start=1000.0)
            second = ChronosControl(data_directory=tmp_path / str(n), clock=clock,
                                    heartbeat_timeout=30, create_admin=False)
            for job in second.jobs.running_jobs():
                assert (job.deployment_id, job.attempts) == (deployment.id, 1)
                assert job.started_at is not None and job.last_heartbeat is not None
            second.recover_stalled_jobs()
            fleet = AgentFleet(second, system.id, [deployment.id], SleepAgent, clock=clock)
            fleet.drive_evaluation(evaluation.id)
            assert second.evaluations.get(evaluation.id).status.value == "finished"
            second.close()
        assert n > 2  # the job's write, its event, ...


class ProcessDied(BaseException):
    """Raised in place of a write to stand for the process dying before it
    (no ``except Exception`` of the REST edge turns it into a response)."""


# -- every route of the REST edge is one commit ----------------------------------------

#: what the fixture's clock reads when it checkpoints, and every reopened one
NOW = 50.0


def build_fixture(directory) -> tuple[dict[str, str], str]:
    """A checkpointed instance under ``directory`` in which every route has
    something to act on; returns the ids a request names and a session token."""
    clock = SimulatedClock()
    control = ChronosControl(data_directory=directory, clock=clock)
    admin = control.users.get_by_username("admin")
    control.users.create_user("alice", "secret")
    system = register_sleep_system(control, owner_id=admin.id)
    busy = control.deployments.register(system.id, "node-1").id
    idle = control.deployments.register(system.id, "node-2").id
    project = control.projects.create("durable", admin)
    experiment = control.experiments.create(project.id, system.id, "exp",
                                            parameters={"work_units": [1, 2, 3, 4]})
    evaluation, _ = control.evaluations.create(experiment.id)
    finished = control.claim_next_job(system.id, busy)
    control.report_progress(finished.id, 50, "half way")
    control.report_success(finished.id, {"work_done": 1}, {"work_done": 1.0})
    running = control.claim_next_job(system.id, busy)
    failed = control.claim_next_job(system.id, idle)
    control.jobs.fail(failed.id, "lost")  # attempts left: a recovery pass retries it
    single = control.experiments.create(project.id, system.id, "single",
                                        parameters={"work_units": 1})
    stale, (lone,) = control.evaluations.create(single.id)
    control.jobs.abort(lone.id)  # the evaluation's stored status is now stale
    token = control.users.login("admin", "admin")
    clock.advance(NOW)
    control.checkpoint()
    control.close()
    return {"system_id": system.id, "deployment_id": idle, "project_id": project.id,
            "experiment_id": experiment.id, "evaluation_id": evaluation.id,
            "stale_evaluation": stale.id,
            "job_id": running.id, "finished_job": finished.id,
            "failed_job": failed.id}, token


V1, V2 = "/api/v1", "/api/v2"

#: (method, template) -> a request that succeeds: its path parameters (template
#: name -> key of the fixture's ids) and its body (strings formatted with the ids)
REQUESTS: dict[tuple[str, str], tuple[dict[str, str], dict | None]] = {
    ("GET", V1 + "/info"): ({}, None),
    ("POST", V1 + "/login"): ({}, {"username": "admin", "password": "admin"}),
    ("GET", V1 + "/projects"): ({}, None),
    ("POST", V1 + "/projects"): ({}, {"name": "another"}),
    ("GET", V1 + "/projects/{project_id}"): ({"project_id": "project_id"}, None),
    ("POST", V1 + "/projects/{project_id}/archive"): ({"project_id": "project_id"}, {}),
    ("POST", V1 + "/projects/{project_id}/members"): (
        {"project_id": "project_id"}, {"username": "alice"}),
    ("GET", V1 + "/systems"): ({}, None),
    ("POST", V1 + "/systems"): ({}, {"name": "another-system", "parameters": [
        {"name": "size", "kind": "value", "default": 1}]}),
    ("GET", V1 + "/systems/{system_id}"): ({"system_id": "system_id"}, None),
    ("GET", V1 + "/deployments"): ({}, None),
    ("POST", V1 + "/deployments"): ({}, {"system_id": "{system_id}", "name": "node-3"}),
    ("GET", V1 + "/deployments/{deployment_id}"): ({"deployment_id": "deployment_id"}, None),
    ("GET", V1 + "/experiments"): ({}, None),
    ("POST", V1 + "/experiments"): ({}, {
        "project_id": "{project_id}", "system_id": "{system_id}", "name": "more",
        "parameters": {"work_units": [5, 6]}}),
    ("GET", V1 + "/experiments/{experiment_id}"): ({"experiment_id": "experiment_id"}, None),
    ("GET", V1 + "/experiments/{experiment_id}/space"): (
        {"experiment_id": "experiment_id"}, None),
    ("POST", V1 + "/evaluations"): ({}, {"experiment_id": "{experiment_id}"}),
    ("GET", V1 + "/evaluations/{evaluation_id}"): ({"evaluation_id": "evaluation_id"}, None),
    ("GET", V1 + "/evaluations/{evaluation_id}/progress"): (
        {"evaluation_id": "stale_evaluation"}, None),
    ("GET", V1 + "/evaluations/{evaluation_id}/jobs"): (
        {"evaluation_id": "evaluation_id"}, None),
    ("GET", V1 + "/evaluations/{evaluation_id}/results"): (
        {"evaluation_id": "evaluation_id"}, None),
    ("POST", V1 + "/evaluations/{evaluation_id}/abort"): (
        {"evaluation_id": "evaluation_id"}, {}),
    ("GET", V1 + "/jobs/{job_id}"): ({"job_id": "job_id"}, None),
    ("POST", V1 + "/jobs/{job_id}/abort"): ({"job_id": "job_id"}, {}),
    ("POST", V1 + "/jobs/{job_id}/reschedule"): ({"job_id": "failed_job"}, {}),
    ("GET", V1 + "/jobs/{job_id}/timeline"): ({"job_id": "finished_job"}, None),
    ("GET", V1 + "/jobs/{job_id}/logs"): ({"job_id": "finished_job"}, None),
    ("GET", V1 + "/jobs/{job_id}/result"): ({"job_id": "finished_job"}, None),
    ("POST", V1 + "/agents/next-job"): ({}, {
        "system_id": "{system_id}", "deployment_id": "{deployment_id}"}),
    ("PATCH", V1 + "/jobs/{job_id}/progress"): (
        {"job_id": "job_id"}, {"progress": 60, "log": "more"}),
    ("POST", V1 + "/jobs/{job_id}/logs"): ({"job_id": "job_id"}, {"content": "a line"}),
    ("POST", V1 + "/jobs/{job_id}/result"): (
        {"job_id": "job_id"}, {"data": {"work_done": 2}, "metrics": {"work_done": 2.0}}),
    ("POST", V1 + "/jobs/{job_id}/failure"): ({"job_id": "job_id"}, {"error": "boom"}),
    ("GET", V2 + "/statistics"): ({}, None),
    ("POST", V2 + "/schedule"): ({}, {"experiment_id": "{experiment_id}"}),
    ("POST", V2 + "/recover"): ({}, {}),
    ("GET", V2 + "/scheduler"): ({}, None),
}


def request_for(route: tuple[str, str], ids: dict[str, str]) -> tuple[str, dict | None]:
    """The path and body of ``REQUESTS[route]`` with the fixture's ``ids``."""
    names, body = REQUESTS[route]
    path = route[1].format(**{name: ids[key] for name, key in names.items()})
    if body is not None:
        body = {key: value.format(**ids) if isinstance(value, str) else value
                for key, value in body.items()}
    return path, body


def rows(control: ChronosControl) -> dict[str, dict]:
    """Every row of every table, by primary key."""
    database = control.database
    return {name: {row[database.table(name).schema.primary_key]: row
                   for row in database.table(name).all_rows()}
            for name in database.table_names()}


def reopen(directory) -> ChronosControl:
    return ChronosControl(data_directory=directory, clock=SimulatedClock(start=NOW),
                          create_admin=False)


def wal_records(directory) -> int:
    wal = directory / "metadata" / "wal.jsonl"
    return len(wal.read_text().splitlines()) if wal.exists() else 0


@pytest.fixture(scope="module")
def fixture(tmp_path_factory):
    """``build_fixture``'s directory, ids and token, and the rows it holds."""
    directory = tmp_path_factory.mktemp("checkpointed")
    ids, token = build_fixture(directory)
    control = reopen(directory)
    before = rows(control)
    control.close()
    return directory, ids, token, before


class TestEveryRouteIsOneCommit:
    """For every route of ``ROUTES``, v1 and v2: the request is one
    WAL record (none when it writes nothing), recovery restores what it left
    in memory, and a process that dies before any one of its writes restarts
    with the rows of before the request, table by table."""

    def test_the_table_names_every_route(self):
        assert sorted((row.method, f"/api/{row.version}{row.path}") for row in ROUTES) \
            == sorted(REQUESTS)

    @pytest.mark.parametrize("route", sorted(REQUESTS), ids=" ".join)
    def test_a_crash_before_any_write_leaves_the_rows_of_before(
            self, fixture, tmp_path, route):
        checkpointed, ids, token, before = fixture
        method, _ = route
        path, body = request_for(route, ids)

        def send(directory, die_at=None):
            shutil.copytree(checkpointed, directory)
            control = reopen(directory)
            writes = itertools.count(1)
            for name in ("insert", "update", "delete"):
                write = getattr(control.database, name)

                def write_or_die(*arguments, write=write):
                    if next(writes) == die_at:
                        raise ProcessDied
                    return write(*arguments)
                setattr(control.database, name, write_or_die)
            try:
                response = control.api.request(
                    method, path, body=body, headers={"Authorization": f"Bearer {token}"})
            finally:
                control.close()
            assert response.ok, response.body
            return control, next(writes) - 1

        control, written = send(tmp_path / "whole")
        assert wal_records(tmp_path / "whole") == min(written, 1)
        after = rows(control)
        assert rows(reopen(tmp_path / "whole")) == after
        assert (after == before) == (written == 0)
        for n in range(1, written + 1):
            with pytest.raises(ProcessDied):
                send(tmp_path / str(n), die_at=n)
            assert wal_records(tmp_path / str(n)) == 0
            assert rows(reopen(tmp_path / str(n))) == before


#: the status and JSON body of every request ``sent`` makes, by its label; the
#: file was written by the hand-written handlers the route table replaced
ANSWERS = Path(__file__).with_name("route_answers.json")


def sent(ids: dict[str, str]) -> list[tuple[str, str, str, dict | None]]:
    """``(label, method, path, body)`` of every request of ``REQUESTS``, of the
    same without its body when it has one and with an empty one (every field
    its default) when it has fields, and of the same with every path parameter
    an unknown id when it has any."""
    found = []
    for route, (names, _) in REQUESTS.items():
        method, template = route
        path, body = request_for(route, ids)
        label = f"{method} {template}"
        found.append((label, method, path, body))
        if body is not None:
            found.append((label + " without a body", method, path, None))
        if body:
            found.append((label + " with an empty body", method, path, {}))
        if names:
            unknown = template.format(**{name: "unknown" for name in names})
            found.append((label + " with an unknown id", method, unknown, body))
    return found


def answers(fixture, scratch) -> dict[str, dict]:
    """What each request of ``sent`` answers, each on the checkpointed instance
    reopened afresh: ``{"status": ..., "body": ...}``, a session token read as
    ``"<token>"`` (it is random), as the JSON file holds it."""
    checkpointed, ids, token, _ = fixture
    found = {}
    for number, (label, method, path, body) in enumerate(sent(ids)):
        directory = scratch / str(number)
        shutil.copytree(checkpointed, directory)
        control = reopen(directory)
        try:
            response = control.api.request(
                method, path, body=body, headers={"Authorization": f"Bearer {token}"})
        finally:
            control.close()
        answer = response.json()
        if "token" in answer:
            answer = {**answer, "token": "<token>"}
        found[label] = {"status": response.status, "body": answer}
    return found


class TestEveryRouteAnswersAsBefore:
    def test_every_status_and_body_is_the_recorded_one(self, fixture, tmp_path):
        expected = json.loads(ANSWERS.read_text())
        found = answers(fixture, tmp_path)
        assert list(found) == list(expected)
        for label, answer in found.items():  # as the wire writes it: keys in order
            assert json.dumps(answer) == json.dumps(expected[label]), label

    def test_the_requests_reach_every_outcome(self):
        statuses = {answer["status"] for answer in json.loads(ANSWERS.read_text()).values()}
        assert statuses == {200, 201, 400, 401, 404, 500}


class TestRestDrivenRecovery:
    def test_failed_jobs_recovered_through_the_api(self, control, admin, sleep_system, clock):
        deployment = control.deployments.register(sleep_system.id, "node-1")
        project = control.projects.create("rest recovery", admin)
        experiment = control.experiments.create(project.id, sleep_system.id, "exp",
                                                parameters={"work_units": [1, 2, 3]})
        evaluation, _ = control.evaluations.create(experiment.id, max_attempts=3)

        flaky = FlakyAgent(fail_first_attempts=2)
        fleet = AgentFleet(control, sleep_system.id, [deployment.id], lambda: flaky,
                           clock=clock)
        fleet.drive_evaluation(evaluation.id)

        token = control.users.login("admin", "admin")
        client = RestClient(control.api, token=token)
        progress = client.get(f"/api/v1/evaluations/{evaluation.id}/progress").json()
        assert progress["counts"]["finished"] == 3
        assert flaky.failures_injected == 2

    def test_multiple_sues_one_control_instance(self, control, admin, clock):
        """Requirement (ii): different SuEs evaluated through the same instance."""
        from repro.agents.kvstore_agent import KeyValueStoreAgent, register_kvstore_system
        from repro.agents.mongodb_agent import MongoDbAgent, register_mongodb_system

        mongodb = register_mongodb_system(control, owner_id=admin.id)
        kvstore = register_kvstore_system(control, owner_id=admin.id)
        project = control.projects.create("multi", admin)

        mongo_deploy = control.deployments.register(mongodb.id, "mongo-node")
        kv_deploy = control.deployments.register(kvstore.id, "kv-node")

        mongo_exp = control.experiments.create(project.id, mongodb.id, "m", parameters={
            "storage_engine": ["wiredtiger"], "threads": [1], "record_count": 40,
            "operation_count": 80, "query_mix": "90:10", "distribution": "uniform"})
        kv_exp = control.experiments.create(project.id, kvstore.id, "k", parameters={
            "engine": ["hash", "log"], "key_count": 50, "operation_count": 100,
            "value_size": 64, "write_fraction": 0.5})

        mongo_eval, _ = control.evaluations.create(mongo_exp.id)
        kv_eval, _ = control.evaluations.create(kv_exp.id)

        AgentFleet(control, mongodb.id, [mongo_deploy.id], MongoDbAgent,
                   clock=clock).drive_evaluation(mongo_eval.id)
        AgentFleet(control, kvstore.id, [kv_deploy.id], KeyValueStoreAgent,
                   clock=clock).drive_evaluation(kv_eval.id)

        assert control.evaluations.get(mongo_eval.id).status.value == "finished"
        assert control.evaluations.get(kv_eval.id).status.value == "finished"
        statistics = control.statistics()
        assert statistics["systems"] == 2
        assert statistics["jobs"]["finished"] == 3
