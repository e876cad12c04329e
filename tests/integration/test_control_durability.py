"""Integration tests for Chronos Control durability and REST-driven recovery."""

from __future__ import annotations

import itertools

import pytest

from repro.agent.fleet import AgentFleet
from repro.agents.testing import FlakyAgent, SleepAgent, register_sleep_system
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
        assert second.projects.find_by_name("durable") is not None
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
        assert report.total_recovered >= 1
        fleet = AgentFleet(second, system.id, [deployment.id], SleepAgent, clock=clock2)
        fleet.drive_evaluation(evaluation.id)
        assert second.evaluations.get(evaluation.id).status.value == "finished"

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


class ProcessDied(Exception):
    """Raised in place of a write to stand for the process dying before it."""


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
