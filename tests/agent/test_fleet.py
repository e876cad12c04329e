"""Tests for running fleets of agents over multiple deployments."""

from __future__ import annotations

import pytest

from repro.agent.fleet import AgentFleet
from repro.agents.testing import SleepAgent


@pytest.fixture
def evaluation_setup(control, admin, sleep_system):
    project = control.projects.create("fleet tests", admin)
    experiment = control.experiments.create(project.id, sleep_system.id, "exp",
                                            parameters={"work_units": [1, 2, 3, 4, 5, 6]})
    evaluation, jobs = control.evaluations.create(experiment.id)
    deployments = [control.deployments.register(sleep_system.id, f"node-{i}").id
                   for i in range(3)]
    return control, sleep_system, evaluation, jobs, deployments


class TestAgentFleet:
    def test_round_robin_drives_evaluation_to_completion(self, evaluation_setup, clock):
        control, system, evaluation, jobs, deployments = evaluation_setup
        fleet = AgentFleet(control, system.id, deployments, SleepAgent, clock=clock)
        report = fleet.drive_evaluation(evaluation.id)
        assert report.jobs_finished == len(jobs)
        assert control.evaluations.is_complete(evaluation.id)

    def test_work_is_spread_over_deployments(self, evaluation_setup, clock):
        control, system, evaluation, jobs, deployments = evaluation_setup
        fleet = AgentFleet(control, system.id, deployments, SleepAgent, clock=clock)
        report = fleet.drive_evaluation(evaluation.id)
        assert len(report.per_deployment) == len(deployments)
        assert sum(report.per_deployment.values()) == len(jobs)

    def test_parallel_mode_completes_too(self, evaluation_setup, clock):
        control, system, evaluation, jobs, deployments = evaluation_setup
        fleet = AgentFleet(control, system.id, deployments, SleepAgent, clock=clock)
        report = fleet.drive_evaluation(evaluation.id, parallel=True)
        assert report.jobs_finished == len(jobs)

    def test_each_report_counts_only_its_own_evaluation(self, evaluation_setup, clock):
        control, system, first_evaluation, jobs, deployments = evaluation_setup
        experiment2 = control.experiments.create(
            control.projects.list()[0].id, system.id, "second",
            parameters={"work_units": [7, 8]})
        second_evaluation, _ = control.evaluations.create(experiment2.id)
        fleet = AgentFleet(control, system.id, deployments, SleepAgent, clock=clock)
        assert fleet.drive_evaluation(first_evaluation.id).jobs_finished == len(jobs)
        assert fleet.drive_evaluation(second_evaluation.id).jobs_finished == 2
        assert control.evaluations.is_complete(first_evaluation.id)
        assert control.evaluations.is_complete(second_evaluation.id)

    def test_single_deployment_serialises_jobs(self, control, admin, sleep_system, clock):
        project = control.projects.create("serial", admin)
        experiment = control.experiments.create(project.id, sleep_system.id, "exp",
                                                parameters={"work_units": [1, 2, 3]})
        evaluation, jobs = control.evaluations.create(experiment.id)
        deployment = control.deployments.register(sleep_system.id, "only-node")
        fleet = AgentFleet(control, sleep_system.id, [deployment.id], SleepAgent, clock=clock)
        report = fleet.drive_evaluation(evaluation.id)
        assert report.per_deployment == {deployment.id: 3}
        assert report.rounds >= 3


class TestConcurrentClaims:
    """Four agents on four deployments draining one evaluation: the claim is
    an index walk under the store's lock, so no job is handed out twice and
    none is passed over."""

    @pytest.fixture
    def sweep(self, control, admin, sleep_system):
        project = control.projects.create("stress", admin)
        experiment = control.experiments.create(
            project.id, sleep_system.id, "exp",
            parameters={"work_units": 1, "payload": list(range(80))})
        evaluation, jobs = control.evaluations.create(experiment.id)
        deployments = [control.deployments.register(sleep_system.id, f"node-{i}").id
                       for i in range(4)]
        return evaluation, jobs, deployments

    def test_parallel_fleet_runs_every_job_exactly_once(self, control, sleep_system,
                                                        sweep, clock):
        evaluation, jobs, deployments = sweep
        fleet = AgentFleet(control, sleep_system.id, deployments, SleepAgent, clock=clock)
        report = fleet.drive_evaluation(evaluation.id, parallel=True)
        assert report.jobs_finished == sum(report.per_deployment.values()) == len(jobs)
        for job in control.evaluations.jobs(evaluation.id):
            assert (job.status.value, job.attempts) == ("finished", 1)
            kinds = [event.event_type.value
                     for event in control.events.timeline("job", job.id)]
            assert kinds.count("started") == kinds.count("finished") == 1
        assert len(control.results.for_jobs([job.id for job in jobs])) == len(jobs)
        snapshot = control.scheduler.snapshot()
        assert (snapshot.finished, snapshot.scheduled + snapshot.running) == (len(jobs), 0)
        assert snapshot.busy_deployments == []
        assert control.evaluations.get(evaluation.id).status.value == "finished"

    def test_racing_claims_hand_out_the_queue_in_order(self, control, sleep_system, sweep):
        import threading

        evaluation, jobs, deployments = sweep
        claimed: dict[str, list[str]] = {deployment: [] for deployment in deployments}
        barrier = threading.Barrier(len(deployments))

        def drain(deployment: str) -> None:
            barrier.wait()
            while True:
                job = control.claim_next_job(sleep_system.id, deployment)
                if job is None:
                    return
                claimed[deployment].append(job.id)
                control.report_progress(job.id, 50)
                control.scheduler.complete_job(job.id)

        threads = [threading.Thread(target=drain, args=(deployment,))
                   for deployment in deployments]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        everything = sorted(job_id for ids in claimed.values() for job_id in ids)
        assert everything == sorted(job.id for job in jobs)  # each once, none skipped
        for ids in claimed.values():
            assert ids == sorted(ids)  # FIFO as seen by every agent
        assert control.evaluations.is_complete(evaluation.id)
        assert control.jobs.counts_by_status(evaluation.id)["finished"] == len(jobs)
