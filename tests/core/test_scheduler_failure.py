"""Tests for the scheduler, failure policy and recovery passes."""

from __future__ import annotations

import itertools
import sys
import threading
import time

import pytest

from repro.agent.fleet import AgentFleet
from repro.agents.testing import FlakyAgent
from repro.core.enums import JobStatus
from repro.errors import SchedulerError


@pytest.fixture
def setup(control, admin, sleep_system):
    project = control.projects.create("proj", admin)
    experiment = control.experiments.create(project.id, sleep_system.id, "exp",
                                            parameters={"work_units": [1, 2, 3, 4]})
    evaluation, jobs = control.evaluations.create(experiment.id, max_attempts=2)
    deployments = [control.deployments.register(sleep_system.id, f"node-{i}").id
                   for i in (1, 2)]
    return control, sleep_system, evaluation, jobs, deployments


class TestClaiming:
    def test_claim_marks_running_and_assigns_deployment(self, setup):
        control, system, evaluation, jobs, deployments = setup
        job = control.scheduler.claim_next_job(system.id, deployments[0])
        assert job.status is JobStatus.RUNNING
        assert job.deployment_id == deployments[0]

    def test_busy_deployment_gets_no_second_job(self, setup):
        control, system, _, _, deployments = setup
        first = control.scheduler.claim_next_job(system.id, deployments[0])
        assert first is not None
        assert control.scheduler.claim_next_job(system.id, deployments[0]) is None

    def test_racing_claims_for_one_deployment_start_one_job(self, setup, monkeypatch):
        """A claim is its own unit of work: eight threads claiming for one
        deployment, with no unit of work open around them, start one job.
        Each claim yields between finding its job and starting it."""
        control, system, _, _, deployments = setup
        next_scheduled = control.jobs.next_scheduled

        def yielding_next_scheduled(*arguments):
            job = next_scheduled(*arguments)
            time.sleep(0.001)
            return job

        monkeypatch.setattr(control.jobs, "next_scheduled", yielding_next_scheduled)
        barrier = threading.Barrier(8)
        claimed, errors = [], []

        def claim():
            barrier.wait()
            try:
                claimed.append(control.scheduler.claim_next_job(system.id, deployments[0]))
            except Exception as error:  # every error fails the test
                errors.append(error)

        threads = [threading.Thread(target=claim, daemon=True) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        started = [job for job in claimed if job is not None]
        assert len(started) == 1
        assert [job.id for job in control.jobs.running_jobs()] == [started[0].id]
        assert started[0].deployment_id == deployments[0]

    def test_two_deployments_claim_different_jobs(self, setup):
        control, system, _, _, deployments = setup
        first = control.scheduler.claim_next_job(system.id, deployments[0])
        second = control.scheduler.claim_next_job(system.id, deployments[1])
        assert first.id != second.id

    def test_claim_returns_none_when_queue_empty(self, setup):
        control, system, _, jobs, deployments = setup
        for job in jobs:
            claimed = control.scheduler.claim_next_job(system.id, deployments[0])
            control.scheduler.complete_job(claimed.id)
        assert control.scheduler.claim_next_job(system.id, deployments[0]) is None

    def test_unknown_deployment_rejected(self, setup):
        control, system, *_ = setup
        with pytest.raises(SchedulerError):
            control.scheduler.claim_next_job(system.id, "deployment-bogus")

    def test_inactive_deployment_rejected(self, setup):
        control, system, _, _, deployments = setup
        control.deployments.deactivate(deployments[0])
        with pytest.raises(SchedulerError):
            control.scheduler.claim_next_job(system.id, deployments[0])

    def test_deployment_of_other_system_rejected(self, setup, control, admin):
        _, system, _, _, _ = setup
        from repro.agents.testing import register_sleep_system

        other = register_sleep_system(control, name="other-system")
        other_deployment = control.deployments.register(other.id, "other-node")
        with pytest.raises(SchedulerError):
            control.scheduler.claim_next_job(system.id, other_deployment.id)


class TestCompletionAndRelease:
    def test_complete_job_frees_deployment(self, setup):
        control, system, _, _, deployments = setup
        job = control.scheduler.claim_next_job(system.id, deployments[0])
        control.scheduler.complete_job(job.id)
        assert control.scheduler.claim_next_job(system.id, deployments[0]) is not None

    def test_snapshot_counts(self, setup):
        control, system, _, jobs, deployments = setup
        control.scheduler.claim_next_job(system.id, deployments[0])
        snapshot = control.scheduler.snapshot()
        assert snapshot.running == 1
        assert snapshot.scheduled == len(jobs) - 1
        assert snapshot.busy_deployments == [deployments[0]]


class TestARequestIsOneUnitOfWork:
    """A request that fails partway leaves the store as it found it, and so
    which deployments are busy: that is read from the job rows."""

    @staticmethod
    def broken(*_):
        raise RuntimeError("refresh failed")

    def test_a_claim_whose_status_refresh_raises_changes_nothing(self, setup, monkeypatch):
        control, system, evaluation, jobs, deployments = setup
        events = control.events.count()
        monkeypatch.setattr(control.evaluations, "refresh_status", self.broken)
        with pytest.raises(RuntimeError):
            control.claim_next_job(system.id, deployments[0])
        monkeypatch.undo()
        assert {job.status for job in control.jobs.list()} == {JobStatus.SCHEDULED}
        assert control.events.count() == events
        assert control.scheduler.snapshot().busy_deployments == []
        claimed = control.claim_next_job(system.id, deployments[0])
        assert (claimed.id, claimed.attempts) == (jobs[0].id, 1)

    def test_an_upload_whose_status_refresh_raises_stores_no_result(self, setup, monkeypatch):
        control, system, _, _, deployments = setup
        job = control.claim_next_job(system.id, deployments[0])
        monkeypatch.setattr(control.evaluations, "refresh_status", self.broken)
        with pytest.raises(RuntimeError):
            control.report_success(job.id, {"work_done": 1})
        monkeypatch.undo()
        assert control.jobs.get(job.id).status is JobStatus.RUNNING
        assert control.results.for_job_or_none(job.id) is None
        assert control.scheduler.snapshot().busy_deployments == [deployments[0]]

    def test_a_failure_report_whose_status_refresh_raises_keeps_the_deployment(
            self, setup, monkeypatch):
        control, system, _, _, deployments = setup
        job = control.claim_next_job(system.id, deployments[0])
        monkeypatch.setattr(control.evaluations, "refresh_status", self.broken)
        with pytest.raises(RuntimeError):
            control.report_failure(job.id, "crash")
        monkeypatch.undo()
        assert control.jobs.get(job.id).status is JobStatus.RUNNING
        assert control.scheduler.snapshot().busy_deployments == [deployments[0]]

    def test_agent_threads_and_a_recovery_thread_share_one_control(
            self, control, sleep_system):
        """Three agents over the REST edge, failing now and then, and a thread
        running recovery passes: no deadlock, and every job ends finished."""
        project = control.projects.create("threads", control.users.get_by_username("admin"))
        experiment = control.experiments.create(
            project.id, sleep_system.id, "exp", parameters={"work_units": list(range(1, 13))})
        evaluation, jobs = control.evaluations.create(experiment.id, max_attempts=20)
        deployments = [control.deployments.register(sleep_system.id, f"node-{i}").id
                       for i in range(3)]
        seeds = itertools.count(1)
        fleet = AgentFleet(control, sleep_system.id, deployments,
                           lambda: FlakyAgent(failure_rate=0.25, seed=next(seeds)))
        done = lambda: control.evaluations.is_complete(evaluation.id)  # noqa: E731

        def agent(runner):
            while not done():
                runner.run_one()

        def recovery():
            while not done():
                control.recover_stalled_jobs()
                time.sleep(0.001)

        threads = [threading.Thread(target=agent, args=(runner,), daemon=True)
                   for runner in fleet.runners]
        threads.append(threading.Thread(target=recovery, daemon=True))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            deadline = time.monotonic() + 30
            for thread in threads:
                thread.join(max(0.0, deadline - time.monotonic()))
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert [job.status for job in control.evaluations.jobs(evaluation.id)] \
            == [JobStatus.FINISHED] * len(jobs)
        assert sorted(result.job_id for result in control.results.for_jobs(
            [job.id for job in jobs])) == sorted(job.id for job in jobs)
        assert control.scheduler.snapshot().busy_deployments == []


class TestFailurePolicy:
    def test_failure_with_attempts_left_reschedules(self, setup):
        control, system, _, _, deployments = setup
        job = control.scheduler.claim_next_job(system.id, deployments[0])
        result = control.report_failure(job.id, "crash")
        assert result.status is JobStatus.SCHEDULED  # automatically re-scheduled
        assert control.scheduler.claim_next_job(system.id, deployments[0]) is not None

    def test_failure_after_last_attempt_stays_failed(self, setup):
        control, system, _, _, deployments = setup
        job_id = None
        for _ in range(2):  # max_attempts=2
            job = control.scheduler.claim_next_job(system.id, deployments[0])
            job_id = job.id if job_id is None else job_id
            control.report_failure(job.id, "crash")
        failed = control.jobs.get(job_id)
        assert failed.status is JobStatus.FAILED
        assert failed.attempts == 2

    def test_stalled_job_recovered_by_heartbeat_timeout(self, setup, clock):
        control, system, _, _, deployments = setup
        job = control.scheduler.claim_next_job(system.id, deployments[0])
        clock.advance(control.failures.heartbeat_timeout + 1)
        report = control.recover_stalled_jobs()
        assert job.id in report.stalled_jobs_recovered
        assert control.jobs.get(job.id).status is JobStatus.SCHEDULED

    def test_recovery_frees_the_crashed_agents_deployment(self, setup, clock):
        control, system, evaluation, _, deployments = setup
        job = control.scheduler.claim_next_job(system.id, deployments[0])
        clock.advance(control.failures.heartbeat_timeout + 1)
        control.recover_stalled_jobs()
        snapshot = control.scheduler.snapshot()
        assert (snapshot.scheduled, snapshot.running) == (4, 0)
        assert snapshot.busy_deployments == []
        # FIFO: the same deployment gets the recovered job back
        again = control.scheduler.claim_next_job(system.id, deployments[0])
        assert again.id == job.id and again.attempts == 2
        assert control.scheduler.snapshot().busy_deployments == [deployments[0]]

    def test_recovery_keeps_deployments_of_live_jobs_busy(self, setup, clock):
        control, system, _, _, deployments = setup
        stalled = control.scheduler.claim_next_job(system.id, deployments[0])
        clock.advance(control.failures.heartbeat_timeout - 1)
        live = control.scheduler.claim_next_job(system.id, deployments[1])
        clock.advance(2)
        report = control.recover_stalled_jobs()
        assert report.stalled_jobs_recovered == [stalled.id]
        assert control.scheduler.snapshot().busy_deployments == [deployments[1]]
        assert control.jobs.get(live.id).status is JobStatus.RUNNING

    def test_recovery_refreshes_the_evaluations_status(self, setup, clock):
        control, system, evaluation, jobs, deployments = setup
        for job in jobs[1:]:
            control.jobs.abort(job.id)
        for _ in range(2):  # max_attempts=2: the second stall is final
            control.scheduler.claim_next_job(system.id, deployments[0])
            assert control.evaluations.get(evaluation.id).status.value == "running"
            clock.advance(control.failures.heartbeat_timeout + 1)
            control.recover_stalled_jobs()
        assert control.evaluations.get(evaluation.id).status.value == "failed"
        assert control.evaluations.get(evaluation.id).finished_at == clock.now()

    def test_active_jobs_not_recovered_prematurely(self, setup, clock):
        control, system, _, _, deployments = setup
        job = control.scheduler.claim_next_job(system.id, deployments[0])
        clock.advance(10)
        report = control.recover_stalled_jobs()
        assert report.failed_jobs_rescheduled == report.stalled_jobs_recovered == []
        assert control.jobs.get(job.id).status is JobStatus.RUNNING

    def test_recovery_report_lists_permanent_failures(self, setup, clock):
        control, system, _, _, deployments = setup
        # exhaust both attempts via stalls
        for _ in range(2):
            job = control.scheduler.claim_next_job(system.id, deployments[0])
            clock.advance(control.failures.heartbeat_timeout + 1)
            control.recover_stalled_jobs()
        report = control.recover_stalled_jobs()
        assert report.permanently_failed or control.jobs.list(status=JobStatus.FAILED)

    def test_should_retry_respects_attempt_budget(self, setup):
        control, *_ = setup
        from repro.core.entities import Job
        from repro.core.enums import JobStatus as JS

        job = Job(id="j", evaluation_id="e", system_id="s", status=JS.FAILED,
                  attempts=1, max_attempts=3)
        assert control.failures.should_retry(job)
        job.attempts = 3
        assert not control.failures.should_retry(job)
