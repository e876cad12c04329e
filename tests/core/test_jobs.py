"""Tests for the job state machine, progress, heartbeats and timelines."""

from __future__ import annotations

import pytest

from repro.core.enums import JobStatus
from repro.errors import NotFoundError, StateError
from repro.storage.database import Database


@pytest.fixture
def evaluation_with_jobs(control, admin, sleep_system):
    project = control.projects.create("proj", admin)
    experiment = control.experiments.create(project.id, sleep_system.id, "exp",
                                            parameters={"work_units": [1, 2]})
    return control.evaluations.create(experiment.id)


@pytest.fixture
def job(evaluation_with_jobs):
    return evaluation_with_jobs[1][0]


class TestStateMachine:
    def test_initial_state_is_scheduled(self, job):
        assert job.status is JobStatus.SCHEDULED

    def test_full_happy_path(self, control, job):
        started = control.jobs.start(job.id, "deployment-x")
        assert started.status is JobStatus.RUNNING
        assert started.attempts == 1
        assert started.started_at is not None
        finished = control.jobs.finish(job.id)
        assert finished.status is JobStatus.FINISHED
        assert finished.progress == 100

    def test_cannot_finish_scheduled_job(self, control, job):
        with pytest.raises(StateError):
            control.jobs.finish(job.id)

    def test_cannot_start_twice(self, control, job):
        control.jobs.start(job.id, "d")
        with pytest.raises(StateError):
            control.jobs.start(job.id, "d")

    def test_abort_from_scheduled_and_running(self, control, evaluation_with_jobs):
        _, jobs = evaluation_with_jobs
        control.jobs.abort(jobs[0].id)
        assert control.jobs.get(jobs[0].id).status is JobStatus.ABORTED
        control.jobs.start(jobs[1].id, "d")
        control.jobs.abort(jobs[1].id)
        assert control.jobs.get(jobs[1].id).status is JobStatus.ABORTED

    def test_terminal_states_frozen(self, control, job):
        control.jobs.start(job.id, "d")
        control.jobs.finish(job.id)
        with pytest.raises(StateError):
            control.jobs.abort(job.id)
        with pytest.raises(StateError):
            control.jobs.reschedule(job.id)

    def test_fail_and_reschedule(self, control, job):
        control.jobs.start(job.id, "d")
        failed = control.jobs.fail(job.id, "error text")
        assert failed.status is JobStatus.FAILED
        assert failed.error == "error text"
        rescheduled = control.jobs.reschedule(job.id)
        assert rescheduled.status is JobStatus.SCHEDULED
        assert rescheduled.deployment_id is None
        assert rescheduled.error is None
        assert rescheduled.attempts == 1  # attempts only grow on start

    def test_reschedule_only_failed_jobs(self, control, job):
        with pytest.raises(StateError):
            control.jobs.reschedule(job.id)

    def test_each_transition_is_one_write(self, control, evaluation_with_jobs, monkeypatch):
        """The status and the fields of the new state travel in one update (one
        WAL record): a crash cannot land between them."""
        first, second = (job.id for job in evaluation_with_jobs[1])
        writes = []
        update = Database.update

        def counting_update(database, table, key, changes):
            writes.append((table, key, set(changes)))
            return update(database, table, key, changes)

        monkeypatch.setattr(Database, "update", counting_update)
        claimed = {"deployment_id", "started_at", "last_heartbeat", "progress", "error"}
        transitions = [
            (lambda: control.jobs.start(first, "d"), first, claimed | {"attempts"}),
            (lambda: control.jobs.fail(first, "boom"), first, {"finished_at", "error"}),
            (lambda: control.jobs.reschedule(first), first, claimed | {"finished_at"}),
            (lambda: control.jobs.start(first, "d"), first, claimed | {"attempts"}),
            (lambda: control.jobs.finish(first), first, {"finished_at", "progress"}),
            (lambda: control.jobs.abort(second), second, {"finished_at"}),
        ]
        for transition, job_id, fields in transitions:
            del writes[:]
            transition()
            assert writes == [("jobs", job_id, {"status"} | fields)]


class TestProgressAndHeartbeat:
    def test_progress_updates_and_clamps(self, control, job, clock):
        control.jobs.start(job.id, "d")
        clock.advance(10)
        updated = control.jobs.update_progress(job.id, 150)
        assert updated.progress == 100
        assert updated.last_heartbeat == pytest.approx(clock.now())
        assert control.jobs.update_progress(job.id, -5).progress == 0

    def test_progress_requires_running_state(self, control, job, clock):
        before = control.jobs.get(job.id)
        clock.advance(10)
        with pytest.raises(StateError, match="cannot report progress on a scheduled job"):
            control.jobs.update_progress(job.id, 10)
        assert control.jobs.get(job.id) == before  # the rejected tick wrote nothing
        with pytest.raises(NotFoundError, match="job 'nope' does not exist"):
            control.jobs.update_progress("nope", 10)

    def test_stalled_job_detection(self, control, job, clock):
        control.jobs.start(job.id, "d")
        clock.advance(1000)
        stalled = control.jobs.stalled_jobs(timeout=500)
        assert [j.id for j in stalled] == [job.id]
        control.jobs.update_progress(job.id, 10)  # a tick refreshes the heartbeat
        assert control.jobs.stalled_jobs(timeout=500) == []


class TestQueriesAndTimeline:
    def test_counts_by_status(self, control, evaluation_with_jobs):
        evaluation, jobs = evaluation_with_jobs
        control.jobs.start(jobs[0].id, "d")
        counts = control.jobs.counts_by_status(evaluation.id)
        assert counts["running"] == 1 and counts["scheduled"] == 1

    def test_next_scheduled_is_fifo(self, control, evaluation_with_jobs, sleep_system):
        _, jobs = evaluation_with_jobs
        first = control.jobs.next_scheduled(sleep_system.id)
        assert first.id == jobs[0].id

    def test_next_scheduled_skips_other_deployments(self, control, evaluation_with_jobs,
                                                    sleep_system):
        _, jobs = evaluation_with_jobs
        control.jobs.start(jobs[0].id, "other-deployment")
        control.jobs.fail(jobs[0].id, "x")
        control.jobs.reschedule(jobs[0].id)
        nxt = control.jobs.next_scheduled(sleep_system.id, "my-deployment")
        assert nxt is not None

    def test_list_filters(self, control, evaluation_with_jobs, sleep_system):
        evaluation, jobs = evaluation_with_jobs
        control.jobs.start(jobs[0].id, "d")
        running = control.jobs.list(status=JobStatus.RUNNING)
        assert [job.id for job in running] == [jobs[0].id]
        in_evaluation = control.jobs.list(evaluation_id=evaluation.id)
        assert len(in_evaluation) == 2

    def test_timeline_records_every_transition(self, control, job):
        control.jobs.start(job.id, "d")
        control.jobs.update_progress(job.id, 40)
        control.jobs.fail(job.id, "boom")
        control.jobs.reschedule(job.id)
        kinds = [event.event_type.value for event in control.events.timeline("job", job.id)]
        assert kinds == ["scheduled", "started", "progress", "failed", "rescheduled"]
