"""Tests for experiments, evaluation creation and status derivation."""

from __future__ import annotations

import pytest

from repro.core.enums import EvaluationStatus, JobStatus
from repro.errors import StateError, ValidationError


@pytest.fixture
def project(control, admin):
    return control.projects.create("proj", admin)


@pytest.fixture
def experiment(control, project, sleep_system):
    return control.experiments.create(
        project_id=project.id, system_id=sleep_system.id, name="exp",
        parameters={"work_units": [1, 2, 3]},
    )


class TestExperiments:
    def test_create_validates_parameters(self, control, project, sleep_system):
        with pytest.raises(ValidationError):
            control.experiments.create(project.id, sleep_system.id, "bad",
                                       parameters={"unknown_param": 1})

    def test_space_size_and_parameter_sets(self, control, experiment):
        assert control.experiments.space_size(experiment.id) == 3
        sets = control.experiments.job_parameter_sets(experiment.id)
        assert [s["work_units"] for s in sets] == [1, 2, 3]
        assert all(s["payload"] == "" for s in sets)

    def test_list_by_project(self, control, project, experiment):
        assert [e.id for e in control.experiments.list(project_id=project.id)] == [experiment.id]
        assert control.experiments.list(project_id="other") == []

    def test_archive_excluded_from_active_listing(self, control, project, experiment):
        control.database.update("experiments", experiment.id, {"archived": True})
        assert control.experiments.list(project_id=project.id,
                                        include_archived=False) == []


class TestEvaluationCreation:
    def test_one_job_per_parameter_combination(self, control, experiment):
        evaluation, jobs = control.evaluations.create(experiment.id)
        assert len(jobs) == 3
        assert {job.parameters["work_units"] for job in jobs} == {1, 2, 3}
        assert all(job.status is JobStatus.SCHEDULED for job in jobs)
        assert evaluation.status is EvaluationStatus.CREATED

    def test_archived_experiment_cannot_be_evaluated(self, control, experiment):
        control.database.update("experiments", experiment.id, {"archived": True})
        with pytest.raises(StateError):
            control.evaluations.create(experiment.id)

    def test_deployment_ids_recorded(self, control, experiment, sleep_system):
        deployment = control.deployments.register(sleep_system.id, "node-1")
        evaluation, _ = control.evaluations.create(experiment.id,
                                                   deployment_ids=[deployment.id])
        assert control.evaluations.get(evaluation.id).deployment_ids == [deployment.id]

    def test_max_attempts_forwarded_to_jobs(self, control, experiment):
        _, jobs = control.evaluations.create(experiment.id, max_attempts=5)
        assert all(job.max_attempts == 5 for job in jobs)

    def test_list_by_experiment(self, control, experiment):
        first, _ = control.evaluations.create(experiment.id)
        second, _ = control.evaluations.create(experiment.id)
        listed = control.evaluations.list(experiment_id=experiment.id)
        assert {e.id for e in listed} == {first.id, second.id}


class TestEvaluationStatus:
    def test_progress_aggregation(self, control, experiment, sleep_system):
        deployment = control.deployments.register(sleep_system.id, "node-1")
        evaluation, jobs = control.evaluations.create(experiment.id)
        claimed = control.claim_next_job(sleep_system.id, deployment.id)
        control.report_progress(claimed.id, 50)
        progress = control.evaluations.progress(evaluation.id)
        assert progress["jobs"] == 3
        assert progress["counts"]["running"] == 1
        assert progress["status"] == EvaluationStatus.RUNNING.value

    def test_status_finished_when_all_jobs_finish(self, control, experiment, sleep_system):
        deployment = control.deployments.register(sleep_system.id, "node-1")
        evaluation, jobs = control.evaluations.create(experiment.id)
        for _ in jobs:
            claimed = control.claim_next_job(sleep_system.id, deployment.id)
            control.report_success(claimed.id, {"ok": True})
        assert control.evaluations.get(evaluation.id).status is EvaluationStatus.FINISHED
        assert control.evaluations.get(evaluation.id).finished_at is not None
        assert control.evaluations.is_complete(evaluation.id)

    def test_status_failed_when_any_job_exhausts_attempts(self, control, experiment, sleep_system):
        deployment = control.deployments.register(sleep_system.id, "node-1")
        evaluation, jobs = control.evaluations.create(experiment.id, max_attempts=1)
        claimed = control.claim_next_job(sleep_system.id, deployment.id)
        control.report_failure(claimed.id, "boom")
        # remaining jobs finish fine
        while True:
            claimed = control.claim_next_job(sleep_system.id, deployment.id)
            if claimed is None:
                break
            control.report_success(claimed.id, {"ok": True})
        assert control.evaluations.get(evaluation.id).status is EvaluationStatus.FAILED

    def test_abort_evaluation_aborts_active_jobs(self, control, experiment):
        evaluation, jobs = control.evaluations.create(experiment.id)
        aborted = control.evaluations.abort(evaluation.id)
        assert aborted.status is EvaluationStatus.ABORTED
        assert all(job.status is JobStatus.ABORTED
                   for job in control.evaluations.jobs(evaluation.id))
