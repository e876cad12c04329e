"""Tests for result storage, logs, events and project archiving."""

from __future__ import annotations

import zipfile

import pytest

from repro.core.control import ChronosControl
from repro.errors import NotFoundError, ValidationError
from repro.util.clock import SimulatedClock


@pytest.fixture
def finished_job(control, admin, sleep_system):
    project = control.projects.create("proj", admin)
    experiment = control.experiments.create(project.id, sleep_system.id, "exp",
                                            parameters={"work_units": [1]})
    evaluation, jobs = control.evaluations.create(experiment.id)
    deployment = control.deployments.register(sleep_system.id, "node-1")
    claimed = control.claim_next_job(sleep_system.id, deployment.id)
    return project, experiment, evaluation, claimed


class TestResults:
    def test_store_and_fetch(self, control, finished_job):
        *_, job = finished_job
        result = control.results.store(job.id, {"throughput": 100.0},
                                       metrics={"execution_seconds": 1.5})
        fetched = control.results.for_job(job.id)
        assert fetched.id == result.id
        assert fetched.data["throughput"] == 100.0
        assert fetched.metrics["execution_seconds"] == 1.5

    def test_result_data_must_be_object(self, control, finished_job):
        *_, job = finished_job
        with pytest.raises(ValidationError):
            control.results.store(job.id, ["not", "an", "object"])

    def test_missing_result_raises(self, control, finished_job):
        *_, job = finished_job
        with pytest.raises(NotFoundError):
            control.results.for_job(job.id)
        assert control.results.for_job_or_none(job.id) is None

    def test_latest_result_wins(self, control, finished_job, clock):
        *_, job = finished_job
        control.results.store(job.id, {"v": 1})
        clock.advance(10)
        control.results.store(job.id, {"v": 2})
        assert control.results.for_job(job.id).data["v"] == 2

    def test_for_jobs_skips_missing(self, control, finished_job):
        *_, job = finished_job
        control.results.store(job.id, {"v": 1})
        results = control.results.for_jobs([job.id, "job-does-not-exist"])
        assert len(results) == 1

    def test_zip_archive_written_when_directory_configured(self, tmp_path):
        control = ChronosControl(data_directory=tmp_path, clock=SimulatedClock())
        admin = control.users.get_by_username("admin")
        from repro.agents.testing import register_sleep_system

        system = register_sleep_system(control, owner_id=admin.id)
        project = control.projects.create("p", admin)
        experiment = control.experiments.create(project.id, system.id, "e",
                                                parameters={"work_units": [1]})
        _, jobs = control.evaluations.create(experiment.id)
        deployment = control.deployments.register(system.id, "node-1")
        job = control.claim_next_job(system.id, deployment.id)
        result = control.results.store(job.id, {"v": 1},
                                       extra_files={"raw.txt": "line1\nline2"})
        assert result.archive_path is not None
        with zipfile.ZipFile(result.archive_path) as archive:
            assert archive.read("raw.txt").decode().startswith("line1")
            assert "result.json" in archive.namelist()

    def test_report_success_stores_result_and_finishes_job(self, control, finished_job):
        *_, job = finished_job
        finished, result = control.report_success(job.id, {"v": 1}, metrics={"m": 2.0})
        assert finished.status.value == "finished"
        assert result.metrics["m"] == 2.0


class TestLogs:
    def test_append_and_full_text(self, control, finished_job):
        *_, job = finished_job
        control.logs.append(job.id, "first line")
        control.logs.append(job.id, "second line")
        assert control.logs.full_text(job.id) == "first line\nsecond line"
        entries = control.logs.entries(job.id)
        assert [entry.sequence for entry in entries] == [1, 2]

    def test_logs_are_per_job(self, control, finished_job):
        *_, job = finished_job
        control.logs.append(job.id, "mine")
        assert control.logs.full_text("other-job") == ""

    def test_report_progress_appends_log(self, control, finished_job):
        *_, job = finished_job
        control.report_progress(job.id, 30, log="working")
        assert "working" in control.logs.full_text(job.id)
        assert control.jobs.get(job.id).progress == 30


    def test_sequence_is_the_stored_count_so_it_survives_a_restart(self, tmp_path):
        from repro.agents.testing import register_sleep_system

        first = ChronosControl(data_directory=tmp_path, clock=SimulatedClock())
        system = register_sleep_system(first, owner_id="")
        project = first.projects.create("p", first.users.get_by_username("admin"))
        experiment = first.experiments.create(project.id, system.id, "e",
                                              parameters={"work_units": [1, 2]})
        _, (job, other) = first.evaluations.create(experiment.id)
        for text in ("a", "b"):
            first.logs.append(job.id, text)
        first.logs.append(other.id, "x")
        first.close()
        second = ChronosControl(data_directory=tmp_path, clock=SimulatedClock(),
                                create_admin=False)
        assert second.logs.append(job.id, "c").sequence == 3
        assert second.logs.append(other.id, "y").sequence == 2
        assert second.logs.full_text(job.id) == "a\nb\nc"
        # nothing is kept per job outside the table
        assert not [value for value in vars(second.logs).values()
                    if isinstance(value, (dict, list, set))]
        second.close()


class TestEvents:
    def test_a_jobs_timeline_reads_that_jobs_events_only(self, control, finished_job,
                                                         monkeypatch):
        from repro.storage.query import And

        project, experiment, _, job = finished_job
        control.report_success(job.id, {"v": 1})
        _, others = control.evaluations.create(experiment.id)  # more "job" events
        kind = control.events.timeline("job", job.id)[0].event_type
        for _ in range(20):
            control.events.record("job", others[0].id, kind, "noise")
        expected = control.events.timeline("job", job.id)
        assert control.events.count("job") > len(expected) + 20

        examined = []
        matches = And.matches
        monkeypatch.setattr(And, "matches",
                            lambda self, row: examined.append(row["id"]) or matches(self, row))
        assert control.events.timeline("job", job.id) == expected
        assert sorted(examined) == sorted(event.id for event in expected)

    def test_timeline_is_chronological(self, control, finished_job, clock):
        *_, job = finished_job
        clock.advance(5)
        control.events.record("job", job.id, list(control.events.timeline("job", job.id))[0].event_type,
                              "manual entry")
        events = control.events.timeline("job", job.id)
        assert events == sorted(events, key=lambda e: (e.timestamp, e.id))

    def test_count_by_entity_type(self, control, finished_job):
        assert control.events.count("job") > 0
        assert control.events.count("nonexistent-type") == 0


class TestArchiveService:
    def test_experiment_bundle_contains_everything(self, control, finished_job):
        project, experiment, evaluation, job = finished_job
        control.logs.append(job.id, "some output")
        control.report_success(job.id, {"throughput": 10})
        bundle = control.archive.experiment_bundle(experiment.id)
        assert bundle["experiment"]["id"] == experiment.id
        assert len(bundle["evaluations"]) == 1
        job_entry = bundle["evaluations"][0]["jobs"][0]
        assert job_entry["result"]["data"]["throughput"] == 10
        assert "some output" in job_entry["log"]

    def test_archive_project_writes_zip_and_flags_project(self, control, finished_job, tmp_path):
        project, *_ , job = finished_job
        control.report_success(job.id, {"v": 1})
        path = control.archive.archive_project(project.id, tmp_path)
        assert path.exists()
        assert control.projects.get(project.id).archived
        bundle = control.archive.load_bundle(path)
        assert bundle["project"]["id"] == project.id
        assert bundle["experiments"]
