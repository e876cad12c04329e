"""Evaluations: runs of an experiment consisting of one or multiple jobs."""

from __future__ import annotations

from repro.core.entities import DEFAULT_MAX_ATTEMPTS, Evaluation, Job
from repro.core.enums import EvaluationStatus, EventType, JobStatus
from repro.core.events import EventService
from repro.core.experiments import ExperimentService
from repro.core.jobs import JobService
from repro.core.repository import Repository
from repro.errors import StateError, ValidationError
from repro.storage.database import Database
from repro.storage.query import eq
from repro.util.clock import Clock
from repro.util.ids import IdGenerator


class EvaluationService:
    """Creates evaluations by expanding experiments into jobs."""

    def __init__(self, database: Database, clock: Clock, ids: IdGenerator,
                 experiments: ExperimentService, jobs: JobService, events: EventService):
        self._clock = clock
        self._ids = ids
        self._experiments = experiments
        self._jobs = jobs
        self._events = events
        self._evaluations = Repository(database, Evaluation)

    # -- creation ----------------------------------------------------------------------

    def create(self, experiment_id: str, name: str | None = None,
               deployment_ids: list[str] | None = None,
               max_attempts: int = DEFAULT_MAX_ATTEMPTS) -> tuple[Evaluation, list[Job]]:
        """Create an evaluation of ``experiment_id`` and its jobs.

        The experiment's parameter space is expanded and one job is created
        per parameter combination (e.g. one job per thread count per storage
        engine in the MongoDB demo).  Returns the evaluation and its jobs.
        """
        experiment = self._experiments.get(experiment_id)
        if experiment.archived:
            raise StateError(f"experiment {experiment.name!r} is archived")
        parameter_sets = self._experiments.job_parameter_sets(experiment_id)
        if not parameter_sets:
            raise ValidationError("the experiment expands to zero jobs")
        evaluation = Evaluation(
            id=self._ids.next("evaluation"),
            experiment_id=experiment_id,
            name=name or f"{experiment.name} run",
            status=EvaluationStatus.CREATED,
            deployment_ids=list(deployment_ids or []),
            created_at=self._clock.now(),
        )
        self._evaluations.add(evaluation)
        jobs = [
            self._jobs.create(evaluation.id, experiment.system_id, parameters,
                              max_attempts=max_attempts)
            for parameters in parameter_sets
        ]
        self._events.record("evaluation", evaluation.id, EventType.CREATED,
                            f"evaluation created with {len(jobs)} jobs")
        return evaluation, jobs

    # -- retrieval ----------------------------------------------------------------------

    def get(self, evaluation_id: str) -> Evaluation:
        return self._evaluations.get(evaluation_id)

    def list(self, experiment_id: str | None = None) -> list[Evaluation]:
        if experiment_id is None:
            return self._evaluations.find(None, order_by="created_at")
        return self._evaluations.find(eq("experiment_id", experiment_id),
                                      order_by="created_at")

    def jobs(self, evaluation_id: str) -> list[Job]:
        return self._jobs.list(evaluation_id=evaluation_id)

    def progress(self, evaluation_id: str) -> dict[str, object]:
        """Aggregate progress of the evaluation (Fig. 3b's overview)."""
        jobs = self.jobs(evaluation_id)
        counts = self._jobs.counts_by_status(evaluation_id)
        total_progress = sum(job.progress for job in jobs) / len(jobs) if jobs else 0.0
        return {
            "evaluation_id": evaluation_id,
            "jobs": len(jobs),
            "counts": counts,
            "progress": round(total_progress, 2),
            "status": self.refresh_status(evaluation_id).status.value,
        }

    # -- status maintenance ---------------------------------------------------------------

    def refresh_status(self, evaluation_id: str) -> Evaluation:
        """Derive the evaluation's status from its jobs and persist it."""
        evaluation = self.get(evaluation_id)
        status = _derive_status(self._jobs.counts_by_status(evaluation_id))
        changes: dict[str, object] = {"status": status.value}
        if status in (EvaluationStatus.FINISHED, EvaluationStatus.FAILED,
                      EvaluationStatus.ABORTED) and evaluation.finished_at is None:
            changes["finished_at"] = self._clock.now()
        if status.value != evaluation.status.value or "finished_at" in changes:
            evaluation = self._evaluations.update(evaluation_id, changes)
        return evaluation

    def abort(self, evaluation_id: str) -> Evaluation:
        """Abort every scheduled or running job of the evaluation."""
        for job in self.jobs(evaluation_id):
            if job.status.is_active:
                self._jobs.abort(job.id)
        self._events.record("evaluation", evaluation_id, EventType.ABORTED,
                            "evaluation aborted")
        return self.refresh_status(evaluation_id)

    def is_complete(self, evaluation_id: str) -> bool:
        """True when no job of the evaluation is scheduled or running."""
        counts = self._jobs.counts_by_status(evaluation_id)
        return not any(counts[status.value] for status in JobStatus if status.is_active)


def _derive_status(counts: dict[str, int]) -> EvaluationStatus:
    """The evaluation status that follows from its jobs' per-status counts."""
    statuses = {status for status in JobStatus if counts[status.value]}
    if not statuses:
        return EvaluationStatus.CREATED
    if statuses & {JobStatus.RUNNING}:
        return EvaluationStatus.RUNNING
    if statuses & {JobStatus.SCHEDULED}:
        # Some jobs still waiting; if others already ran, the evaluation is running.
        if statuses - {JobStatus.SCHEDULED}:
            return EvaluationStatus.RUNNING
        return EvaluationStatus.CREATED
    if statuses == {JobStatus.FINISHED}:
        return EvaluationStatus.FINISHED
    if JobStatus.FAILED in statuses:
        return EvaluationStatus.FAILED
    return EvaluationStatus.ABORTED
