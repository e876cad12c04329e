"""Job scheduling: handing work to deployments and agents.

The scheduler owns the dispatch decision: which scheduled job should run next
on which deployment.  Jobs of the same evaluation can be parallelised when
there are multiple identical deployments of the SuE (Section 2.1).  Agents
pull work (``claim_next_job``) rather than being pushed to, matching the REST
polling model of the original Chronos Agents.

The scheduler holds no state.  A deployment is busy exactly while a row of
the jobs table runs on it, and a claim's check-and-start is one unit of work.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.deployments import DeploymentService
from repro.core.entities import Deployment, Job
from repro.core.evaluations import EvaluationService
from repro.core.jobs import JobService
from repro.errors import NotFoundError, SchedulerError
from repro.storage.database import Database


@dataclass
class ScheduleSnapshot:
    """A point-in-time view of the scheduler's queues (for the UI/monitoring)."""

    scheduled: int
    running: int
    finished: int
    failed: int
    aborted: int
    busy_deployments: list[str]


class Scheduler:
    """Assigns scheduled jobs to active deployments."""

    def __init__(self, database: Database, jobs: JobService,
                 deployments: DeploymentService, evaluations: EvaluationService):
        self._database = database
        self._jobs = jobs
        self._deployments = deployments
        self._evaluations = evaluations

    # -- agent-facing dispatch ----------------------------------------------------------

    def claim_next_job(self, system_id: str, deployment_id: str) -> Job | None:
        """Atomically claim the next scheduled job for ``deployment_id``.

        Returns ``None`` when there is no work or a job already runs on the
        deployment.  The claimed job transitions to *running*.  The check and
        the start are one unit of work: the caller's, or one of its own.
        """
        with self._database.transaction():
            deployment = self._require_active_deployment(system_id, deployment_id)
            if self._jobs.running_on(deployment.id):
                return None
            job = self._jobs.next_scheduled(system_id, deployment.id)
            if job is None:
                return None
            started = self._jobs.start(job.id, deployment.id)
            self._evaluations.refresh_status(started.evaluation_id)
            return started

    def complete_job(self, job_id: str) -> Job:
        """Finish a job, which frees its deployment."""
        job = self._jobs.finish(job_id)
        self._evaluations.refresh_status(job.evaluation_id)
        return job

    # -- queries ----------------------------------------------------------------------------

    def snapshot(self) -> ScheduleSnapshot:
        """Counts of jobs per state plus the busy deployments."""
        counts = self._jobs.counts_by_status()
        return ScheduleSnapshot(**counts, busy_deployments=sorted(self._occupied()))

    # -- internals ------------------------------------------------------------------------------

    def _occupied(self) -> set[str]:
        """The busy deployments: those a job runs on."""
        return {job.deployment_id for job in self._jobs.running_jobs()}

    def _require_active_deployment(self, system_id: str, deployment_id: str) -> Deployment:
        try:
            deployment = self._deployments.get(deployment_id)
        except NotFoundError:
            raise SchedulerError(f"deployment {deployment_id!r} is not registered") from None
        if deployment.system_id != system_id:
            raise SchedulerError(
                f"deployment {deployment_id!r} belongs to system "
                f"{deployment.system_id!r}, not {system_id!r}"
            )
        if not deployment.active:
            raise SchedulerError(f"deployment {deployment_id!r} is not active")
        return deployment
