"""Job scheduling: handing work to deployments and agents.

The scheduler owns the dispatch decision: which scheduled job should run next
on which deployment.  Jobs of the same evaluation can be parallelised when
there are multiple identical deployments of the SuE (Section 2.1).  Agents
pull work (``claim_next_job``) rather than being pushed to, matching the REST
polling model of the original Chronos Agents.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.core.deployments import DeploymentService
from repro.core.entities import Deployment, Job
from repro.core.enums import JobStatus
from repro.core.evaluations import EvaluationService
from repro.core.jobs import JobService
from repro.errors import NotFoundError, SchedulerError


@dataclass
class ScheduleSnapshot:
    """A point-in-time view of the scheduler's queues (for the UI/monitoring)."""

    scheduled: int
    running: int
    finished: int
    failed: int
    aborted: int
    busy_deployments: list[str]

    @property
    def outstanding(self) -> int:
        return self.scheduled + self.running


class Scheduler:
    """Assigns scheduled jobs to active deployments."""

    def __init__(self, jobs: JobService, deployments: DeploymentService,
                 evaluations: EvaluationService):
        self._jobs = jobs
        self._deployments = deployments
        self._evaluations = evaluations
        self._lock = threading.Lock()
        self._busy: dict[str, str] = {}  # deployment_id -> job_id

    # -- agent-facing dispatch ----------------------------------------------------------

    def claim_next_job(self, system_id: str, deployment_id: str) -> Job | None:
        """Atomically claim the next scheduled job for ``deployment_id``.

        Returns ``None`` when there is no work or the deployment is already
        busy.  The claimed job transitions to *running*.  Run it inside a
        unit of work (``Database._lock`` is taken before ``self._lock``); the
        deployment is marked busy only after the claim's last write.
        """
        deployment = self._require_active_deployment(system_id, deployment_id)
        with self._lock:
            if deployment.id in self._busy:
                return None
            job = self._jobs.next_scheduled(system_id, deployment.id)
            if job is None:
                return None
            started = self._jobs.start(job.id, deployment.id)
            self._evaluations.refresh_status(started.evaluation_id)
            self._busy[deployment.id] = started.id
            return started

    def release_deployment(self, deployment_id: str) -> None:
        """Mark ``deployment_id`` idle again (called on job completion/failure)."""
        with self._lock:
            self._busy.pop(deployment_id, None)

    def release_idle_deployments(self) -> None:
        """Free every deployment whose claimed job no longer runs on it: a
        recovery pass fails a crashed agent's job without its deployment
        reporting anything.  Run it inside a unit of work, as a claim."""
        with self._lock:
            for deployment_id, job_id in list(self._busy.items()):
                job = self._jobs.get(job_id)
                if job.status is not JobStatus.RUNNING or job.deployment_id != deployment_id:
                    del self._busy[deployment_id]

    def complete_job(self, job_id: str) -> Job:
        """Finish a job, then free its deployment."""
        job = self._jobs.finish(job_id)
        self._evaluations.refresh_status(job.evaluation_id)
        if job.deployment_id:
            self.release_deployment(job.deployment_id)
        return job

    def fail_job(self, job_id: str, error: str) -> Job:
        """Record a job failure, then free its deployment (retry policy applies elsewhere)."""
        failed = self._jobs.fail(job_id, error)
        self._evaluations.refresh_status(failed.evaluation_id)
        if failed.deployment_id:
            self.release_deployment(failed.deployment_id)
        return failed

    # -- queries ----------------------------------------------------------------------------

    def snapshot(self) -> ScheduleSnapshot:
        """Counts of jobs per state plus the busy deployments."""
        counts = self._jobs.counts_by_status()
        with self._lock:
            busy = sorted(self._busy)
        return ScheduleSnapshot(**counts, busy_deployments=busy)

    def idle_deployments(self, system_id: str) -> list[Deployment]:
        """Active deployments of ``system_id`` that are not running a job."""
        with self._lock:
            busy = set(self._busy)
        return [
            deployment
            for deployment in self._deployments.active_for_system(system_id)
            if deployment.id not in busy
        ]

    # -- internals ------------------------------------------------------------------------------

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
