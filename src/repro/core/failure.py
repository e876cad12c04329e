"""Automated failure handling and recovery (requirement iii).

Chronos must be reliable enough for long-running evaluations: failures are
handled automatically and failed evaluation runs are recovered.  Two
mechanisms are implemented:

* **Failure policy** -- when an agent reports a job failure, the job is
  automatically re-scheduled as long as it has attempts left; once the
  attempt budget is exhausted it stays *failed* (and can still be re-scheduled
  manually from the UI/API).
* **Stall detection** -- running jobs must refresh their heartbeat (progress
  updates do this implicitly).  Jobs whose heartbeat is older than the
  configured timeout are treated as crashed agents: they are failed and then
  re-scheduled under the same policy.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.entities import Job
from repro.core.enums import JobStatus
from repro.core.jobs import JobService

DEFAULT_HEARTBEAT_TIMEOUT = 300.0


@dataclass
class RecoveryReport:
    """What a recovery pass did."""

    failed_jobs_rescheduled: list[str]
    stalled_jobs_recovered: list[str]
    permanently_failed: list[str]


class FailureHandler:
    """Implements the automatic re-scheduling and stall recovery policy."""

    def __init__(self, jobs: JobService,
                 heartbeat_timeout: float = DEFAULT_HEARTBEAT_TIMEOUT):
        self._jobs = jobs
        self.heartbeat_timeout = heartbeat_timeout

    # -- reactions to agent-reported failures ---------------------------------------

    def handle_job_failure(self, job_id: str, error: str) -> Job:
        """Mark ``job_id`` failed and re-schedule it if attempts remain."""
        job = self._jobs.fail(job_id, error)
        if self.should_retry(job):
            return self._jobs.reschedule(job_id)
        return job

    def should_retry(self, job: Job) -> bool:
        """Whether the failure policy grants the job another attempt."""
        return job.status is JobStatus.FAILED and job.attempts < job.max_attempts

    # -- stall detection --------------------------------------------------------------

    def recover(self) -> RecoveryReport:
        """One recovery pass: requeue crashed/stalled jobs.

        Returns a report listing re-scheduled and permanently failed jobs.
        """
        rescheduled: list[str] = []
        stalled_recovered: list[str] = []
        permanent: list[str] = []

        for job in self._jobs.stalled_jobs(self.heartbeat_timeout):
            failed = self._jobs.fail(job.id, "agent heartbeat timed out")
            if self.should_retry(failed):
                self._jobs.reschedule(job.id)
                stalled_recovered.append(job.id)
            else:
                permanent.append(job.id)

        for job in self._jobs.list(status=JobStatus.FAILED):
            if self.should_retry(job):
                self._jobs.reschedule(job.id)
                rescheduled.append(job.id)
            else:
                permanent.append(job.id)

        return RecoveryReport(
            failed_jobs_rescheduled=rescheduled,
            stalled_jobs_recovered=stalled_recovered,
            permanently_failed=permanent,
        )
