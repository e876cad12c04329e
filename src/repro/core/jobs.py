"""Job lifecycle: the state machine at the heart of Chronos Control.

A job is the run of a benchmark for one specific parameter set.  The paper
defines the states *scheduled*, *running*, *finished*, *aborted* and
*failed*; scheduled or running jobs can be aborted and failed jobs can be
re-scheduled (Section 2.1).  The job service enforces those transitions,
tracks progress and heartbeats, and records every change on the job's event
timeline (Fig. 3c).
"""

from __future__ import annotations

from typing import Any

from repro.core.entities import DEFAULT_MAX_ATTEMPTS, Job
from repro.core.enums import JOB_TRANSITIONS, EventType, JobStatus
from repro.core.events import EventService
from repro.core.repository import Repository
from repro.errors import StateError
from repro.storage.database import Database
from repro.storage.query import Predicate, and_, eq, in_
from repro.util.clock import Clock
from repro.util.ids import IdGenerator


class JobService:
    """Creates jobs and drives their state machine."""

    def __init__(self, database: Database, clock: Clock, ids: IdGenerator,
                 events: EventService):
        self._database = database
        self._clock = clock
        self._ids = ids
        self._events = events
        self._jobs = Repository(database, Job)

    # -- creation --------------------------------------------------------------------

    def create(self, evaluation_id: str, system_id: str, parameters: dict[str, Any],
               max_attempts: int = DEFAULT_MAX_ATTEMPTS) -> Job:
        """Create a job in state *scheduled*."""
        job = Job(
            id=self._ids.next("job"),
            evaluation_id=evaluation_id,
            system_id=system_id,
            parameters=dict(parameters),
            status=JobStatus.SCHEDULED,
            max_attempts=max_attempts,
            created_at=self._clock.now(),
        )
        self._jobs.add(job)
        self._events.record("job", job.id, EventType.SCHEDULED,
                            f"job created with parameters {sorted(parameters)}")
        return job

    # -- retrieval ---------------------------------------------------------------------

    def get(self, job_id: str) -> Job:
        return self._jobs.get(job_id)

    def list(self, evaluation_id: str | None = None,
             status: JobStatus | None = None) -> list[Job]:
        return self._jobs.find(_job_predicate(evaluation_id, status),
                               order_by="created_at")

    def next_scheduled(self, system_id: str, deployment_id: str | None = None) -> Job | None:
        """The oldest scheduled job for ``system_id`` (FIFO dispatch order)."""
        terms = [eq("system_id", system_id), eq("status", JobStatus.SCHEDULED.value)]
        if deployment_id is not None:
            # Jobs pinned to another deployment are skipped.
            terms.append(in_("deployment_id", (None, deployment_id)))
        # Ties on created_at are broken by the sequential job id (as in every
        # ordered select), so dispatch order is deterministic even within one
        # clock tick.
        jobs = self._jobs.find(and_(*terms), order_by="created_at", limit=1)
        return jobs[0] if jobs else None

    def counts_by_status(self, evaluation_id: str | None = None) -> dict[str, int]:
        """Number of jobs per status, of one evaluation or of all of them."""
        return {status.value: self._jobs.count(_job_predicate(evaluation_id, status))
                for status in JobStatus}

    # -- state transitions ------------------------------------------------------------------

    def start(self, job_id: str, deployment_id: str) -> Job:
        """Move a scheduled job to *running* on ``deployment_id``."""
        now = self._clock.now()
        job = self._transition(job_id, JobStatus.RUNNING, {
            "deployment_id": deployment_id,
            "started_at": now,
            "last_heartbeat": now,
            "progress": 0,
            "error": None,
        })
        self._events.record("job", job_id, EventType.STARTED,
                            f"job started on deployment {deployment_id}")
        return job

    def finish(self, job_id: str) -> Job:
        """Mark a running job as successfully *finished*."""
        job = self._transition(job_id, JobStatus.FINISHED, {
            "finished_at": self._clock.now(),
            "progress": 100,
        })
        self._events.record("job", job_id, EventType.FINISHED, "job finished")
        return job

    def fail(self, job_id: str, error: str) -> Job:
        """Mark a job as *failed* with an error message."""
        job = self._transition(job_id, JobStatus.FAILED, {
            "finished_at": self._clock.now(),
            "error": error,
        })
        self._events.record("job", job_id, EventType.FAILED, error)
        return job

    def abort(self, job_id: str) -> Job:
        """Abort a scheduled or running job."""
        job = self._transition(job_id, JobStatus.ABORTED,
                               {"finished_at": self._clock.now()})
        self._events.record("job", job_id, EventType.ABORTED, "job aborted by user")
        return job

    def reschedule(self, job_id: str) -> Job:
        """Re-schedule a failed job (Fig. 3c's reschedule action)."""
        job = self._transition(job_id, JobStatus.SCHEDULED, {
            "deployment_id": None,
            "progress": 0,
            "error": None,
            "started_at": None,
            "finished_at": None,
            "last_heartbeat": None,
        })
        self._events.record("job", job_id, EventType.RESCHEDULED, "job re-scheduled")
        return job

    # -- progress and heartbeats -------------------------------------------------------------

    def update_progress(self, job_id: str, progress: int) -> Job:
        """Record agent-reported progress (0-100) and refresh the heartbeat.

        The write comes first and its row tells the status: a job that is not
        running raises, which undoes the write, so a tick copies the row once.
        """
        progress = max(0, min(100, int(progress)))
        with self._database.transaction():
            job = self._jobs.update(job_id, {
                "progress": progress,
                "last_heartbeat": self._clock.now(),
            })
            if job.status is not JobStatus.RUNNING:
                raise StateError(f"cannot report progress on a {job.status.value} job")
        self._events.record("job", job_id, EventType.PROGRESS, f"progress {progress}%")
        return job

    def running_jobs(self) -> list[Job]:
        return self._jobs.find(eq("status", JobStatus.RUNNING.value))

    def running_on(self, deployment_id: str) -> int:
        """How many jobs run on ``deployment_id``: it is busy while one does."""
        return self._jobs.count(and_(eq("deployment_id", deployment_id),
                                     eq("status", JobStatus.RUNNING.value)))

    def stalled_jobs(self, timeout: float) -> list[Job]:
        """Running jobs whose last heartbeat is older than ``timeout`` seconds."""
        now = self._clock.now()
        return [
            job for job in self.running_jobs()
            if job.last_heartbeat is not None and now - job.last_heartbeat > timeout
        ]

    # -- internals -------------------------------------------------------------------------------

    def _transition(self, job_id: str, target: JobStatus, changes: dict[str, Any]) -> Job:
        """Move the job to ``target``: its status and the fields of the new
        state in one write, so no crash leaves a job between two states."""
        job = self.get(job_id)
        if target not in JOB_TRANSITIONS[job.status]:
            raise StateError(
                f"job {job_id} cannot move from {job.status.value!r} to {target.value!r}"
            )
        changes = {"status": target.value, **changes}
        if target is JobStatus.RUNNING:  # an attempt is an entry into *running*
            changes["attempts"] = job.attempts + 1
        return self._jobs.update(job_id, changes)


def _job_predicate(evaluation_id: str | None, status: JobStatus | None) -> Predicate | None:
    terms = []
    if evaluation_id is not None:
        terms.append(eq("evaluation_id", evaluation_id))
    if status is not None:
        terms.append(eq("status", status.value))
    return and_(*terms) if terms else None
