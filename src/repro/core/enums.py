"""Enumerations of the Chronos Control data model."""

from __future__ import annotations

from enum import Enum


class JobStatus(Enum):
    """The job states named in the paper (Section 2.1).

    A job can be *scheduled*, *running*, *finished*, *aborted* or *failed*.
    Jobs which are scheduled or running can be aborted; failed jobs can be
    re-scheduled.
    """

    SCHEDULED = "scheduled"
    RUNNING = "running"
    FINISHED = "finished"
    ABORTED = "aborted"
    FAILED = "failed"

    @property
    def is_active(self) -> bool:
        return self in (JobStatus.SCHEDULED, JobStatus.RUNNING)


# Legal state transitions; used by the job service to reject invalid updates.
JOB_TRANSITIONS: dict[JobStatus, tuple[JobStatus, ...]] = {
    JobStatus.SCHEDULED: (JobStatus.RUNNING, JobStatus.ABORTED, JobStatus.FAILED),
    JobStatus.RUNNING: (JobStatus.FINISHED, JobStatus.ABORTED, JobStatus.FAILED),
    JobStatus.FAILED: (JobStatus.SCHEDULED,),  # re-scheduling a failed job
    JobStatus.FINISHED: (),
    JobStatus.ABORTED: (),
}


class EvaluationStatus(Enum):
    """Aggregate status of an evaluation derived from its jobs."""

    CREATED = "created"
    RUNNING = "running"
    FINISHED = "finished"
    FAILED = "failed"
    ABORTED = "aborted"


class Role(Enum):
    """Roles of the multi-user environment (Section 2.2, user interface)."""

    ADMIN = "admin"
    USER = "user"
    READONLY = "readonly"


class EventType(Enum):
    """Timeline event categories shown on the job overview page (Fig. 3c)."""

    CREATED = "created"
    SCHEDULED = "scheduled"
    STARTED = "started"
    PROGRESS = "progress"
    LOG = "log"
    FINISHED = "finished"
    FAILED = "failed"
    ABORTED = "aborted"
    RESCHEDULED = "rescheduled"
    RESULT_UPLOADED = "result_uploaded"
    ARCHIVED = "archived"


class ParameterKind(Enum):
    """Parameter types offered by the Chronos web UI (Section 2.2)."""

    BOOLEAN = "boolean"
    CHECKBOX = "checkbox"
    VALUE = "value"
    INTERVAL = "interval"
    RATIO = "ratio"


class DiagramKind(Enum):
    """Diagram types provided for result visualisation (Section 2.2)."""

    BAR = "bar"
    LINE = "line"
    PIE = "pie"
