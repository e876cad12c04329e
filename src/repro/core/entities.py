"""Entity dataclasses of the Chronos Control data model (Section 2.1).

Each entity knows how to convert itself to and from a row of the embedded
relational store.  Entities are plain data; all behaviour lives in the
service classes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core.enums import EvaluationStatus, EventType, JobStatus, Role


def _row(entity: Any, **stored: Any) -> dict[str, Any]:
    """``entity``'s fields as a row, ``stored`` replacing those (the enums) the
    table keeps in another form.  The containers are the entity's own: the
    table copies what it stores."""
    return {**vars(entity), **stored}


@dataclass
class User:
    """A registered user of the multi-user Chronos deployment."""

    id: str
    username: str
    password_hash: str
    role: Role = Role.USER
    created_at: float = 0.0

    def to_row(self) -> dict[str, Any]:
        return _row(self, role=self.role.value)

    @classmethod
    def from_row(cls, row: dict[str, Any]) -> "User":
        return cls(
            id=row["id"],
            username=row["username"],
            password_hash=row["password_hash"],
            role=Role(row["role"]),
            created_at=row["created_at"],
        )


@dataclass
class Project:
    """An organisational unit grouping experiments; unit of access control."""

    id: str
    name: str
    description: str = ""
    owner_id: str = ""
    members: list[str] = field(default_factory=list)
    archived: bool = False
    created_at: float = 0.0

    def to_row(self) -> dict[str, Any]:
        return _row(self)

    @classmethod
    def from_row(cls, row: dict[str, Any]) -> "Project":
        return cls(
            id=row["id"],
            name=row["name"],
            description=row["description"] or "",
            owner_id=row["owner_id"] or "",
            members=list(row["members"] or []),
            archived=bool(row["archived"]),
            created_at=row["created_at"],
        )


@dataclass
class System:
    """The internal representation of a System under Evaluation.

    ``parameters`` holds the parameter definitions an experiment against this
    SuE must provide (see :mod:`repro.core.parameters`); ``result_config``
    describes how results are structured and visualised (metric names and
    diagram specifications).
    """

    id: str
    name: str
    description: str = ""
    parameters: list[dict[str, Any]] = field(default_factory=list)
    result_config: dict[str, Any] = field(default_factory=dict)
    owner_id: str = ""
    created_at: float = 0.0

    def to_row(self) -> dict[str, Any]:
        return _row(self)

    @classmethod
    def from_row(cls, row: dict[str, Any]) -> "System":
        return cls(
            id=row["id"],
            name=row["name"],
            description=row["description"] or "",
            parameters=list(row["parameters"] or []),
            result_config=dict(row["result_config"] or {}),
            owner_id=row["owner_id"] or "",
            created_at=row["created_at"],
        )


@dataclass
class Deployment:
    """An instance of an SuE in a specific environment.

    Multiple identical deployments of one SuE allow Chronos to parallelise an
    evaluation; different deployments allow comparing environments/versions.
    """

    id: str
    system_id: str
    name: str
    environment: dict[str, Any] = field(default_factory=dict)
    version: str = ""
    active: bool = True
    created_at: float = 0.0

    def topology_spec(self):
        """The declared deployment topology, or ``None`` when undeclared.

        Returns a :class:`~repro.docstore.topology.TopologySpec` parsed from
        ``environment["topology"]`` (stored as plain data so the control
        plane stays system-agnostic).  Sparse declarations are completed to
        the minimal spec satisfying them -- the realized shape may differ
        for fields the declaration left to job parameters.
        """
        raw = self.environment.get("topology")
        if raw is None:
            return None
        from repro.docstore.topology import TopologySpec

        return TopologySpec.from_partial(raw)

    def to_row(self) -> dict[str, Any]:
        return _row(self)

    @classmethod
    def from_row(cls, row: dict[str, Any]) -> "Deployment":
        return cls(
            id=row["id"],
            system_id=row["system_id"],
            name=row["name"],
            environment=dict(row["environment"] or {}),
            version=row["version"] or "",
            active=bool(row["active"]),
            created_at=row["created_at"],
        )


@dataclass
class Experiment:
    """The definition of an evaluation with all its parameters."""

    id: str
    project_id: str
    system_id: str
    name: str
    description: str = ""
    parameters: dict[str, Any] = field(default_factory=dict)
    archived: bool = False
    created_at: float = 0.0

    def to_row(self) -> dict[str, Any]:
        return _row(self)

    @classmethod
    def from_row(cls, row: dict[str, Any]) -> "Experiment":
        return cls(
            id=row["id"],
            project_id=row["project_id"],
            system_id=row["system_id"],
            name=row["name"],
            description=row["description"] or "",
            parameters=dict(row["parameters"] or {}),
            archived=bool(row["archived"]),
            created_at=row["created_at"],
        )


@dataclass
class Evaluation:
    """One run of an experiment, consisting of one or multiple jobs."""

    id: str
    experiment_id: str
    name: str
    status: EvaluationStatus = EvaluationStatus.CREATED
    deployment_ids: list[str] = field(default_factory=list)
    created_at: float = 0.0
    finished_at: float | None = None

    def to_row(self) -> dict[str, Any]:
        return _row(self, status=self.status.value)

    @classmethod
    def from_row(cls, row: dict[str, Any]) -> "Evaluation":
        return cls(
            id=row["id"],
            experiment_id=row["experiment_id"],
            name=row["name"],
            status=EvaluationStatus(row["status"]),
            deployment_ids=list(row["deployment_ids"] or []),
            created_at=row["created_at"],
            finished_at=row["finished_at"],
        )


@dataclass
class Job:
    """A subset of an evaluation: one benchmark run for one parameter point."""

    id: str
    evaluation_id: str
    system_id: str
    parameters: dict[str, Any] = field(default_factory=dict)
    status: JobStatus = JobStatus.SCHEDULED
    deployment_id: str | None = None
    progress: int = 0
    attempts: int = 0
    max_attempts: int = 3
    error: str | None = None
    created_at: float = 0.0
    started_at: float | None = None
    finished_at: float | None = None
    last_heartbeat: float | None = None

    def to_row(self) -> dict[str, Any]:
        return _row(self, status=self.status.value)

    @classmethod
    def from_row(cls, row: dict[str, Any]) -> "Job":
        return cls(
            id=row["id"],
            evaluation_id=row["evaluation_id"],
            system_id=row["system_id"],
            parameters=dict(row["parameters"] or {}),
            status=JobStatus(row["status"]),
            deployment_id=row["deployment_id"],
            progress=int(row["progress"] or 0),
            attempts=int(row["attempts"] or 0),
            max_attempts=int(row["max_attempts"] or 1),
            error=row["error"],
            created_at=row["created_at"],
            started_at=row["started_at"],
            finished_at=row["finished_at"],
            last_heartbeat=row["last_heartbeat"],
        )


@dataclass
class Result:
    """The result of a job: a JSON document plus an optional archive.

    ``data`` carries every measurement required for analysis within Chronos
    Control; ``archive_path`` points to the zip file with any additional raw
    output for analysis outside of Chronos.
    """

    id: str
    job_id: str
    data: dict[str, Any] = field(default_factory=dict)
    metrics: dict[str, float] = field(default_factory=dict)
    archive_path: str | None = None
    uploaded_at: float = 0.0

    def to_row(self) -> dict[str, Any]:
        return _row(self)

    @classmethod
    def from_row(cls, row: dict[str, Any]) -> "Result":
        return cls(
            id=row["id"],
            job_id=row["job_id"],
            data=dict(row["data"] or {}),
            metrics=dict(row["metrics"] or {}),
            archive_path=row["archive_path"],
            uploaded_at=row["uploaded_at"],
        )


@dataclass
class Event:
    """A timeline entry associated with a job or another entity (Fig. 3c)."""

    id: str
    entity_type: str
    entity_id: str
    event_type: EventType
    message: str = ""
    timestamp: float = 0.0

    def to_row(self) -> dict[str, Any]:
        return _row(self, event_type=self.event_type.value)

    @classmethod
    def from_row(cls, row: dict[str, Any]) -> "Event":
        return cls(
            id=row["id"],
            entity_type=row["entity_type"],
            entity_id=row["entity_id"],
            event_type=EventType(row["event_type"]),
            message=row["message"] or "",
            timestamp=row["timestamp"],
        )


@dataclass
class LogEntry:
    """A chunk of log output periodically uploaded by an agent."""

    id: str
    job_id: str
    sequence: int
    content: str
    timestamp: float = 0.0

    def to_row(self) -> dict[str, Any]:
        return _row(self)

    @classmethod
    def from_row(cls, row: dict[str, Any]) -> "LogEntry":
        return cls(
            id=row["id"],
            job_id=row["job_id"],
            sequence=int(row["sequence"]),
            content=row["content"] or "",
            timestamp=row["timestamp"],
        )
