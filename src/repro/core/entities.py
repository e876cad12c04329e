"""Entities of the Chronos Control data model (Section 2.1).

An entity class is the one declaration of its table: :class:`Entity` derives
the table's schema and the conversion between instances and rows from the
dataclass fields.  Entities are plain data; all behaviour lives in the
service classes.
"""

from __future__ import annotations

import re
from dataclasses import MISSING, dataclass, field, fields
from enum import Enum
from itertools import starmap
from types import NoneType, UnionType
from typing import Any, get_args, get_origin, get_type_hints

from repro.core.enums import EvaluationStatus, EventType, JobStatus, Role
from repro.storage.schema import Column, ColumnType, TableSchema

_COLUMN_TYPES = {str: ColumnType.STRING, int: ColumnType.INTEGER, float: ColumnType.FLOAT,
                 bool: ColumnType.BOOLEAN, dict: ColumnType.JSON, list: ColumnType.JSON}


class Entity:
    """Base of every entity; a subclass is made a dataclass and is its table.

    Beside its fields a subclass states ``table``, the table's name, and where
    it has any ``indexes`` and ``unique``, as :class:`TableSchema` takes them.
    ``schema`` is derived once, when the class is defined: one column per
    field, in field order, ``id`` the primary key; the column type from the
    annotation (``str`` / ``int`` / ``float`` / ``bool``; a ``dict`` or
    ``list`` is JSON; an ``Enum`` is stored as its STRING value); NOT NULL
    for a field without a default and for every enum, nullable with the
    field's default otherwise.  ``noun`` is what a ``NotFoundError`` calls an
    instance.  Adding a column is adding a field.
    """

    indexes: tuple[str | tuple[str, ...], ...] = ()
    unique: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        dataclass(cls)
        annotations = get_type_hints(cls)
        columns, cls._enums = [], []
        for spec in fields(cls):
            kind = annotations[spec.name]
            if isinstance(kind, UnionType):  # ``float | None``
                kind, = (arg for arg in get_args(kind) if arg is not NoneType)
            kind = get_origin(kind) or kind  # ``list[str]``
            default = (spec.default if spec.default_factory is MISSING
                       else spec.default_factory())
            if issubclass(kind, Enum):
                cls._enums.append((spec.name, kind))
                kind, default = str, MISSING
            # name, type, nullable, default -- the fields of a ``Column``
            columns.append((spec.name, _COLUMN_TYPES[kind], default is not MISSING,
                            None if default is MISSING else default))
        cls.schema = TableSchema(cls.table, list(starmap(Column, columns)), primary_key="id",
                                 unique=list(cls.unique), indexes=list(cls.indexes))
        #: where a NULL read back gives way to the field's default (which is not NULL)
        cls._defaulted = [column.name for column in cls.schema.columns
                          if column.default is not None]
        cls.noun = re.sub(r"(?<=[a-z])(?=[A-Z])", " ", cls.__name__).lower()

    def to_row(self) -> dict[str, Any]:
        """The fields as a row, an enum as its value.  The containers are the
        entity's own: the table copies what it stores."""
        row = dict(vars(self))
        for name, _ in self._enums:
            row[name] = row[name].value
        return row

    @classmethod
    def from_row(cls, row: dict[str, Any]) -> "Entity":
        """The entity of ``row``, a NULL left out so that the field's default
        applies.  A row read from the store is already a private copy, so its
        containers become the entity's."""
        values = dict(row)
        for name in cls._defaulted:
            if values[name] is None:
                del values[name]
        for name, enum in cls._enums:
            values[name] = enum(values[name])
        return cls(**values)


class User(Entity):
    """A registered user of the multi-user Chronos deployment."""

    table = "users"
    unique = ("username",)

    id: str
    username: str
    password_hash: str
    role: Role = Role.USER
    created_at: float = 0.0


class Session(Entity):
    """A login of a user: the token the REST edge authenticates, until it expires."""

    table = "sessions"
    unique = ("token",)
    indexes = ("user_id",)

    id: str
    user_id: str
    token: str
    created_at: float = 0.0
    expires_at: float = 0.0


class Project(Entity):
    """An organisational unit grouping experiments; unit of access control."""

    table = "projects"
    indexes = ("owner_id",)

    id: str
    name: str
    description: str = ""
    owner_id: str = ""
    members: list[str] = field(default_factory=list)
    archived: bool = False
    created_at: float = 0.0


class System(Entity):
    """The internal representation of a System under Evaluation.

    ``parameters`` holds the parameter definitions an experiment against this
    SuE must provide (see :mod:`repro.core.parameters`); ``result_config``
    describes how results are structured and visualised (metric names and
    diagram specifications).
    """

    table = "systems"
    unique = ("name",)

    id: str
    name: str
    description: str = ""
    parameters: list[dict[str, Any]] = field(default_factory=list)
    result_config: dict[str, Any] = field(default_factory=dict)
    owner_id: str = ""
    created_at: float = 0.0


class Deployment(Entity):
    """An instance of an SuE in a specific environment.

    Multiple identical deployments of one SuE allow Chronos to parallelise an
    evaluation; different deployments allow comparing environments/versions.
    """

    table = "deployments"
    indexes = ("system_id",)

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

        return TopologySpec.parse(raw)


class Experiment(Entity):
    """The definition of an evaluation with all its parameters."""

    table = "experiments"
    indexes = ("project_id", "system_id")

    id: str
    project_id: str
    system_id: str
    name: str
    description: str = ""
    parameters: dict[str, Any] = field(default_factory=dict)
    archived: bool = False
    created_at: float = 0.0


class Evaluation(Entity):
    """One run of an experiment, consisting of one or multiple jobs."""

    table = "evaluations"
    indexes = ("experiment_id", "status")

    id: str
    experiment_id: str
    name: str
    status: EvaluationStatus = EvaluationStatus.CREATED
    deployment_ids: list[str] = field(default_factory=list)
    created_at: float = 0.0
    finished_at: float | None = None


#: how often a job is started before its failure is final, unless its evaluation says
DEFAULT_MAX_ATTEMPTS = 3


class Job(Entity):
    """A subset of an evaluation: one benchmark run for one parameter point."""

    table = "jobs"
    # The ordered indexes are the scheduler's queue (the oldest scheduled job
    # of a system is the first entry under ``(system, "scheduled")``), the
    # per-status job counts an evaluation's status derives from, and the
    # running jobs of a deployment (it is busy while there is one).
    indexes = ("evaluation_id", "status", "system_id",
               ("system_id", "status", "created_at"), ("evaluation_id", "status"),
               ("deployment_id", "status"))

    id: str
    evaluation_id: str
    system_id: str
    parameters: dict[str, Any] = field(default_factory=dict)
    status: JobStatus = JobStatus.SCHEDULED
    deployment_id: str | None = None
    progress: int = 0
    attempts: int = 0
    max_attempts: int = DEFAULT_MAX_ATTEMPTS
    error: str | None = None
    created_at: float = 0.0
    started_at: float | None = None
    finished_at: float | None = None
    last_heartbeat: float | None = None


class Result(Entity):
    """The result of a job: a JSON document plus an optional archive.

    ``data`` carries every measurement required for analysis within Chronos
    Control; ``archive_path`` points to the zip file with any additional raw
    output for analysis outside of Chronos.
    """

    table = "results"
    indexes = ("job_id",)

    id: str
    job_id: str
    data: dict[str, Any] = field(default_factory=dict)
    metrics: dict[str, float] = field(default_factory=dict)
    archive_path: str | None = None
    uploaded_at: float = 0.0


class Event(Entity):
    """A timeline entry associated with a job or another entity (Fig. 3c)."""

    table = "events"
    indexes = ("entity_id", "entity_type")

    id: str
    entity_type: str
    entity_id: str
    event_type: EventType
    message: str = ""
    timestamp: float = 0.0


class LogEntry(Entity):
    """A chunk of log output periodically uploaded by an agent."""

    table = "job_logs"
    indexes = ("job_id",)

    id: str
    job_id: str
    sequence: int
    content: str = ""
    timestamp: float = 0.0


#: every entity, in the order their tables are created
ENTITIES = tuple(Entity.__subclasses__())
