"""Relational schemas of the Chronos Control metadata store.

The installation script of the original Chronos creates the MySQL schema;
:func:`create_all_tables` plays that role against the embedded store.
"""

from __future__ import annotations

from repro.storage.database import Database
from repro.storage.schema import Column, ColumnType, TableSchema


def _table(name: str, columns: list[Column],
           indexes: list[str | tuple[str, ...]] | None = None,
           unique: list[str] | None = None) -> TableSchema:
    return TableSchema(
        name=name,
        columns=[Column("id", ColumnType.STRING, nullable=False)] + columns,
        primary_key="id",
        indexes=indexes or [],
        unique=unique or [],
    )


USERS = _table(
    "users",
    [
        Column("username", ColumnType.STRING, nullable=False),
        Column("password_hash", ColumnType.STRING, nullable=False),
        Column("role", ColumnType.STRING, nullable=False),
        Column("created_at", ColumnType.FLOAT, default=0.0),
    ],
    unique=["username"],
)

SESSIONS = _table(
    "sessions",
    [
        Column("user_id", ColumnType.STRING, nullable=False),
        Column("token", ColumnType.STRING, nullable=False),
        Column("created_at", ColumnType.FLOAT, default=0.0),
        Column("expires_at", ColumnType.FLOAT, default=0.0),
    ],
    unique=["token"],
    indexes=["user_id"],
)

PROJECTS = _table(
    "projects",
    [
        Column("name", ColumnType.STRING, nullable=False),
        Column("description", ColumnType.STRING, default=""),
        Column("owner_id", ColumnType.STRING, default=""),
        Column("members", ColumnType.JSON, default=[]),
        Column("archived", ColumnType.BOOLEAN, default=False),
        Column("created_at", ColumnType.FLOAT, default=0.0),
    ],
    indexes=["owner_id"],
)

SYSTEMS = _table(
    "systems",
    [
        Column("name", ColumnType.STRING, nullable=False),
        Column("description", ColumnType.STRING, default=""),
        Column("parameters", ColumnType.JSON, default=[]),
        Column("result_config", ColumnType.JSON, default={}),
        Column("owner_id", ColumnType.STRING, default=""),
        Column("created_at", ColumnType.FLOAT, default=0.0),
    ],
    unique=["name"],
)

DEPLOYMENTS = _table(
    "deployments",
    [
        Column("system_id", ColumnType.STRING, nullable=False),
        Column("name", ColumnType.STRING, nullable=False),
        Column("environment", ColumnType.JSON, default={}),
        Column("version", ColumnType.STRING, default=""),
        Column("active", ColumnType.BOOLEAN, default=True),
        Column("created_at", ColumnType.FLOAT, default=0.0),
    ],
    indexes=["system_id"],
)

EXPERIMENTS = _table(
    "experiments",
    [
        Column("project_id", ColumnType.STRING, nullable=False),
        Column("system_id", ColumnType.STRING, nullable=False),
        Column("name", ColumnType.STRING, nullable=False),
        Column("description", ColumnType.STRING, default=""),
        Column("parameters", ColumnType.JSON, default={}),
        Column("archived", ColumnType.BOOLEAN, default=False),
        Column("created_at", ColumnType.FLOAT, default=0.0),
    ],
    indexes=["project_id", "system_id"],
)

EVALUATIONS = _table(
    "evaluations",
    [
        Column("experiment_id", ColumnType.STRING, nullable=False),
        Column("name", ColumnType.STRING, nullable=False),
        Column("status", ColumnType.STRING, nullable=False),
        Column("deployment_ids", ColumnType.JSON, default=[]),
        Column("created_at", ColumnType.FLOAT, default=0.0),
        Column("finished_at", ColumnType.FLOAT),
    ],
    indexes=["experiment_id", "status"],
)

JOBS = _table(
    "jobs",
    [
        Column("evaluation_id", ColumnType.STRING, nullable=False),
        Column("system_id", ColumnType.STRING, nullable=False),
        Column("parameters", ColumnType.JSON, default={}),
        Column("status", ColumnType.STRING, nullable=False),
        Column("deployment_id", ColumnType.STRING),
        Column("progress", ColumnType.INTEGER, default=0),
        Column("attempts", ColumnType.INTEGER, default=0),
        Column("max_attempts", ColumnType.INTEGER, default=3),
        Column("error", ColumnType.STRING),
        Column("created_at", ColumnType.FLOAT, default=0.0),
        Column("started_at", ColumnType.FLOAT),
        Column("finished_at", ColumnType.FLOAT),
        Column("last_heartbeat", ColumnType.FLOAT),
    ],
    # The ordered indexes are the scheduler's queue (the oldest scheduled job
    # of a system is the first entry under ``(system, "scheduled")``) and the
    # per-status job counts an evaluation's status derives from.
    indexes=["evaluation_id", "status", "system_id", "deployment_id",
             ("system_id", "status", "created_at"), ("evaluation_id", "status")],
)

RESULTS = _table(
    "results",
    [
        Column("job_id", ColumnType.STRING, nullable=False),
        Column("data", ColumnType.JSON, default={}),
        Column("metrics", ColumnType.JSON, default={}),
        Column("archive_path", ColumnType.STRING),
        Column("uploaded_at", ColumnType.FLOAT, default=0.0),
    ],
    indexes=["job_id"],
)

EVENTS = _table(
    "events",
    [
        Column("entity_type", ColumnType.STRING, nullable=False),
        Column("entity_id", ColumnType.STRING, nullable=False),
        Column("event_type", ColumnType.STRING, nullable=False),
        Column("message", ColumnType.STRING, default=""),
        Column("timestamp", ColumnType.FLOAT, default=0.0),
    ],
    indexes=["entity_id", "entity_type"],
)

JOB_LOGS = _table(
    "job_logs",
    [
        Column("job_id", ColumnType.STRING, nullable=False),
        Column("sequence", ColumnType.INTEGER, nullable=False),
        Column("content", ColumnType.STRING, default=""),
        Column("timestamp", ColumnType.FLOAT, default=0.0),
    ],
    indexes=["job_id"],
)

ALL_TABLES = [
    USERS,
    SESSIONS,
    PROJECTS,
    SYSTEMS,
    DEPLOYMENTS,
    EXPERIMENTS,
    EVALUATIONS,
    JOBS,
    RESULTS,
    EVENTS,
    JOB_LOGS,
]


def create_all_tables(database: Database) -> None:
    """Create every Chronos Control table on ``database`` (idempotent)."""
    for schema in ALL_TABLES:
        database.ensure_table(schema)
