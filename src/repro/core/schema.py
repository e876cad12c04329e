"""The tables of the Chronos Control metadata store: the entities' own schemas.

The installation script of the original Chronos creates the MySQL schema;
:func:`create_all_tables` plays that role against the embedded store.
"""

from __future__ import annotations

from repro.core.entities import ENTITIES
from repro.storage.database import Database

ALL_TABLES = [entity.schema for entity in ENTITIES]


def create_all_tables(database: Database) -> None:
    """Create every Chronos Control table on ``database`` (idempotent)."""
    for schema in ALL_TABLES:
        database.ensure_table(schema)
