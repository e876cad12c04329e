"""Typed repositories over the embedded relational store.

A repository is one entity class seen through one database: the class names
its table, converts its rows and gives a missing one its name.
"""

from __future__ import annotations

from typing import Any, Generic, TypeVar

from repro.core.entities import Entity
from repro.errors import NotFoundError
from repro.storage.database import Database
from repro.storage.query import Predicate

EntityT = TypeVar("EntityT", bound=Entity)


class Repository(Generic[EntityT]):
    """CRUD access to the table of ``entity``, rows converted to its instances."""

    def __init__(self, database: Database, entity: type[EntityT]):
        self._database = database
        self._entity = entity
        self._table = entity.table
        self._from_row = entity.from_row

    def add(self, entity: EntityT) -> EntityT:
        """Insert ``entity`` and return it."""
        self._database.insert(self._table, entity.to_row())
        return entity

    def get(self, entity_id: str) -> EntityT:
        """Return the entity with ``entity_id`` or raise ``NotFoundError``."""
        row = self._database.get_or_none(self._table, entity_id)
        if row is None:
            raise self._missing(entity_id)
        return self._from_row(row)

    def get_or_none(self, entity_id: str) -> EntityT | None:
        row = self._database.get_or_none(self._table, entity_id)
        return self._from_row(row) if row is not None else None

    def update(self, entity_id: str, changes: dict[str, Any]) -> EntityT:
        """Apply column-level ``changes`` and return the updated entity."""
        try:
            row = self._database.update(self._table, entity_id, changes)
        except NotFoundError:
            raise self._missing(entity_id) from None
        return self._from_row(row)

    def delete(self, entity_id: str) -> None:
        try:
            self._database.delete(self._table, entity_id)
        except NotFoundError:
            raise self._missing(entity_id) from None

    def find(self, predicate: Predicate | None = None, order_by: str | None = None,
             descending: bool = False, limit: int | None = None) -> list[EntityT]:
        rows = self._database.select(
            self._table, predicate, order_by=order_by, descending=descending, limit=limit
        )
        return [self._from_row(row) for row in rows]

    def find_one(self, predicate: Predicate) -> EntityT | None:
        rows = self._database.select(self._table, predicate, limit=1)
        return self._from_row(rows[0]) if rows else None

    def count(self, predicate: Predicate | None = None) -> int:
        return self._database.count(self._table, predicate)

    def _missing(self, entity_id: str) -> NotFoundError:
        return NotFoundError(f"{self._entity.noun} {entity_id!r} does not exist")
