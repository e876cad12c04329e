"""Typed repositories over the embedded relational store.

Each repository maps one entity dataclass onto one table, hiding the
row-conversion boilerplate from the service layer.
"""

from __future__ import annotations

from typing import Any, Callable, Generic, TypeVar

from repro.errors import NotFoundError
from repro.storage.database import Database
from repro.storage.query import Predicate

EntityT = TypeVar("EntityT")


class Repository(Generic[EntityT]):
    """CRUD access to one table, converting rows to entity dataclasses."""

    def __init__(
        self,
        database: Database,
        table: str,
        from_row: Callable[[dict[str, Any]], EntityT],
        to_row: Callable[[EntityT], dict[str, Any]],
        entity_name: str,
    ):
        self._database = database
        self._table = table
        self._from_row = from_row
        self._to_row = to_row
        self._entity_name = entity_name

    def add(self, entity: EntityT) -> EntityT:
        """Insert ``entity`` and return it."""
        self._database.insert(self._table, self._to_row(entity))
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
        matches = self.find(predicate, limit=1)
        return matches[0] if matches else None

    def count(self, predicate: Predicate | None = None) -> int:
        return self._database.count(self._table, predicate)

    def _missing(self, entity_id: str) -> NotFoundError:
        return NotFoundError(f"{self._entity_name} {entity_id!r} does not exist")
