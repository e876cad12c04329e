"""The table shape the storage tests build their tables from, and the
comparisons they select with beyond the ones Chronos issues (``eq``,
``in_``)."""

from __future__ import annotations

from typing import Any

from repro.storage.query import Comparison
from repro.storage.schema import Column, ColumnType, TableSchema


def ne(column: str, value: Any) -> Comparison:
    return Comparison(column, "ne", value)


def gt(column: str, value: Any) -> Comparison:
    return Comparison(column, "gt", value)


def gte(column: str, value: Any) -> Comparison:
    return Comparison(column, "gte", value)


def lt(column: str, value: Any) -> Comparison:
    return Comparison(column, "lt", value)


def lte(column: str, value: Any) -> Comparison:
    return Comparison(column, "lte", value)


def simple_schema(
    name: str,
    primary_key: str = "id",
    string_columns: list[str] | None = None,
    json_columns: list[str] | None = None,
    indexes: list[str] | None = None,
    unique: list[str] | None = None,
) -> TableSchema:
    """A string id, then string and JSON payload columns."""
    columns = [Column(primary_key, ColumnType.STRING, nullable=False)]
    columns += [Column(column, ColumnType.STRING) for column in string_columns or []]
    columns += [Column(column, ColumnType.JSON) for column in json_columns or []]
    return TableSchema(name=name, columns=columns, primary_key=primary_key,
                       indexes=indexes or [], unique=unique or [])
