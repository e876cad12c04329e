"""Table schema definitions for the embedded relational store."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any

from repro.errors import StorageError, ValidationError


class ColumnType(Enum):
    """Supported column types.

    ``JSON`` columns accept any JSON-serialisable value and are used for the
    parameter dictionaries and result documents Chronos stores verbatim.
    """

    STRING = "string"
    INTEGER = "integer"
    FLOAT = "float"
    BOOLEAN = "boolean"
    JSON = "json"

    def validate(self, value: Any) -> Any:
        """Validate (and lightly coerce) ``value`` for this column type."""
        if value is None:
            return None
        if self is ColumnType.STRING:
            if not isinstance(value, str):
                raise ValidationError(f"expected string, got {type(value).__name__}")
            return value
        if self is ColumnType.INTEGER:
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValidationError(f"expected integer, got {value!r}")
            return value
        if self is ColumnType.FLOAT:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValidationError(f"expected float, got {value!r}")
            return float(value)
        if self is ColumnType.BOOLEAN:
            if not isinstance(value, bool):
                raise ValidationError(f"expected boolean, got {value!r}")
            return value
        # JSON accepts anything composed of plain containers and scalars; the
        # store keeps its own copy, taken in the walk that checks the value.
        return copy_json(value)


def copy_json(value: Any) -> Any:
    """A copy of the JSON value ``value`` sharing no container with it.

    Raises :class:`~repro.errors.ValidationError` for anything that is not
    composed of dicts with string keys, lists and scalars.
    """
    if isinstance(value, dict):
        copied = {}
        for key, item in value.items():
            if not isinstance(key, str):
                raise ValidationError(f"JSON object keys must be strings, got {key!r}")
            copied[key] = copy_json(item)
        return copied
    if isinstance(value, list):
        return [copy_json(item) for item in value]
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    raise ValidationError(f"value {value!r} is not JSON-serialisable")


@dataclass(frozen=True)
class Column:
    """A single typed column.

    Attributes:
        name: column name.
        type: the :class:`ColumnType`.
        nullable: whether NULL values are accepted.
        default: value used when the column is omitted on insert.
    """

    name: str
    type: ColumnType
    nullable: bool = True
    default: Any = None


@dataclass
class TableSchema:
    """Schema of one table: columns, primary key and secondary indexes.

    An entry of ``indexes`` is a column name (an equality index) or a tuple of
    column names (an ordered index over those columns, see
    :class:`~repro.storage.index.OrderedIndex`).
    """

    name: str
    columns: list[Column]
    primary_key: str
    unique: list[str] = field(default_factory=list)
    indexes: list[str | tuple[str, ...]] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._by_name = known = {column.name: column for column in self.columns}
        if len(known) != len(self.columns):
            raise StorageError(f"table {self.name!r} has duplicate column names")
        if self.primary_key not in known:
            raise StorageError(
                f"primary key {self.primary_key!r} is not a column of {self.name!r}"
            )
        for entry in list(self.unique) + list(self.indexes):
            for col in entry if isinstance(entry, tuple) else (entry,):
                if col not in known:
                    raise StorageError(
                        f"indexed column {col!r} is not a column of {self.name!r}"
                    )
                if isinstance(entry, tuple) and known[col].type is ColumnType.JSON:
                    raise StorageError(
                        f"JSON column {col!r} of {self.name!r} has no order to index"
                    )
        #: the only columns whose values are mutable, i.e. need copying
        self.json_columns = tuple(column.name for column in self.columns
                                  if column.type is ColumnType.JSON)

    def column(self, name: str) -> Column:
        try:
            return self._by_name[name]
        except KeyError:
            raise StorageError(f"table {self.name!r} has no column {name!r}") from None

    def normalise_row(self, row: dict[str, Any]) -> dict[str, Any]:
        """Validate a row against the schema and fill in defaults.

        Unknown columns are rejected; missing non-nullable columns without a
        default raise :class:`~repro.errors.StorageError`.  JSON values
        (defaults included) are copied, so the result shares nothing mutable
        with ``row`` or with the schema.
        """
        self._reject_unknown(row)
        return {
            column.name: self._normalise(
                column, row[column.name] if column.name in row else column.default)
            for column in self.columns
        }

    def normalise_changes(self, changes: dict[str, Any]) -> dict[str, Any]:
        """:meth:`normalise_row` for the columns an update names, only."""
        self._reject_unknown(changes)
        return {name: self._normalise(self._by_name[name], value)
                for name, value in changes.items()}

    def _reject_unknown(self, row: dict[str, Any]) -> None:
        unknown = row.keys() - self._by_name.keys()
        if unknown:
            raise StorageError(
                f"unknown column(s) {sorted(unknown)!r} for table {self.name!r}"
            )

    def _normalise(self, column: Column, value: Any) -> Any:
        if value is None:
            if not column.nullable and column.name != self.primary_key:
                raise StorageError(
                    f"column {column.name!r} of {self.name!r} may not be NULL"
                )
            return None
        try:
            return column.type.validate(value)
        except ValidationError as exc:
            raise StorageError(
                f"invalid value for {self.name}.{column.name}: {exc}"
            ) from exc
