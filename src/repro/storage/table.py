"""Heap table with primary key and secondary indexes."""

from __future__ import annotations

from itertools import islice
from typing import Any, Collection, Iterable, Iterator

from repro.errors import ConflictError, NotFoundError, StorageError
from repro.storage.index import HashIndex, OrderedIndex, sort_key
from repro.storage.query import Predicate, equality_columns
from repro.storage.schema import TableSchema, copy_json


class Table:
    """A single table: rows keyed by primary key, with index maintenance.

    Rows are stored as plain dictionaries that nothing outside the store ever
    holds.  A write copies the JSON values it is given (in the walk that
    validates them) and replaces a stored row rather than changing it; it
    returns the stored rows, which only the database's journal keeps (to log
    them and to :meth:`restore` them) and which leave the store through
    :meth:`copy_out`.  A read hands out a new dictionary whose JSON values are
    copies.  Every other column type is an immutable scalar, so callers can
    corrupt the store neither through what they passed in nor through what
    they got back.

    :meth:`select` plans before it copies: the primary key, else the ordered
    index with the longest run of leading columns bound by equality terms,
    else the smallest bucket among the hash indexes on such terms, else every
    row.  With ``order_by`` rows come sorted by that column, then by primary
    key, whichever path served them; an ordered index whose last column it is,
    all others bound, yields this order by itself, and then ``limit`` ends the
    walk.
    """

    def __init__(self, schema: TableSchema):
        self.schema = schema
        self._rows: dict[Any, dict[str, Any]] = {}
        self._hash_indexes: dict[str, HashIndex] = {}
        self._ordered_indexes: list[OrderedIndex] = []
        for column in schema.unique:
            if column != schema.primary_key:
                self._hash_indexes[column] = HashIndex(column, unique=True)
        for entry in schema.indexes:
            if isinstance(entry, tuple):
                self._ordered_indexes.append(OrderedIndex(entry))
            elif entry not in self._hash_indexes and entry != schema.primary_key:
                self._hash_indexes[entry] = HashIndex(entry, unique=False)

    # -- basic properties -------------------------------------------------

    @property
    def name(self) -> str:
        return self.schema.name

    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, key: Any) -> bool:
        return key in self._rows

    # -- mutation ---------------------------------------------------------

    def insert(self, row: dict[str, Any]) -> dict[str, Any]:
        """Insert a row; returns the row as stored (normalised)."""
        normalised = self.schema.normalise_row(row)
        key = normalised.get(self.schema.primary_key)
        if key is None:
            raise StorageError(
                f"insert into {self.name!r} is missing primary key "
                f"{self.schema.primary_key!r}"
            )
        if key in self._rows:
            raise ConflictError(f"duplicate primary key {key!r} in table {self.name!r}")
        self._check_unique(normalised, normalised.keys(), exclude_key=None)
        self._rows[key] = normalised
        self._reindex(key, None, normalised)
        return normalised

    def get(self, key: Any) -> dict[str, Any]:
        """Return the row with primary key ``key`` or raise ``NotFoundError``."""
        row = self._rows.get(key)
        if row is None:
            raise NotFoundError(f"no row with key {key!r} in table {self.name!r}")
        return self.copy_out(row)

    def get_or_none(self, key: Any) -> dict[str, Any] | None:
        """Return the row with primary key ``key`` or ``None``."""
        row = self._rows.get(key)
        return self.copy_out(row) if row is not None else None

    def update(self, key: Any,
               changes: dict[str, Any]) -> tuple[dict[str, Any], dict[str, Any]]:
        """Apply ``changes`` to the row with primary key ``key``; returns the
        stored row it replaced and the one it stored."""
        current = self._rows.get(key)
        if current is None:
            raise NotFoundError(f"no row with key {key!r} in table {self.name!r}")
        if self.schema.primary_key in changes and changes[self.schema.primary_key] != key:
            raise StorageError("primary key columns cannot be updated")
        normalised = self.schema.normalise_changes(changes)
        changed = {column for column, value in normalised.items()
                   if current[column] != value}
        merged = {**current, **normalised}
        self._check_unique(merged, changed, exclude_key=key)
        self._rows[key] = merged
        self._reindex(key, current, merged, changed)
        return current, merged

    def delete(self, key: Any) -> dict[str, Any]:
        """Remove the row with primary key ``key``; returns it as stored."""
        row = self._rows.pop(key, None)
        if row is None:
            raise NotFoundError(f"no row with key {key!r} in table {self.name!r}")
        self._reindex(key, row, None)
        return row

    def restore(self, key: Any, row: dict[str, Any] | None) -> None:
        """Make the stored ``row`` (``None``: no row) ``key``'s row again, as
        it was before a write replaced it; the undo of that write."""
        current = self._rows.pop(key, None)
        if row is not None:
            self._rows[key] = row
        self._reindex(key, current, row)

    # -- queries ----------------------------------------------------------

    def select(
        self,
        predicate: Predicate | None = None,
        order_by: str | None = None,
        descending: bool = False,
        limit: int | None = None,
    ) -> list[dict[str, Any]]:
        """Return rows matching ``predicate`` (all rows when ``None``)."""
        rows, ordered = self._candidate_rows(predicate, None if descending else order_by)
        if predicate is not None:
            rows = filter(predicate.matches, rows)
        if order_by is not None and not ordered:
            primary_key = self.schema.primary_key
            rows = sorted(
                rows,
                key=lambda row: (sort_key(row.get(order_by)), sort_key(row[primary_key])),
                reverse=descending,
            )
        if limit is not None:
            rows = islice(rows, limit)
        return [self.copy_out(row) for row in rows]

    def count(self, predicate: Predicate | None = None) -> int:
        """Return the number of rows matching ``predicate``.

        Equality terms that are the whole predicate and exactly the leading
        columns of an ordered index, or one hash-indexed column, are counted
        in the index; no row is looked at.
        """
        if predicate is None:
            return len(self._rows)
        equalities, exact = equality_columns(predicate)
        if exact and equalities:
            index, bound = self._ordered_index_for(equalities)
            if bound == len(equalities):
                return index.count(tuple(equalities[column]
                                         for column in index.columns[:bound]))
            if len(equalities) == 1:
                (column, value), = equalities.items()
                if column in self._hash_indexes:
                    return len(self._hash_indexes[column].lookup(value))
        return sum(1 for _ in filter(predicate.matches, self._candidate_rows(predicate)[0]))

    def all_rows(self) -> Iterator[dict[str, Any]]:
        """Iterate over copies of every row (used by snapshots)."""
        return map(self.copy_out, self._rows.values())

    def copy_out(self, row: dict[str, Any]) -> dict[str, Any]:
        """What leaves the table instead of the stored ``row``."""
        copied = dict(row)
        for column in self.schema.json_columns:
            copied[column] = copy_json(copied[column])
        return copied

    # -- internals ---------------------------------------------------------

    def _candidate_rows(
        self, predicate: Predicate | None, order_by: str | None = None
    ) -> tuple[Iterable[dict[str, Any]], bool]:
        """The stored rows an index narrows ``predicate`` down to (lazily),
        and whether they come ordered by ``order_by``, then primary key."""
        equalities, _ = equality_columns(predicate)
        if self.schema.primary_key in equalities:
            row = self._rows.get(equalities[self.schema.primary_key])
            return ([row] if row is not None else []), True
        index, bound = self._ordered_index_for(equalities)
        if index is not None:
            columns = index.columns
            keys = index.walk(tuple(equalities[column] for column in columns[:bound]))
            # all but the last column bound: what is left is (last column, key)
            return (map(self._rows.__getitem__, keys),
                    bound == len(columns) - 1 and columns[bound] == order_by)
        buckets = [self._hash_indexes[column].lookup(value)
                   for column, value in equalities.items()
                   if column in self._hash_indexes]
        if buckets:
            return map(self._rows.__getitem__, min(buckets, key=len)), False
        return self._rows.values(), False

    def _ordered_index_for(
        self, equalities: dict[str, Any]
    ) -> tuple[OrderedIndex | None, int]:
        """The ordered index with the most leading columns among
        ``equalities``, and how many those are (``None, 0``: no index has one)."""
        best, bound = None, 0
        for index in self._ordered_indexes:
            leading = 0
            for column in index.columns:
                if column not in equalities:
                    break
                leading += 1
            if leading > bound:
                best, bound = index, leading
        return best, bound

    def _check_unique(self, row: dict[str, Any], columns: Collection[str],
                      exclude_key: Any) -> None:
        """No other row may hold ``row``'s value of a unique one of ``columns``."""
        for column, index in self._hash_indexes.items():
            value = row[column]
            if index.unique and column in columns and value is not None \
                    and index.lookup(value) - {exclude_key}:
                raise ConflictError(
                    f"duplicate value {value!r} for unique column "
                    f"{column!r} in table {self.name!r}"
                )

    def _reindex(self, key: Any, old: dict[str, Any] | None,
                 new: dict[str, Any] | None, columns: set[str] | None = None) -> None:
        """Move ``key``'s index entries from row ``old`` to row ``new`` (``None``:
        no such row); given ``columns``, only in the indexes over one of them."""
        for column, index in self._hash_indexes.items():
            if columns is None or column in columns:
                if old is not None:
                    index.remove(old[column], key)
                if new is not None:
                    index.insert(new[column], key)
        for index in self._ordered_indexes:
            if columns is None or not columns.isdisjoint(index.columns):
                if old is not None:
                    index.remove(tuple(old[column] for column in index.columns), key)
                if new is not None:
                    index.insert(tuple(new[column] for column in index.columns), key)
