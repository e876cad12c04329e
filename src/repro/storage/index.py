"""Secondary index structures for the embedded relational store."""

from __future__ import annotations

import bisect
from typing import Any, Iterator, KeysView

from repro.errors import ConflictError


class HashIndex:
    """Equality index mapping a column value to the keys of its rows.

    A bucket keeps its row keys in insertion order, so what an index lookup
    returns does not depend on the process's string hashing.
    """

    def __init__(self, column: str, unique: bool = False):
        self.column = column
        self.unique = unique
        self._entries: dict[Any, dict[Any, None]] = {}

    def insert(self, value: Any, row_key: Any) -> None:
        """Register ``row_key`` under ``value``.

        Raises :class:`~repro.errors.ConflictError` when a unique constraint
        would be violated.
        """
        bucket = self._entries.setdefault(_hashable(value), {})
        if self.unique and value is not None and bucket and row_key not in bucket:
            raise ConflictError(
                f"duplicate value {value!r} for unique column {self.column!r}"
            )
        bucket[row_key] = None

    def remove(self, value: Any, row_key: Any) -> None:
        key = _hashable(value)
        bucket = self._entries.get(key)
        if not bucket:
            return
        bucket.pop(row_key, None)
        if not bucket:
            del self._entries[key]

    def lookup(self, value: Any) -> KeysView[Any]:
        """The row keys stored under ``value`` (possibly none): a live,
        set-like view -- take a copy before changing the index under it."""
        return self._entries.get(_hashable(value), _EMPTY).keys()

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._entries.values())


class OrderedIndex:
    """Sorted index over one or more columns.

    Entries are ``(sort_key(value), ..., sort_key(row_key))`` tuples in one
    sorted list, so the rows whose leading columns equal a prefix are one
    contiguous slice found with two bisects.  Within it they lie in the order
    of the remaining columns, then of the row key.  NULL is a value like any
    other (it sorts first), as in the hash index.
    """

    def __init__(self, columns: tuple[str, ...]):
        self.columns = columns
        self._entries: list[tuple] = []

    def insert(self, values: tuple, row_key: Any) -> None:
        bisect.insort(self._entries, _entry(values, row_key))

    def remove(self, values: tuple, row_key: Any) -> None:
        entry = _entry(values, row_key)
        index = bisect.bisect_left(self._entries, entry)
        if index < len(self._entries) and self._entries[index] == entry:
            del self._entries[index]

    def walk(self, prefix: tuple = ()) -> Iterator[Any]:
        """Yield, in index order, the keys of the rows whose leading columns
        equal ``prefix``.  Lazy: whoever stops early pays for what it took."""
        low, high = self._bounds(prefix)
        entries = self._entries
        for position in range(low, high):
            yield entries[position][-1][1]

    def count(self, prefix: tuple = ()) -> int:
        """Number of rows whose leading columns equal ``prefix``."""
        low, high = self._bounds(prefix)
        return high - low

    def _bounds(self, prefix: tuple) -> tuple[int, int]:
        if not prefix:
            return 0, len(self._entries)
        bound = tuple(sort_key(value) for value in prefix)
        return (bisect.bisect_left(self._entries, bound),
                bisect.bisect_left(self._entries, bound + (_AFTER,)))

    def __len__(self) -> int:
        return len(self._entries)


_EMPTY: dict[Any, None] = {}


def _hashable(value: Any) -> Any:
    """Convert un-hashable JSON values into a hashable surrogate."""
    if isinstance(value, (list, tuple)):
        return tuple(_hashable(item) for item in value)
    if isinstance(value, dict):
        return tuple(sorted((key, _hashable(item)) for key, item in value.items()))
    return value


def sort_key(value: Any) -> tuple:
    """Total order over heterogeneous, possibly-NULL column values.

    The second element is the value itself for everything a primary key can
    sensibly be, which is how :meth:`OrderedIndex.walk` gets the row key back.
    """
    if value is None:
        return (0, "")
    if isinstance(value, bool):
        return (1, int(value))
    if isinstance(value, (int, float)):
        return (2, value)
    return (3, str(value))


#: Sorts after every ``sort_key``: closes the slice of a prefix.
_AFTER = (4,)


def _entry(values: tuple, row_key: Any) -> tuple:
    return tuple(sort_key(value) for value in values) + (sort_key(row_key),)
