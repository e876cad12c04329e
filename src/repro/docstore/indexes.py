"""Secondary indexes over document fields.

A :class:`SecondaryIndex` is hash entries -- a dotted field path's value to
the set of record ids carrying it, for equality lookups -- plus a
:class:`~repro.docstore.btree.BTree` keyed by ``(type rank, value)`` over
scalar values, so range predicates become ordered ``tree.range()`` scans
instead of full collection scans.  It is *multikey* like MongoDB's indexes: a
document whose indexed value is an array is additionally indexed under each
element that is not itself an array -- scalars and sub-documents alike --
because the compiled matcher (:func:`repro.docstore.matching.compile_query`)
matches a non-array operand against every element.  An equality lookup thus
finds the documents an equality predicate matches -- except that a bool
inside a sub-document or an array is keyed apart from ``1``, which the
matcher's ``==`` on the whole value does not tell apart.

The collection consults indexes through the query planner and maintains them
on every write; engines charge index-maintenance cost per affected index so
the two storage engines stay comparable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import AbstractSet, Any, Iterator

from repro.docstore.btree import BTree
from repro.docstore.documents import get_path
from repro.docstore.predicates import Interval, ordered_key, scalar_rank
from repro.errors import DuplicateKeyError

_BOOL = object()
_NO_IDS: frozenset[str] = frozenset()


def _hashable(value: Any) -> Any:
    if isinstance(value, bool):
        # ``True == 1 == 1.0`` is one dict key, but a bool matches only a
        # bool (``matching._scalar_equal``) and sorts under its own rank.
        return (_BOOL, value)
    if isinstance(value, list):
        return tuple(_hashable(item) for item in value)
    if isinstance(value, dict):
        return tuple(sorted((key, _hashable(item)) for key, item in value.items()))
    return value


def _index_keys(value: Any) -> dict[Any, Any]:
    """The hash keys one document value is indexed under, each with the value
    it stands for: the whole value and -- multikey, so equality lookups see
    the documents array matching does -- every array element that is not an
    array (an array operand only ever matches the whole value)."""
    keys = {_hashable(value): value}
    if isinstance(value, list):
        for element in value:
            if not isinstance(element, list):
                keys.setdefault(_hashable(element), element)
    return keys


@dataclass
class SecondaryIndex:
    """A multikey hash index plus a B-tree over scalar values for range scans.

    The tree maps ``ordered_key(value)`` (a ``(type rank, value)`` composite,
    so mixed-type collections stay sortable) to the *same* record-id bucket
    the hash entries hold for that value.  Non-scalar values (arrays, sub
    documents) live only in the hash entries: range predicates never match
    them (see ``matching._comparable``), so the tree does not need them.
    """

    field_path: str
    unique: bool = False
    _entries: dict[Any, set[str]] = field(default_factory=dict, repr=False)
    _tree: BTree = field(default_factory=lambda: BTree(order=32), repr=False)
    # Number of live documents whose *whole* indexed value is a scalar (one
    # tree entry per document).  When this equals the collection's document
    # count, an in-order tree walk visits every document exactly once -- the
    # coverage condition under which the aggregation pipeline turns a
    # ``$sort`` on this field into an ordered index walk.
    _ordered_count: int = 0

    def __post_init__(self) -> None:
        # Where tree writes go: the tree, or the writer of an open run.
        self._writes = self._tree

    def open_run(self) -> None:
        """Send this index's tree writes to one writer (:meth:`BTree.writer
        <repro.docstore.btree.BTree.writer>`) until :meth:`publish_run`: a
        run of records copies each tree node once, and readers go on seeing
        the tree as it was.  The caller keeps every other writer of the
        index out until it publishes."""
        self._writes = self._tree.writer()

    def publish_run(self) -> None:
        """Publish the open run's tree, if a run is open; writes go to the
        tree again."""
        if self._writes is not self._tree:
            self._writes.publish()
            self._writes = self._tree

    def add(self, record_id: str, document: dict[str, Any]) -> None:
        found, value = get_path(document, self.field_path)
        if not found:
            return
        self.check_unique(record_id, value)
        # The counter only moves when this call actually adds the record.
        if (scalar_rank(value) is not None
                and record_id not in self._entries.get(_hashable(value), ())):
            self._ordered_count += 1
        for key, element in _index_keys(value).items():
            bucket = self._entries.setdefault(key, set())
            bucket.add(record_id)
            if scalar_rank(element) is not None:
                self._writes.insert(ordered_key(element), bucket)

    def check_unique(self, record_id: str, value: Any) -> None:
        """Raise :class:`DuplicateKeyError` when a unique index could not take
        ``value`` for ``record_id`` -- another record already holds one of
        its keys.  Mutates nothing, so a write can ask before it re-indexes."""
        if not self.unique:
            return
        for key in _index_keys(value):
            bucket = self._entries.get(key)
            if bucket and record_id not in bucket:
                raise DuplicateKeyError(
                    f"duplicate value {value!r} for unique index on "
                    f"{self.field_path!r}"
                )

    def remove(self, record_id: str, document: dict[str, Any]) -> None:
        found, value = get_path(document, self.field_path)
        if not found:
            return
        if (scalar_rank(value) is not None
                and record_id in self._entries.get(_hashable(value), ())):
            self._ordered_count -= 1
        for key, element in _index_keys(value).items():
            bucket = self._entries.get(key)
            if bucket is None:
                continue
            bucket.discard(record_id)
            if not bucket:
                del self._entries[key]
                if scalar_rank(element) is not None:
                    self._writes.delete(ordered_key(element))

    def lookup(self, value: Any) -> AbstractSet[str]:
        """Record ids whose indexed field equals (or array-contains) ``value``:
        the live bucket, not a copy -- read-only, and copied (by one C-level
        ``set`` / ``sorted`` call, which no writer can interleave) before
        it is kept."""
        return self._entries.get(_hashable(value), _NO_IDS)

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._entries.values())

    def ordered_records(self) -> int:
        """Live documents represented by exactly one scalar tree entry."""
        return self._ordered_count

    def iter_ordered(self, visited: list[int] | None = None) -> "Iterator[str]":
        """All record ids in ascending indexed-value order.

        The full-tree analogue of :meth:`iter_range`: one in-order walk over
        every type rank, streaming deduplicated ids in ``(value, record id)``
        order so a limited consumer can stop early.
        """
        seen: set[str] = set()
        # Keys are (rank, value) composites with ranks 0..3; (0,) sorts
        # before every real key and (4,) after, so this covers the tree.
        for __, bucket in self._tree.range((0,), (4,), visited):
            for record_id in sorted(bucket):
                if record_id not in seen:
                    seen.add(record_id)
                    yield record_id

    def iter_range(self, interval: Interval,
                   visited: list[int] | None = None) -> "Iterator[str]":
        """Lazily yield record ids whose indexed value may lie in ``interval``.

        Ids stream in ``(value, record id)`` order -- the index key order --
        and are deduplicated, so a limited consumer can stop after a handful
        of entries without walking the rest of the window.  The stream
        over-approximates for multikey entries; callers re-check candidates
        with the plan's compiled matcher.  ``visited`` (here and in
        :meth:`iter_ordered`) is the cell :meth:`BTree.range
        <repro.docstore.btree.BTree.range>` counts this walk's own node
        visits in -- the lookup cost of a lazy plan.
        """
        rank = interval.rank
        if rank is None:
            return
        low_key = (rank, interval.low) if interval.low is not None else (rank,)
        high_key = (rank, interval.high) if interval.high is not None else (rank + 1,)
        seen: set[str] = set()
        for key, bucket in self._tree.range(low_key, high_key, visited):
            if not interval.contains(key[1]):
                continue
            for record_id in sorted(bucket):
                if record_id not in seen:
                    seen.add(record_id)
                    yield record_id

    def tree_depth(self) -> int:
        return self._tree.depth()


class IndexCatalog:
    """All secondary indexes of one collection."""

    def __init__(self) -> None:
        self._indexes: dict[str, SecondaryIndex] = {}

    def publish(self, index: SecondaryIndex) -> None:
        """Make a fully built index visible to the planner: the run that
        built its tree published, then one reference store, so a latch-free
        reader finds no index or the whole one."""
        index.publish_run()
        self._indexes[index.field_path] = index

    def drop(self, field_path: str) -> bool:
        return self._indexes.pop(field_path, None) is not None

    def get(self, field_path: str) -> SecondaryIndex | None:
        return self._indexes.get(field_path)

    def names(self) -> list[str]:
        return sorted(self._indexes)

    def __len__(self) -> int:
        return len(self._indexes)

    def __iter__(self):
        return iter(self._indexes.values())

    def open_runs(self, *others: SecondaryIndex) -> list[SecondaryIndex]:
        """Open a run (:meth:`SecondaryIndex.open_run`) on every index and on
        ``others``; returns them, for the caller to publish."""
        indexes = [*self._indexes.values(), *others]
        for index in indexes:
            index.open_run()
        return indexes

    def add_document(self, record_id: str, document: dict[str, Any]) -> None:
        for index in self._indexes.values():
            index.add(record_id, document)

    def remove_document(self, record_id: str, document: dict[str, Any]) -> None:
        for index in self._indexes.values():
            index.remove(record_id, document)

    def replace_document(self, record_id: str, old: dict[str, Any],
                         new: dict[str, Any]) -> None:
        """Re-index ``record_id`` from its stored version ``old`` to ``new``.

        An index is left alone when the value at its path is the *same
        object* in both versions (or missing from both): the same object is
        the same value, so removing and re-adding it would rebuild the entry
        it already has.  Identity is all that is compared -- an update builds
        the new version from :func:`~repro.docstore.documents.clone_document`
        of the old one, which shares every scalar it did not touch, and a
        replicated post-image is that very object; equal values that are
        distinct objects (a replacement document, ``1`` -> ``1.0``, any array
        or sub-document, which cloning copies) are removed and added as ever.

        Every unique index that does change is asked first, so a
        :class:`~repro.errors.DuplicateKeyError` leaves all indexes exactly
        as they were.
        """
        changed = []
        for index in self._indexes.values():
            found_old, value_old = get_path(old, index.field_path)
            found_new, value_new = get_path(new, index.field_path)
            if found_old is found_new and value_old is value_new:
                continue
            if found_new:
                index.check_unique(record_id, value_new)
            changed.append(index)
        for index in changed:
            index.remove(record_id, old)
            index.add(record_id, new)
