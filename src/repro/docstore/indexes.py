"""Secondary indexes over document fields.

A :class:`SecondaryIndex` is hash entries -- a dotted field path's value,
by its :func:`~repro.docstore.values.key`, to the bucket of record ids
carrying it (a 1-tuple while it holds one id, a set from the second on), for
equality lookups -- plus a :class:`~repro.docstore.btree.BTree`
keyed by :func:`~repro.docstore.values.order` over scalar values, so range
predicates become ordered ``tree.range()`` scans instead of full collection
scans.  It is *multikey* like MongoDB's indexes: a document whose indexed
value is an array is additionally indexed under each element that is not
itself an array -- scalars and sub-documents alike -- because the compiled
matcher (:func:`repro.docstore.matching.compile_query`) matches a non-array
operand against every element.  The matcher compares keys too, so an
equality lookup finds exactly the documents an equality predicate matches.

The collection consults indexes through the query planner and maintains them
on every write; engines charge index-maintenance cost per affected index so
the two storage engines stay comparable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Collection, Iterator

from repro.docstore.btree import BTree
from repro.docstore.documents import get_path
from repro.docstore.predicates import Interval
from repro.docstore.values import RANK_NONE, RANK_STRING, key, order
from repro.errors import DuplicateKeyError

_NO_IDS: frozenset[str] = frozenset()
#: What the tree does not hold: a value of these types is no scalar.
_CONTAINERS = (list, dict)


def _index_keys(value: Any) -> dict[Any, Any]:
    """The hash keys one document value is indexed under, each with the value
    it stands for: the whole value and -- multikey, so equality lookups see
    the documents array matching does -- every array element that is not an
    array (an array operand only ever matches the whole value)."""
    keys = {key(value): value}
    if type(value) is list:
        for element in value:
            if type(element) is not list:
                keys.setdefault(key(element), element)
    return keys


@dataclass
class SecondaryIndex:
    """A multikey hash index plus a B-tree over scalar values for range scans.

    The tree maps ``order(value)`` (a ``(rank, value)`` composite, so
    mixed-type collections stay sortable) to the *same* record-id bucket the
    hash entries hold for that value.  Non-scalar values (arrays, sub
    documents) live only in the hash entries: range predicates never match
    them (a range ranges over bools, numbers or strings), so the tree does
    not need them.

    A bucket that holds one id is the immutable 1-tuple ``(record_id,)``
    (48 bytes against a set's 216: most buckets of an ``_id`` or a unique
    index never hold a second); the ``add`` of a second id replaces it with
    a set, in the hash entries and the tree alike.  Every reader only
    iterates a bucket, tests membership or takes its length.
    """

    field_path: str
    unique: bool = False
    _entries: dict[Any, tuple[str] | set[str]] = field(default_factory=dict,
                                                       repr=False)
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
        if (type(value) not in _CONTAINERS
                and record_id not in self._entries.get(key(value), ())):
            self._ordered_count += 1
        for value_key, element in _index_keys(value).items():
            bucket = self._entries.get(value_key, ())
            if record_id not in bucket:
                if type(bucket) is set:
                    bucket.add(record_id)
                else:  # none yet, made a 1-tuple; or a 1-tuple, promoted
                    bucket = self._entries[value_key] = (
                        {*bucket, record_id} if bucket else (record_id,))
            # The tree is written on every call, new bucket or not: an
            # overwrite can split a full node on its way down, so skipping it
            # moves the simulated ticks (766.5M -> 765.0M on one shard of
            # test_read_merge's replicated range read).  For the same reason
            # a set is never demoted to a 1-tuple: ``remove`` would need a
            # tree write to store it, where it now writes none.
            if type(element) not in _CONTAINERS:
                self._writes.insert(order(element), bucket)

    def check_unique(self, record_id: str, value: Any) -> None:
        """Raise :class:`DuplicateKeyError` when a unique index could not take
        ``value`` for ``record_id`` -- another record already holds one of
        its keys.  Mutates nothing, so a write can ask before it re-indexes."""
        if not self.unique:
            return
        for value_key in _index_keys(value):
            bucket = self._entries.get(value_key)
            if bucket and record_id not in bucket:
                raise DuplicateKeyError(
                    f"duplicate value {value!r} for unique index on "
                    f"{self.field_path!r}"
                )

    def remove(self, record_id: str, document: dict[str, Any]) -> None:
        found, value = get_path(document, self.field_path)
        if not found:
            return
        if (type(value) not in _CONTAINERS
                and record_id in self._entries.get(key(value), ())):
            self._ordered_count -= 1
        for value_key, element in _index_keys(value).items():
            bucket = self._entries.get(value_key, ())
            if record_id not in bucket:
                continue
            if len(bucket) == 1:
                del self._entries[value_key]
                if type(element) not in _CONTAINERS:
                    self._writes.delete(order(element))
            else:
                bucket.discard(record_id)

    def lookup(self, value: Any) -> Collection[str]:
        """Record ids whose indexed field equals (or array-contains) ``value``:
        a 1-tuple or the live set, not a copy -- read-only, and copied (by
        one C-level ``set`` / ``sorted`` call, which no writer can
        interleave) before it is kept."""
        return self._entries.get(key(value), _NO_IDS)

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
        # Keys are (rank, value) composites of the scalar ranks: (RANK_NONE,)
        # sorts before every real key and (RANK_STRING + 1,) after.
        for __, bucket in self._tree.range((RANK_NONE,), (RANK_STRING + 1,),
                                           visited):
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
        low, high = interval.low, interval.high
        low_key = order(low) if low is not None else (rank,)
        high_key = order(high) if high is not None else (rank + 1,)
        seen: set[str] = set()
        for tree_key, bucket in self._tree.range(low_key, high_key, visited):
            if ((tree_key == low_key and not interval.low_inclusive)
                    or (tree_key == high_key and not interval.high_inclusive)):
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
