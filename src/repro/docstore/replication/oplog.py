"""The replication oplog: an append-only, idempotently replayable change log.

The primary of a :class:`~repro.docstore.replication.replica_set.ReplicaSet`
records every document change as an :class:`OplogEntry`; secondaries tail the
log and replay entries onto their own :class:`~repro.docstore.server.DocumentServer`.

Two properties make the design safe to replay at any point of a secondary's
life, which is what makes lag, catch-up, restart-resync and rollback simple:

* **Monotonic optimes.**  Every entry carries an :class:`OpTime`
  ``(term, index)``.  The term bumps on every election, so entries written by
  a new primary always order after everything the old primary wrote -- even
  after a rollback truncated the tail of the log.
* **Idempotent entries.**  CRUD entries store the *effect*, not the command:
  every document write is logged as ``(record_id, post_image, size)``
  records -- the primary's frozen stored document and its stored size, or
  ``None`` and 0 for a delete -- whatever its kind, and a member applies a
  run of them as "``record_id`` holds exactly this document" or "``record_id``
  is gone" (:meth:`Collection.apply_post_images`: the member stores that
  very object, it does not run the write again).  Re-applying an entry (or
  a whole batch, in order) leaves the data unchanged, so a secondary that
  replays overlapping windows converges to the same state.  A post-image
  for a document the member already holds is stored in place, preserving
  the engine's insertion order so a promoted secondary scans documents in
  the same order its old primary did.

DDL changes (index create/drop, collection/database drops) are logged too so
that a full replay from an empty server reconstructs a member exactly.
"""

from __future__ import annotations

import bisect
import threading
from dataclasses import dataclass, field
from operator import attrgetter
from typing import TYPE_CHECKING, Any, Iterator, NamedTuple, Sequence

from repro.errors import DocumentStoreError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.docstore.server import DocumentServer

OP_INSERT = "insert"
OP_UPDATE = "update"
OP_DELETE = "delete"
OP_CREATE_INDEX = "create_index"
OP_DROP_INDEX = "drop_index"
OP_DROP_COLLECTION = "drop_collection"
OP_DROP_DATABASE = "drop_database"

_DOCUMENT_OPS = (OP_INSERT, OP_UPDATE, OP_DELETE)
#: The one record of an entry that carries no document: DDL.
_NO_RECORD = ((None, None, 0),)


class OpTime(NamedTuple):
    """A replication timestamp: election term plus log position (ordered as
    the tuple it is -- the term dominates)."""

    term: int = 0
    index: int = 0

    def as_list(self) -> list[int]:
        """JSON-friendly ``[term, index]`` form (for statuses and tests)."""
        return [self.term, self.index]


ZERO_OPTIME = OpTime(0, 0)
_ENTRY_OPTIME = attrgetter("optime")


@dataclass(frozen=True)
class OplogEntry:
    """One idempotent change: a document post-image, a delete, or DDL."""

    optime: OpTime
    operation: str
    database: str
    collection: str = ""
    record_id: str | None = None
    document: dict[str, Any] | None = None
    field_path: str | None = None
    unique: bool = False
    size: int = 0  # stored size of ``document`` (0 when there is none)

    def as_dict(self) -> dict[str, Any]:
        return {
            "optime": self.optime.as_list(),
            "operation": self.operation,
            "namespace": f"{self.database}.{self.collection}".rstrip("."),
            "record_id": self.record_id,
        }


@dataclass
class Oplog:
    """The replica set's single authoritative, append-only change log.

    ``truncate_after`` models rollback at failover: entries the new primary
    never applied are removed (and counted by the replica set as lost
    acknowledged writes when the write concern allowed that).
    """

    _entries: list[OplogEntry] = field(default_factory=list)
    _next_index: int = 1

    def __post_init__(self) -> None:
        # Serialises optime allocation + append: two concurrent primary
        # writes interleaving ``_next_index`` reads would mint duplicate
        # optimes, and an entry appended between another's stamp and append
        # would put the log out of optime order -- both break the
        # idempotent-replay guarantee.
        self._append_lock = threading.Lock()

    def append(self, term: int, operation: str, database: str,
               collection: str = "",
               records: Sequence[tuple[str | None, dict[str, Any] | None, int]]
               = _NO_RECORD,
               field_path: str | None = None,
               unique: bool = False) -> list[OplogEntry]:
        """Stamp contiguous optimes onto ``records`` and append one entry
        each, under one lock hold; returns the entries.

        A record is ``(record_id, post_image, size)``: the post-image is a
        canonical stored document from the copy-on-write write boundary -- an
        object that is never mutated in place -- logged by reference with the
        size it is stored at, or ``None`` and 0 for a delete.  A DDL entry is
        the default, one record with neither, plus ``field_path`` /
        ``unique``.
        """
        with self._append_lock:
            index = self._next_index
            if self._entries:
                last = self._entries[-1].optime
                assert (term, index) > last, (
                    f"non-monotonic oplog optime: {OpTime(term, index)} after {last}"
                )
            entries = []
            for record_id, document, size in records:
                if record_id is None and operation in _DOCUMENT_OPS:
                    raise DocumentStoreError(
                        f"oplog {operation} entries need a record_id")
                entries.append(OplogEntry(OpTime(term, index), operation, database,
                                          collection, record_id, document,
                                          field_path, unique, size))
                index += 1
            self._next_index = index
            self._entries.extend(entries)
        return entries

    @property
    def entries(self) -> list[OplogEntry]:
        return self._entries

    def _position_after(self, optime: OpTime) -> int:
        """Index of the first entry ordered after ``optime`` (binary search;
        entry optimes are strictly increasing by construction)."""
        return bisect.bisect_right(self._entries, optime, key=_ENTRY_OPTIME)

    def entries_after(self, optime: OpTime,
                      through: OpTime | None = None) -> list[OplogEntry]:
        """The tail strictly after ``optime`` (clipped at ``through`` when
        given) -- what a secondary replays to catch up."""
        start = self._position_after(optime)
        if through is None:
            return self._entries[start:]
        return self._entries[start:self._position_after(through)]

    def lag_behind(self, optime: OpTime) -> int:
        """How many entries trail ``optime`` -- a member's staleness, O(log n)."""
        return len(self._entries) - self._position_after(optime)

    def truncate_after(self, optime: OpTime) -> list[OplogEntry]:
        """Drop (and return) every entry after ``optime`` -- failover rollback.

        Takes the append lock so a write racing the rollback cannot append to
        the list being replaced and silently vanish.
        """
        with self._append_lock:
            cut = self._position_after(optime)
            removed = self._entries[cut:]
            self._entries = self._entries[:cut]
        return removed

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[OplogEntry]:
        return iter(self._entries)


def apply_ddl(server: "DocumentServer", operation: str, database: str,
              collection: str = "", field_path: str | None = None,
              unique: bool = False) -> bool:
    """Apply one DDL operation to ``server`` unless its effect already holds;
    returns whether it changed anything.  The one guarded statement of each:
    the primary applies its DDL through it and a member replays it with it.
    """
    if operation == OP_DROP_DATABASE:
        return server.drop_database(database)
    # A drop in a namespace this server never saw must stay a no-op:
    # ``server.database()`` creates on access, and a phantom empty namespace
    # would make ``database_names()`` diverge between members.
    if operation == OP_DROP_COLLECTION:
        return (server.has_collection(database, collection)
                and server.database(database).drop_collection(collection))
    if operation == OP_DROP_INDEX:
        return (server.has_collection(database, collection)
                and server.database(database).collection(collection)
                .drop_index(field_path))
    if operation != OP_CREATE_INDEX:
        raise DocumentStoreError(f"unknown oplog operation {operation!r}")
    target = server.database(database).collection(collection)
    if target.indexes.get(field_path) is not None:
        return False
    target.create_index(field_path, unique=unique)
    return True


def apply_entry(server: "DocumentServer", entry: OplogEntry) -> int:
    """Replay one entry onto ``server`` idempotently; returns the cost.

    A document entry is applied as a run of one record
    (:meth:`Collection.apply_post_images`): ``record_id`` holds exactly the
    post-image, or is absent for a delete.  DDL entries are no-ops when their
    effect already holds (:func:`apply_ddl`).
    """
    if entry.operation not in _DOCUMENT_OPS:
        apply_ddl(server, entry.operation, entry.database, entry.collection,
                  entry.field_path, entry.unique)
        return 0
    return (server.database(entry.database).collection(entry.collection)
            .apply_post_images([(entry.record_id, entry.document, entry.size)]))
