"""The unit of work of the embedded relational store.

A :class:`Transaction` is a thread's open unit of work: the undo journal of
the writes made in it and the operations its commit logs.  It has no writes
of its own.  ``Database.insert / update / delete`` are the only row writes;
each one journals itself into the calling thread's open unit of work, or is
a unit of work of its own.  ``Database.transaction()`` opens one, or joins
the one open, as a context manager.  The outermost open takes the database
lock and holds it until it commits every write of the unit as one WAL
record, so a failure anywhere in a unit of work leaves the store, in memory
and on disk, as it found it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.storage.database import Database
    from repro.storage.table import Table


class Transaction:
    """A thread's open unit of work; a nested open joins it.

    Each ``with`` block marks where it joined.  Leaving the outermost block
    normally commits; leaving any block by an exception undoes, newest first,
    the writes made since its mark, then lets the exception go on.
    """

    def __init__(self, database: Database):
        self._database = database
        #: per write: the table, the key, the stored row it replaced (``None``: none)
        self.undo: list[tuple[Table, Any, dict[str, Any] | None]] = []
        #: per write: the WAL operation it logs
        self.operations: list[dict[str, Any]] = []
        self._marks: list[int] = []  # per open block, the writes before it

    def __enter__(self) -> Transaction:
        self._database._lock.acquire()
        if not self._marks:
            self._database._local.journal = self
        self._marks.append(len(self.undo))
        return self

    def __exit__(self, exc_type, exc, traceback) -> None:
        mark = self._marks.pop()
        committed = False
        try:
            if exc_type is None:
                if not self._marks and self.operations:
                    self._database._log_commit(self.operations)
                committed = True
        finally:
            if not committed:  # an exception in the block, or a failed commit
                while len(self.undo) > mark:
                    table, key, previous = self.undo.pop()
                    table.restore(key, previous)
                del self.operations[mark:]
            if not self._marks:
                self._database._local.journal = None
                self.undo, self.operations = [], []
            self._database._lock.release()
