"""Database façade for the embedded relational store.

A :class:`Database` has one write path.  ``insert``, ``update`` and
``delete`` are its only row writes, and each journals itself into the calling
thread's open unit of work (:meth:`Database.transaction`), or is a unit of
work of its own.  A unit of work takes ``Database._lock`` when it opens and
holds it until it commits one ``{"commit": [...]}`` WAL record (none if it
wrote nothing) or rolls back; a nested open joins it.  So ``Database._lock``
is always taken before any lock its callers hold inside a unit of work, and
what a crash leaves on disk is the state before or after a whole unit.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Any

from repro.errors import StorageError
from repro.storage.query import Predicate
from repro.storage.schema import TableSchema
from repro.storage.table import Table
from repro.storage.transaction import Transaction
from repro.storage.wal import NullLog, WriteAheadLog


class Database:
    """A collection of tables with optional durability.

    When constructed with ``directory=None`` the database lives purely in
    memory (used by unit tests and simulations).  With a directory, every
    committed unit of work is appended to a write-ahead log as one record and
    the whole state can be checkpointed to a snapshot; :meth:`recover`
    restores it on restart.
    """

    def __init__(self, directory: str | Path | None = None):
        self._tables: dict[str, Table] = {}
        self._schemas: dict[str, TableSchema] = {}
        self._lock = threading.RLock()
        self._local = threading.local()  # .journal: the thread's open unit of work
        self._log = WriteAheadLog(directory) if directory is not None else NullLog()
        self._directory = Path(directory) if directory is not None else None

    # -- schema management --------------------------------------------------

    def create_table(self, schema: TableSchema) -> Table:
        """Create a new table from ``schema``."""
        with self._lock:
            if schema.name in self._tables:
                raise StorageError(f"table {schema.name!r} already exists")
            table = Table(schema)
            self._tables[schema.name] = table
            self._schemas[schema.name] = schema
            return table

    def ensure_table(self, schema: TableSchema) -> Table:
        """Create ``schema`` if missing, otherwise return the existing table."""
        with self._lock:
            if schema.name in self._tables:
                return self._tables[schema.name]
            return self.create_table(schema)

    def table(self, name: str) -> Table:
        """Return the table called ``name``."""
        try:
            return self._tables[name]
        except KeyError:
            raise StorageError(f"table {name!r} does not exist") from None

    def table_names(self) -> list[str]:
        return sorted(self._tables)

    # -- the three writes ------------------------------------------------------

    def insert(self, table: str, row: dict[str, Any]) -> dict[str, Any]:
        """Insert one row; returns a copy of it."""
        with self._lock:
            store = self.table(table)
            stored = store.insert(row)
            self._journal(store, stored[store.schema.primary_key], None,
                          {"op": "insert", "table": table, "row": stored})
            return store.copy_out(stored)

    def update(self, table: str, key: Any, changes: dict[str, Any]) -> dict[str, Any]:
        """Update one row; returns a copy of it."""
        with self._lock:
            store = self.table(table)
            previous, stored = store.update(key, changes)
            self._journal(store, key, previous, {
                "op": "update", "table": table, "key": key,
                "changes": {column: stored[column] for column in changes}})
            return store.copy_out(stored)

    def delete(self, table: str, key: Any) -> None:
        """Delete one row."""
        with self._lock:
            store = self.table(table)
            self._journal(store, key, store.delete(key),
                          {"op": "delete", "table": table, "key": key})

    def transaction(self) -> Transaction:
        """Open a unit of work on the calling thread, or join the one open;
        use it as a context manager (see :class:`Transaction`)."""
        return getattr(self._local, "journal", None) or Transaction(self)

    # Reads walk live indexes, so they hold the lock as the writes do -- for
    # the rows they return, not for the size of the table.

    def get(self, table: str, key: Any) -> dict[str, Any]:
        with self._lock:
            return self.table(table).get(key)

    def get_or_none(self, table: str, key: Any) -> dict[str, Any] | None:
        with self._lock:
            return self.table(table).get_or_none(key)

    def select(self, table: str, predicate: Predicate | None = None, **kwargs) -> list[dict[str, Any]]:
        with self._lock:
            return self.table(table).select(predicate, **kwargs)

    def count(self, table: str, predicate: Predicate | None = None) -> int:
        with self._lock:
            return self.table(table).count(predicate)

    def row_version(self, table: str, key: Any) -> object | None:
        """What stands for ``key``'s stored row now (``None``: no row), to
        compare with ``is`` and for nothing else: it is the stored row, which
        no caller may read or change.  A write replaces a stored row and never
        changes one, and an undo puts back the row it replaced, so the version
        stays the same exactly while the row does."""
        with self._lock:
            return self.table(table)._rows.get(key)

    # -- durability -----------------------------------------------------------

    def checkpoint(self) -> None:
        """Write a snapshot of every table and truncate the WAL."""
        with self._lock:
            state = {
                "tables": {
                    name: list(table.all_rows()) for name, table in self._tables.items()
                }
            }
            self._log.write_snapshot(state)

    def recover(self) -> int:
        """Reload state from the snapshot and WAL.

        Tables must already have been (re-)created with their schemas before
        calling this.  Returns the number of log records replayed.
        """
        with self._lock:
            snapshot = self._log.read_snapshot()
            if snapshot is not None:
                for name, rows in snapshot.get("tables", {}).items():
                    if name not in self._tables:
                        continue
                    for row in rows:
                        self._tables[name].insert(row)
            replayed = 0
            for record in self._log.replay():
                self._apply_logged(record)
                replayed += 1
            return replayed

    def close(self) -> None:
        self._log.close()

    # -- internals --------------------------------------------------------------

    def _journal(self, table: Table, key: Any, previous: dict[str, Any] | None,
                 operation: dict[str, Any]) -> None:
        """Journal a write just made (under the lock) of ``key`` in ``table``,
        which replaced the stored row ``previous``, into the calling thread's
        unit of work.  Outside one, the write is a unit of its own: commit
        it, or undo it if the commit fails."""
        journal = getattr(self._local, "journal", None)
        if journal is not None:
            journal.undo.append((table, key, previous))
            journal.operations.append(operation)
            return
        try:
            self._log_commit([operation])
        except BaseException:
            table.restore(key, previous)
            raise

    def _log_commit(self, operations: list[dict[str, Any]]) -> None:
        self._log.append({"commit": operations})

    def _apply_logged(self, record: dict[str, Any]) -> None:
        for operation in record.get("commit", []):
            table = self._tables.get(operation["table"])
            if table is None:
                continue
            op = operation["op"]
            if op == "insert":
                key = operation["row"][table.schema.primary_key]
                if key not in table:
                    table.insert(operation["row"])
            elif op == "update":
                if operation["key"] in table:
                    table.update(operation["key"], operation["changes"])
            elif op == "delete":
                if operation["key"] in table:
                    table.delete(operation["key"])
