"""Embedded relational store backing Chronos Control's metadata.

The original Chronos Control persists its data model (projects, experiments,
evaluations, jobs, results, systems, deployments, users) in MySQL/MariaDB.
This package provides an embedded, pure-Python replacement with the subset of
relational functionality Chronos needs:

* typed table schemas with primary keys, unique and secondary indexes
  (:mod:`repro.storage.schema`, :mod:`repro.storage.index`),
* predicate-based selection (:mod:`repro.storage.query`),
* units of work that commit as one and roll back as one
  (:mod:`repro.storage.transaction`),
* durability via a JSON-lines write-ahead log plus snapshots
  (:mod:`repro.storage.wal`), and
* a :class:`~repro.storage.database.Database` façade tying it all together.
"""

from repro.storage.database import Database
from repro.storage.query import Predicate, and_, eq, in_
from repro.storage.schema import Column, ColumnType, TableSchema

__all__ = [
    "Database",
    "TableSchema",
    "Column",
    "ColumnType",
    "Predicate",
    "eq",
    "in_",
    "and_",
]
