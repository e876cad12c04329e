"""Tests for the heap table: CRUD, predicates, indexes, uniqueness."""

from __future__ import annotations

import pytest

from repro.errors import ConflictError, NotFoundError, StorageError
from repro.storage.query import and_, eq, in_
from repro.storage.schema import Column, ColumnType, TableSchema
from repro.storage.table import Table
from tests.storage.schemas import gt, gte, lt, lte, ne


@pytest.fixture
def table() -> Table:
    schema = TableSchema(
        name="jobs",
        columns=[
            Column("id", ColumnType.STRING, nullable=False),
            Column("status", ColumnType.STRING),
            Column("priority", ColumnType.INTEGER, default=0),
            Column("owner", ColumnType.STRING),
            Column("payload", ColumnType.JSON),
        ],
        primary_key="id",
        indexes=["status", "priority"],
        unique=["owner"],
    )
    return Table(schema)


def populate(table: Table, count: int = 5) -> None:
    for index in range(count):
        table.insert({
            "id": f"job-{index}",
            "status": "scheduled" if index % 2 == 0 else "running",
            "priority": index,
            "owner": f"user-{index}",
            "payload": {"n": index},
        })


class TestInsertAndGet:
    def test_insert_returns_normalised_row(self, table):
        row = table.insert({"id": "a", "status": "scheduled"})
        assert row["priority"] == 0

    def test_duplicate_primary_key_rejected(self, table):
        table.insert({"id": "a"})
        with pytest.raises(ConflictError):
            table.insert({"id": "a"})

    def test_missing_primary_key_rejected(self, table):
        with pytest.raises(StorageError):
            table.insert({"status": "scheduled"})

    def test_get_returns_copy(self, table):
        table.insert({"id": "a", "payload": {"x": 1}})
        fetched = table.get("a")
        fetched["payload"]["x"] = 999
        assert table.get("a")["payload"]["x"] == 1

    def test_get_missing_raises(self, table):
        with pytest.raises(NotFoundError):
            table.get("missing")

    def test_get_or_none(self, table):
        assert table.get_or_none("missing") is None

    def test_unique_constraint_enforced(self, table):
        table.insert({"id": "a", "owner": "alice"})
        with pytest.raises(ConflictError):
            table.insert({"id": "b", "owner": "alice"})

    def test_unique_allows_null(self, table):
        table.insert({"id": "a", "owner": None})
        table.insert({"id": "b", "owner": None})
        assert len(table) == 2


class TestUpdateAndDelete:
    def test_update_changes_columns(self, table):
        table.insert({"id": "a", "status": "scheduled"})
        previous, updated = table.update("a", {"status": "running"})
        assert (previous["status"], updated["status"]) == ("scheduled", "running")

    def test_update_cannot_change_primary_key(self, table):
        table.insert({"id": "a"})
        with pytest.raises(StorageError):
            table.update("a", {"id": "b"})

    def test_update_missing_raises(self, table):
        with pytest.raises(NotFoundError):
            table.update("missing", {"status": "x"})

    def test_update_maintains_indexes(self, table):
        populate(table)
        table.update("job-0", {"status": "finished"})
        finished = table.select(eq("status", "finished"))
        assert [row["id"] for row in finished] == ["job-0"]
        assert all(row["id"] != "job-0" for row in table.select(eq("status", "scheduled")))

    def test_update_unique_conflict_detected(self, table):
        table.insert({"id": "a", "owner": "alice"})
        table.insert({"id": "b", "owner": "bob"})
        with pytest.raises(ConflictError):
            table.update("b", {"owner": "alice"})

    def test_update_same_unique_value_allowed(self, table):
        table.insert({"id": "a", "owner": "alice"})
        table.update("a", {"owner": "alice", "status": "x"})

    def test_delete_removes_row_and_index_entries(self, table):
        populate(table)
        table.delete("job-0")
        assert "job-0" not in table
        assert all(row["id"] != "job-0" for row in table.select(eq("status", "scheduled")))

    def test_delete_missing_raises(self, table):
        with pytest.raises(NotFoundError):
            table.delete("missing")


class TestSelect:
    def test_select_all(self, table):
        populate(table, 4)
        assert len(table.select()) == 4

    def test_select_equality_uses_index(self, table):
        populate(table, 10)
        rows = table.select(eq("status", "running"))
        assert all(row["status"] == "running" for row in rows)
        assert len(rows) == 5

    def test_select_by_primary_key_predicate(self, table):
        populate(table)
        rows = table.select(eq("id", "job-3"))
        assert len(rows) == 1 and rows[0]["id"] == "job-3"

    def test_comparison_predicates(self, table):
        populate(table, 6)
        assert len(table.select(gt("priority", 3))) == 2
        assert len(table.select(gte("priority", 3))) == 3
        assert len(table.select(lt("priority", 2))) == 2
        assert len(table.select(lte("priority", 2))) == 3
        assert len(table.select(ne("priority", 0))) == 5

    def test_in_and_logical_predicates(self, table):
        populate(table, 6)
        rows = table.select(in_("priority", [1, 2, 3]))
        assert len(rows) == 3
        rows = table.select(and_(eq("status", "scheduled"), gt("priority", 1)))
        assert {row["id"] for row in rows} == {"job-2", "job-4"}
        rows = table.select(eq("priority", 0) | eq("priority", 5))
        assert len(rows) == 2

    def test_order_by_and_limit(self, table):
        populate(table, 5)
        rows = table.select(order_by="priority", descending=True, limit=2)
        assert [row["priority"] for row in rows] == [4, 3]

    def test_select_one_and_count(self, table):
        populate(table, 5)
        assert table.select(eq("id", "job-1"), limit=1)[0]["priority"] == 1
        assert table.select(eq("id", "nope"), limit=1) == []
        assert table.count(eq("status", "scheduled")) == 3
        assert table.count() == 5

    def test_null_comparison_semantics(self, table):
        table.insert({"id": "a", "status": None, "priority": 1})
        assert table.select(eq("status", None))
        assert not table.select(gt("status", "a"))
