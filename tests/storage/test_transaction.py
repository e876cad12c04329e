"""Tests for units of work: commit, rollback, nesting and the WAL record."""

from __future__ import annotations

import threading

import pytest

from repro.errors import NotFoundError
from repro.storage.database import Database
from repro.storage.query import eq
from repro.storage.wal import WriteAheadLog
from tests.storage.schemas import simple_schema


def items(directory=None) -> Database:
    db = Database(directory)
    db.create_table(simple_schema("items", string_columns=["name"], json_columns=["data"]))
    return db


@pytest.fixture
def database() -> Database:
    return items()


def logged(db: Database, directory) -> list[list[dict]]:
    """The operations of every WAL record ``db`` wrote under ``directory``,
    one list each (``db`` is closed first)."""
    db.close()
    return [record["commit"] for record in WriteAheadLog(directory).replay()]


class TestCommit:
    def test_committed_changes_visible(self, database):
        with database.transaction():
            database.insert("items", {"id": "a", "name": "first"})
            database.update("items", "a", {"name": "renamed"})
        assert database.get("items", "a")["name"] == "renamed"

    def test_commit_without_operations_is_fine(self, database):
        with database.transaction():
            pass
        assert database.count("items") == 0

    def test_a_unit_of_work_is_one_wal_record(self, tmp_path):
        db = items(tmp_path)
        with db.transaction():
            db.insert("items", {"id": "a", "name": "x"})
            db.update("items", "a", {"name": "y"})
            db.delete("items", "a")
        assert [[operation["op"] for operation in record] for record in logged(db, tmp_path)] \
            == [["insert", "update", "delete"]]

    def test_a_write_outside_a_unit_of_work_is_its_own(self, tmp_path):
        db = items(tmp_path)
        db.insert("items", {"id": "a", "name": "x"})
        db.update("items", "a", {"name": "y"})
        assert len(logged(db, tmp_path)) == 2

    def test_a_unit_of_work_that_writes_nothing_logs_nothing(self, tmp_path):
        db = items(tmp_path)
        db.insert("items", {"id": "a", "name": "x"})
        with db.transaction():
            db.get("items", "a")
            db.select("items")
        assert len(logged(db, tmp_path)) == 1

    def test_the_log_holds_what_was_stored_not_what_the_caller_changed_since(self, tmp_path):
        db = items(tmp_path)
        payload = {"list": [1]}
        with db.transaction():
            inserted = db.insert("items", {"id": "a", "data": payload})
            changes = {"data": payload}
            db.update("items", "a", changes)
            payload["list"].append(2)
            inserted["data"]["list"].append(3)
            changes["data"] = "scribbled"
        db.close()
        recovered = items(tmp_path)
        recovered.recover()
        assert recovered.get("items", "a")["data"] == {"list": [1]} == db.get("items", "a")["data"]


class TestRollback:
    def test_exception_rolls_back_all_operations(self, database):
        database.insert("items", {"id": "existing", "name": "before"})
        with pytest.raises(RuntimeError):
            with database.transaction():
                database.insert("items", {"id": "a", "name": "x"})
                database.update("items", "existing", {"name": "after"})
                database.delete("items", "existing")
                raise RuntimeError("boom")
        assert database.get_or_none("items", "a") is None
        assert database.get("items", "existing")["name"] == "before"

    def test_rollback_restores_deleted_rows(self, database):
        database.insert("items", {"id": "a", "name": "keep", "data": {"k": 1}})
        with pytest.raises(RuntimeError):
            with database.transaction():
                database.delete("items", "a")
                raise RuntimeError("abort")
        assert database.get("items", "a")["data"] == {"k": 1}
        assert database.count("items") == 1

    def test_rollback_of_an_update_restores_the_indexes(self):
        db = Database()
        db.create_table(simple_schema("items", string_columns=["name"], indexes=["name"],
                                      unique=["name"]))
        db.insert("items", {"id": "a", "name": "x"})
        with pytest.raises(RuntimeError):
            with db.transaction():
                db.update("items", "a", {"name": "y"})
                raise RuntimeError("abort")
        assert [row["id"] for row in db.select("items", eq("name", "x"))] == ["a"]
        assert db.select("items", eq("name", "y")) == []
        db.insert("items", {"id": "b", "name": "y"})  # the unique value is free again

    def test_update_of_missing_row_raises_inside_transaction(self, database):
        with pytest.raises(NotFoundError):
            with database.transaction():
                database.insert("items", {"id": "a", "name": "x"})
                database.update("items", "missing", {"name": "x"})
        assert database.count("items") == 0

    def test_a_failed_write_leaves_nothing_behind(self, tmp_path):
        db = items(tmp_path)
        with pytest.raises(NotFoundError):
            db.update("items", "missing", {"name": "x"})
        assert logged(db, tmp_path) == []

    @pytest.mark.parametrize("unit", ["one write", "a unit of work"])
    def test_a_commit_that_fails_undoes_the_writes(self, database, monkeypatch, unit):
        database.insert("items", {"id": "a", "name": "x", "data": {"k": 1}})

        def full_disk(operations):
            raise OSError("no space left on device")

        monkeypatch.setattr(database, "_log_commit", full_disk)
        with pytest.raises(OSError):
            if unit == "one write":
                database.update("items", "a", {"name": "y", "data": {"k": 2}})
            else:
                with database.transaction():
                    database.insert("items", {"id": "b", "name": "y"})
                    database.update("items", "a", {"name": "y", "data": {"k": 2}})
        assert database.select("items") == [{"id": "a", "name": "x", "data": {"k": 1}}]
        assert database.count("items", eq("name", "y")) == 0


class TestUsageErrors:
    def test_update_of_missing_row_raises_inside_transaction(self, database):
        with pytest.raises(NotFoundError):
            with database.transaction():
                database.insert("items", {"id": "a", "name": "x"})
                database.update("items", "missing", {"name": "x"})
        assert database.count("items") == 0

    def test_a_failed_write_leaves_nothing_behind(self, tmp_path):
        db = items(tmp_path)
        with pytest.raises(NotFoundError):
            db.update("items", "missing", {"name": "x"})
        assert logged(db, tmp_path) == []


class TestNesting:
    def test_a_nested_open_joins_the_outer_unit(self, tmp_path):
        db = items(tmp_path)
        with db.transaction() as outer:
            db.insert("items", {"id": "a", "name": "x"})
            with db.transaction() as inner:
                db.insert("items", {"id": "b", "name": "y"})
            assert inner.operations is outer.operations
        assert [len(record) for record in logged(db, tmp_path)] == [2]

    def test_a_nested_block_that_raises_and_is_caught_leaves_no_row_and_no_operation(
            self, tmp_path):
        db = items(tmp_path)
        with db.transaction():
            db.insert("items", {"id": "a", "name": "x"})
            try:
                with db.transaction():
                    db.insert("items", {"id": "b", "name": "y"})
                    db.update("items", "a", {"name": "changed"})
                    raise RuntimeError("inner failure")
            except RuntimeError:
                pass
            assert db.get_or_none("items", "b") is None
        assert db.get("items", "a")["name"] == "x"
        assert [[operation["row"]["id"] for operation in record]
                for record in logged(db, tmp_path)] == [["a"]]

    def test_an_outer_failure_undoes_the_nested_writes_too(self, database):
        with pytest.raises(RuntimeError):
            with database.transaction():
                with database.transaction():
                    database.insert("items", {"id": "a", "name": "x"})
                raise RuntimeError("outer failure")
        assert database.count("items") == 0


def test_a_unit_of_work_holds_the_database_from_open_to_commit(database):
    """Another thread's read waits for the commit: it never sees half a unit."""
    opened, seen = threading.Event(), []

    def reader():
        opened.wait(5)
        seen.append(database.count("items"))

    thread = threading.Thread(target=reader)
    thread.start()
    with database.transaction():
        opened.set()
        thread.join(0.05)  # the reader is blocked on the lock meanwhile
        database.insert("items", {"id": "a", "name": "x"})
        database.insert("items", {"id": "b", "name": "y"})
    thread.join(5)
    assert seen == [2]
