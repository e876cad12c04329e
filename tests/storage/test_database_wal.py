"""Tests for the database façade, write-ahead log and crash recovery."""

from __future__ import annotations

import json

import pytest

from repro.errors import StorageError
from repro.storage.database import Database
from repro.storage.query import eq
from repro.storage.wal import WriteAheadLog
from tests.storage.schemas import simple_schema


def make_tables(db: Database) -> None:
    db.ensure_table(simple_schema("jobs", string_columns=["status"], json_columns=["params"]))
    db.ensure_table(simple_schema("results", string_columns=["job_id"]))


class TestDatabaseFacade:
    def test_create_table(self):
        db = Database()
        make_tables(db)
        assert db.table_names() == ["jobs", "results"]

    def test_duplicate_table_creation_rejected(self):
        db = Database()
        schema = simple_schema("jobs")
        db.create_table(schema)
        with pytest.raises(StorageError):
            db.create_table(schema)
        # ensure_table tolerates existing tables
        db.ensure_table(schema)

    def test_unknown_table_access_raises(self):
        with pytest.raises(StorageError):
            Database().table("missing")

    def test_crud_helpers(self):
        db = Database()
        make_tables(db)
        db.insert("jobs", {"id": "j1", "status": "scheduled", "params": {"t": 1}})
        db.update("jobs", "j1", {"status": "running"})
        assert db.get("jobs", "j1")["status"] == "running"
        assert db.count("jobs", eq("status", "running")) == 1
        db.delete("jobs", "j1")
        assert db.get_or_none("jobs", "j1") is None


class TestDurability:
    def test_recover_replays_wal(self, tmp_path):
        directory = tmp_path / "meta"
        db = Database(directory)
        make_tables(db)
        db.insert("jobs", {"id": "j1", "status": "scheduled"})
        db.insert("jobs", {"id": "j2", "status": "running"})
        db.update("jobs", "j1", {"status": "finished"})
        db.delete("jobs", "j2")
        db.close()

        recovered = Database(directory)
        make_tables(recovered)
        replayed = recovered.recover()
        assert replayed >= 4
        assert recovered.get("jobs", "j1")["status"] == "finished"
        assert recovered.get_or_none("jobs", "j2") is None

    def test_checkpoint_then_recover(self, tmp_path):
        directory = tmp_path / "meta"
        db = Database(directory)
        make_tables(db)
        db.insert("jobs", {"id": "j1", "status": "scheduled"})
        db.checkpoint()
        db.insert("jobs", {"id": "j2", "status": "scheduled"})
        db.close()

        recovered = Database(directory)
        make_tables(recovered)
        recovered.recover()
        assert recovered.count("jobs") == 2

    def test_transaction_commit_is_logged(self, tmp_path):
        directory = tmp_path / "meta"
        db = Database(directory)
        make_tables(db)
        with db.transaction():
            db.insert("jobs", {"id": "j1", "status": "scheduled"})
            db.insert("results", {"id": "r1", "job_id": "j1"})
        db.close()

        recovered = Database(directory)
        make_tables(recovered)
        recovered.recover()
        assert recovered.count("jobs") == 1
        assert recovered.count("results") == 1

    def test_torn_final_record_is_tolerated(self, tmp_path):
        directory = tmp_path / "meta"
        db = Database(directory)
        make_tables(db)
        db.insert("jobs", {"id": "j1", "status": "scheduled"})
        db.close()
        wal_path = directory / "wal.jsonl"
        with wal_path.open("a", encoding="utf-8") as handle:
            handle.write('{"commit": [{"op": "insert", "table"')  # torn write

        recovered = Database(directory)
        make_tables(recovered)
        recovered.recover()
        assert recovered.count("jobs") == 1

    def test_corrupt_middle_record_raises(self, tmp_path):
        log = WriteAheadLog(tmp_path)
        log.append({"commit": []})
        log.close()
        wal_path = tmp_path / "wal.jsonl"
        content = wal_path.read_text().splitlines()
        wal_path.write_text("not-json\n" + "\n".join(content) + "\n")
        with pytest.raises(StorageError):
            list(WriteAheadLog(tmp_path).replay())


class TestWriteAheadLog:
    def test_append_and_replay(self, tmp_path):
        log = WriteAheadLog(tmp_path)
        log.append({"n": 1})
        log.append({"n": 2})
        assert [record["n"] for record in log.replay()] == [1, 2]

    def test_snapshot_truncates_log(self, tmp_path):
        log = WriteAheadLog(tmp_path)
        log.append({"n": 1})
        log.write_snapshot({"tables": {}})
        assert list(log.replay()) == []
        assert log.read_snapshot() == {"tables": {}}

    def test_snapshot_is_valid_json_on_disk(self, tmp_path):
        log = WriteAheadLog(tmp_path)
        log.write_snapshot({"tables": {"jobs": []}})
        raw = (tmp_path / "snapshot.json").read_text()
        assert json.loads(raw) == {"tables": {"jobs": []}}
