"""Replica-set behaviour: write concern, lag, read preference, introspection."""

from __future__ import annotations

import threading

import pytest

from repro.docstore.client import DocumentClient
from repro.docstore.replication import (
    READ_NEAREST,
    READ_SECONDARY,
    ROLE_PRIMARY,
    ROLE_SECONDARY,
    ZERO_OPTIME,
    ReplicaSet,
    resolve_write_concern,
)
from repro.errors import DocumentStoreError, WriteConcernError


def make_set(**overrides) -> ReplicaSet:
    options = {"members": 3, "write_concern": 1}
    options.update(overrides)
    return ReplicaSet(**options)


class TestWriteConcern:
    def test_resolution(self):
        assert resolve_write_concern(1, 3) == 1
        assert resolve_write_concern("majority", 3) == 2
        assert resolve_write_concern("majority", 5) == 3
        with pytest.raises(DocumentStoreError):
            resolve_write_concern(4, 3)
        with pytest.raises(DocumentStoreError):
            resolve_write_concern("quorum", 3)

    def test_majority_write_reaches_a_majority_immediately(self):
        replica_set = make_set(write_concern="majority", replication_lag=10)
        handle = DocumentClient(replica_set).collection("app", "docs")
        handle.insert_one({"_id": "a", "n": 1})
        current = [member for member in replica_set.members
                   if member.applied == replica_set.oplog.entries[-1].optime]
        assert len(current) >= replica_set.majority()

    def test_a_write_waits_on_its_own_optime_not_on_the_log_head(self, monkeypatch):
        """Another client thread's entry lands between this write and its
        acknowledgement: the required secondary is brought to *this* write's
        optime, and this write is not charged for applying the other."""
        replica_set = make_set(write_concern="majority", replication_lag=10)
        handle = DocumentClient(replica_set).collection("app", "docs")
        handle.insert_one({"_id": "seed"})
        on_primary = replica_set.member_collection(replica_set.primary, "app", "docs")
        finish_write = replica_set._finish_write

        def finish_after_a_foreign_write(*arguments):
            foreign = threading.Thread(target=on_primary.insert_one,
                                       args=({"_id": "foreign", "pad": "x" * 500},))
            foreign.start()
            foreign.join()
            return finish_write(*arguments)

        monkeypatch.setattr(replica_set, "_finish_write", finish_after_a_foreign_write)
        interleaved = handle.insert_one({"_id": "own"}).simulated_seconds
        optimes = {entry.record_id: entry.optime for entry in replica_set.oplog}
        assert optimes["seed"] < optimes["own"] < optimes["foreign"]
        assert replica_set.oplog.entries[-1].optime == optimes["foreign"]
        applied = sorted(member.applied for member in replica_set.members
                         if member is not replica_set.primary)
        assert applied == [ZERO_OPTIME, optimes["own"]]

        alone = make_set(write_concern="majority", replication_lag=10)
        handle = DocumentClient(alone).collection("app", "docs")
        handle.insert_one({"_id": "seed"})
        assert interleaved == handle.insert_one({"_id": "own"}).simulated_seconds

    def test_w1_leaves_secondaries_lagged(self):
        replica_set = make_set(write_concern=1, replication_lag=5)
        handle = DocumentClient(replica_set).collection("app", "docs")
        for index in range(12):
            handle.insert_one({"_id": f"d{index}", "n": index})
        status = replica_set.replica_set_status()
        secondary_lags = [member["lag_entries"] for member in status["members"]
                          if member["role"] == ROLE_SECONDARY]
        assert secondary_lags == [5, 5]

    def test_majority_costs_more_than_w1(self):
        def write_cost(write_concern) -> float:
            replica_set = make_set(write_concern=write_concern)
            handle = DocumentClient(replica_set).collection("app", "docs")
            return handle.insert_one({"_id": "a", "n": 1}).simulated_seconds

        assert write_cost("majority") > write_cost(1)

    def test_unreachable_write_concern_raises(self):
        replica_set = make_set(write_concern=3)
        replica_set.kill_member(2)
        handle = DocumentClient(replica_set).collection("app", "docs")
        with pytest.raises(WriteConcernError):
            handle.insert_one({"_id": "a", "n": 1})

    def test_write_concern_failure_does_not_unacknowledge_the_primary(self):
        replica_set = make_set(write_concern=3)
        replica_set.kill_member(2)
        handle = DocumentClient(replica_set).collection("app", "docs")
        with pytest.raises(WriteConcernError):
            handle.insert_one({"_id": "a", "n": 1})
        # Like MongoDB: the write happened on the primary, only the ack failed.
        assert handle.count_documents({}) == 1


class TestReadPreference:
    def test_primary_reads_are_consistent(self):
        replica_set = make_set(replication_lag=5)
        handle = DocumentClient(replica_set).collection("app", "docs")
        for index in range(10):
            handle.insert_one({"_id": f"d{index}", "n": index})
        assert handle.count_documents({}) == 10
        assert replica_set.staleness_count == 0

    def test_secondary_reads_observe_lag(self):
        replica_set = make_set(read_preference=READ_SECONDARY, replication_lag=4)
        handle = DocumentClient(replica_set).collection("app", "docs")
        for index in range(10):
            handle.insert_one({"_id": f"d{index}", "n": index})
        assert handle.count_documents({}) == 6  # 4 entries behind
        assert replica_set.staleness_last == 4
        summary = replica_set.replication_summary()
        assert summary["staleness_max"] == 4

    def test_secondary_reads_round_robin(self):
        replica_set = make_set(read_preference=READ_SECONDARY)
        first = replica_set.read_member()
        second = replica_set.read_member()
        assert first.member_id != second.member_id
        assert ROLE_PRIMARY not in (first.role, second.role)

    def test_nearest_prefers_the_lowest_ping(self):
        replica_set = make_set(read_preference=READ_NEAREST)
        member = replica_set.read_member()
        lowest = min(m.ping_ticks for m in replica_set.members)
        assert member.ping_ticks == lowest

    def test_secondary_falls_back_to_primary_when_alone(self):
        replica_set = ReplicaSet(members=1, read_preference=READ_SECONDARY)
        handle = DocumentClient(replica_set).collection("app", "docs")
        handle.insert_one({"_id": "a", "n": 1})
        assert handle.find_one({"_id": "a"})["n"] == 1


class TestDdlReplication:
    def test_indexes_reach_secondaries(self):
        replica_set = make_set(replication_lag=5)
        handle = DocumentClient(replica_set).collection("app", "docs")
        handle.insert_one({"_id": "a", "group": 1})
        handle.create_index("group")
        for member in replica_set.members:
            collection = member.server.database("app").collection("docs")
            assert "group" in collection.indexes.names()

    def test_drop_database_replicates(self):
        replica_set = make_set(write_concern="majority")
        handle = DocumentClient(replica_set).collection("app", "docs")
        handle.insert_one({"_id": "a"})
        assert replica_set.drop_database("app") is True
        for member in replica_set.members:
            assert "app" not in member.server.database_names()

    def test_dropping_unknown_namespaces_creates_no_phantoms(self):
        """Drops of never-seen namespaces replay as no-ops on every member."""
        replica_set = make_set(write_concern="majority")
        handle = DocumentClient(replica_set).collection("app", "docs")
        handle.insert_one({"_id": "a"})
        assert replica_set.drop_collection("nope", "ghost") is False
        assert replica_set.drop_index("nope", "ghost", "field") is False
        for member in replica_set.members:
            assert member.server.database_names() == ["app"]


class TestIntrospection:
    """Satellite: replication state is visible on servers and the set."""

    def test_member_server_status_reports_role_and_optime(self):
        replica_set = make_set(write_concern="majority")
        handle = DocumentClient(replica_set).collection("app", "docs")
        handle.insert_one({"_id": "a", "n": 1})
        primary_repl = replica_set.primary.server.server_status()["repl"]
        assert primary_repl["role"] == ROLE_PRIMARY
        assert primary_repl["optime"] == replica_set.oplog.entries[-1].optime.as_list()
        secondary = next(member for member in replica_set.members
                         if member.role == ROLE_SECONDARY)
        assert secondary.server.server_status()["repl"]["role"] == ROLE_SECONDARY

    def test_member_server_answers_replSetGetStatus(self):
        replica_set = make_set()
        status = replica_set.members[1].server.run_command({"replSetGetStatus": 1})
        assert status["ok"] == 1
        assert status["set"] == "rs0"
        assert status["role"] == ROLE_SECONDARY

    def test_standalone_server_reports_standalone(self):
        from repro.docstore.server import DocumentServer

        server = DocumentServer()
        assert server.server_status()["repl"] == {"role": "standalone"}
        status = server.run_command({"replSetGetStatus": 1})
        assert status["role"] == "standalone"

    def test_set_level_status_lists_every_member(self):
        replica_set = make_set(write_concern="majority", replication_lag=2)
        handle = DocumentClient(replica_set).collection("app", "docs")
        for index in range(8):
            handle.insert_one({"_id": f"d{index}"})
        status = replica_set.run_command({"replSetGetStatus": 1})
        assert status["set"] == "rs0"
        assert len(status["members"]) == 3
        roles = sorted(member["role"] for member in status["members"])
        assert roles == [ROLE_PRIMARY, ROLE_SECONDARY, ROLE_SECONDARY]

    def test_is_master_and_server_status(self):
        replica_set = make_set()
        hello = replica_set.run_command({"isMaster": 1})
        assert hello["setName"] == "rs0"
        assert hello["primary"] == "rs0/member0"
        status = replica_set.run_command({"serverStatus": 1})
        assert status["repl"]["replicas"] == 3

    def test_collection_stats_embed_replication_summary(self):
        replica_set = make_set()
        handle = DocumentClient(replica_set).collection("app", "docs")
        handle.insert_one({"_id": "a"})
        stats = handle.stats()
        assert stats["replicas"] == 3
        assert stats["replication"]["set"] == "rs0"

    def test_explain_reports_the_serving_member(self):
        replica_set = make_set(read_preference=READ_SECONDARY)
        handle = DocumentClient(replica_set).collection("app", "docs")
        handle.insert_one({"_id": "a", "n": 1})
        plan = handle.explain({"_id": "a"})
        assert plan["replication"]["role"] == ROLE_SECONDARY


class TestValidation:
    def test_rejects_bad_configuration(self):
        with pytest.raises(DocumentStoreError):
            ReplicaSet(members=0)
        with pytest.raises(DocumentStoreError):
            ReplicaSet(members=3, read_preference="tertiary")
        with pytest.raises(DocumentStoreError):
            ReplicaSet(members=3, replication_lag=-1)
        with pytest.raises(DocumentStoreError):
            ReplicaSet(members=3, write_concern=9)
