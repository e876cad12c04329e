"""Oplog unit tests: optime ordering, truncation, idempotent replay.

The key guarantee is the satellite property: replaying the same entry batch
*twice* on a secondary leaves the data identical to replaying it once, for
any seeded CRUD mix -- that is what makes lag windows, catch-up after
restart and write-concern-driven partial catch-up all safe to overlap.
"""

from __future__ import annotations

import functools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.docstore.client import DocumentClient
from repro.docstore.documents import document_size
from repro.docstore.replication import (
    OP_DELETE,
    OP_INSERT,
    OP_UPDATE,
    ZERO_OPTIME,
    Oplog,
    OplogEntry,
    OpTime,
    ReplicaSet,
    ReplicaSetMember,
    apply_entry,
)
from repro.docstore.replication.replica_set import _OplogCapture
from repro.docstore.server import DocumentServer
from repro.errors import DocumentStoreError, DuplicateKeyError


def dump(server: DocumentServer, database: str = "app",
         collection: str = "docs") -> list[tuple[str, dict]]:
    """The collection's state *including scan order* (order must replay too)."""
    if database not in server.database_names():
        return []
    engine = server.database(database).collection(collection).engine
    return [(record_id, document) for record_id, document, __ in engine.scan()]


class TestOpTime:
    def test_term_dominates_index(self):
        assert OpTime(2, 1) > OpTime(1, 99)
        assert OpTime(1, 2) > OpTime(1, 1)
        assert ZERO_OPTIME < OpTime(1, 1)

    def test_as_list_round_trip(self):
        assert OpTime(3, 7).as_list() == [3, 7]

    def test_is_a_hashable_value(self):
        assert OpTime() == ZERO_OPTIME == OpTime(0, 0)
        assert len({OpTime(1, 2), OpTime(1, 2), OpTime(2, 1)}) == 2
        assert max(OpTime(1, 5), OpTime(2, 0), ZERO_OPTIME) == OpTime(2, 0)
        assert sorted([OpTime(2, 1), OpTime(1, 9)])[0].term == 1


class TestOplogBookkeeping:
    def test_append_assigns_monotonic_optimes(self):
        oplog = Oplog()
        first = oplog.append(1, OP_INSERT, "app", "docs", record_id="a",
                             document={"_id": "a"})
        second = oplog.append(1, OP_DELETE, "app", "docs", record_id="a")
        assert first.optime < second.optime
        assert oplog.last_optime() == second.optime

    def test_document_entries_require_record_id(self):
        with pytest.raises(DocumentStoreError):
            Oplog().append(1, OP_UPDATE, "app", "docs")

    def test_entries_after_and_truncate(self):
        oplog = Oplog()
        entries = [oplog.append(1, OP_INSERT, "app", "docs", record_id=f"d{i}",
                                document={"_id": f"d{i}"}) for i in range(5)]
        tail = oplog.entries_after(entries[2].optime)
        assert [entry.record_id for entry in tail] == ["d3", "d4"]
        removed = oplog.truncate_after(entries[2].optime)
        assert [entry.record_id for entry in removed] == ["d3", "d4"]
        assert len(oplog) == 3
        # Post-truncation appends (a new term) still order after everything.
        fresh = oplog.append(2, OP_INSERT, "app", "docs", record_id="x",
                             document={"_id": "x"})
        assert fresh.optime > entries[4].optime

    def test_post_images_are_isolated_from_caller_mutation(self):
        oplog = Oplog()
        document = {"_id": "a", "nested": {"n": 1}}
        entry = oplog.append(1, OP_INSERT, "app", "docs", record_id="a",
                             document=document)
        document["nested"]["n"] = 999
        assert entry.document["nested"]["n"] == 1

    def test_every_document_entry_carries_its_stored_size(self):
        """Sized here when the caller did not say; a delete carries none."""
        oplog = Oplog()
        document = {"_id": "a", "tags": ["x", 1], "nested": {"n": 1.5}}
        unsized = oplog.append(1, OP_INSERT, "app", "docs", record_id="a",
                               document=document)
        assert unsized.size == document_size(document)
        assert unsized.document == document and unsized.document is not document
        stored = {"_id": "b"}
        sized = oplog.append(1, OP_UPDATE, "app", "docs", record_id="b",
                             document=stored, size=17)
        assert sized.document is stored and sized.size == 17
        assert oplog.append(1, OP_DELETE, "app", "docs", record_id="a").size == 0
        with pytest.raises(DocumentStoreError):
            oplog.append(1, OP_INSERT, "app", "docs", record_id="c",
                         document={"_id": "c", "$bad": 1})


class TestApplyEntryIdempotency:
    def test_insert_twice_is_idempotent(self):
        oplog = Oplog()
        entry = oplog.append(1, OP_INSERT, "app", "docs", record_id="a",
                             document={"_id": "a", "n": 1})
        server = DocumentServer()
        apply_entry(server, entry)
        once = dump(server)
        apply_entry(server, entry)
        assert dump(server) == once

    def test_update_replays_in_place(self):
        """Replaying an update must not move the document to the scan tail."""
        server = DocumentServer()
        collection = server.database("app").collection("docs")
        collection.insert_many([{"_id": "a", "n": 0}, {"_id": "b", "n": 0}])
        oplog = Oplog()
        entry = oplog.append(1, OP_UPDATE, "app", "docs", record_id="a",
                             document={"_id": "a", "n": 42})
        apply_entry(server, entry)
        assert [record_id for record_id, __ in dump(server)] == ["a", "b"]
        assert collection.find_one({"_id": "a"})["n"] == 42

    def test_delete_of_absent_record_is_a_noop(self):
        server = DocumentServer()
        oplog = Oplog()
        entry = oplog.append(1, OP_DELETE, "app", "docs", record_id="ghost")
        assert apply_entry(server, entry) == 0


def seeded_crud_oplog(seed: int) -> Oplog:
    """Run a seeded CRUD mix through a replica-set primary; return its oplog."""
    replica_set = ReplicaSet(members=1, write_concern=1)
    handle = DocumentClient(replica_set).collection("app", "docs")
    rng = random.Random(seed)
    inserted = 0
    handle.create_index("group")
    for step in range(200):
        roll = rng.random()
        key = f"d{rng.randrange(max(inserted, 1))}"
        if roll < 0.45 or inserted < 8:
            handle.insert_one({"_id": f"d{inserted}", "n": inserted,
                               "group": inserted % 4})
            inserted += 1
        elif roll < 0.65:
            handle.update_one({"_id": key}, {"$inc": {"n": step}})
        elif roll < 0.75:
            handle.update_many({"group": rng.randrange(4)},
                               {"$set": {"touched": step}})
        elif roll < 0.9:
            handle.delete_one({"_id": key})
        else:
            handle.delete_many({"group": rng.randrange(4)})
    return replica_set.oplog


class TestBatchReplayIdempotency:
    """Satellite: replaying the same batch twice leaves the data identical."""

    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_double_replay_equals_single_replay(self, seed):
        oplog = seeded_crud_oplog(seed)
        assert len(oplog) > 100  # the mix actually generated a real history

        once = DocumentServer()
        for entry in oplog:
            apply_entry(once, entry)
        twice = DocumentServer()
        for entry in oplog:
            apply_entry(twice, entry)
        for entry in oplog:  # the whole batch again
            apply_entry(twice, entry)
        assert dump(twice) == dump(once)

    def test_overlapping_window_replay_converges(self):
        """Replaying overlapping windows (the catch-up pattern) converges."""
        oplog = seeded_crud_oplog(7)
        entries = oplog.entries
        reference = DocumentServer()
        for entry in entries:
            apply_entry(reference, entry)

        overlapping = DocumentServer()
        middle = len(entries) // 2
        for entry in entries[:middle + 20]:
            apply_entry(overlapping, entry)
        for entry in entries[middle:]:
            apply_entry(overlapping, entry)
        assert dump(overlapping) == dump(reference)

    def test_replay_rebuilds_indexes(self):
        oplog = seeded_crud_oplog(13)
        rebuilt = DocumentServer()
        for entry in oplog:
            apply_entry(rebuilt, entry)
        collection = rebuilt.database("app").collection("docs")
        assert "group" in collection.indexes.names()


# -- replay differential: store the post-image == run the write again ------------------


def rich_crud_oplog(seed: int, storage_engine: str) -> tuple[Oplog, DocumentServer]:
    """A seeded insert/update/replace/delete mix with multikey arrays,
    non-string ``_id``s, a unique index and index DDL mid-stream, run through
    a one-member replica set; returns its oplog and the primary's server."""
    replica_set = ReplicaSet(members=1, write_concern=1,
                             storage_engine=storage_engine)
    handle = DocumentClient(replica_set).collection("app", "docs")
    rng = random.Random(seed)
    handle.create_index("group")
    handle.create_index("serial", unique=True)
    identifiers: list = []

    def fresh(serial: int) -> dict:
        identifier = serial if serial % 3 == 0 else f"d{serial}"
        identifiers.append(identifier)
        return {"_id": identifier, "n": serial, "group": serial % 4,
                "serial": serial, "tags": [serial % 5, serial % 3],
                "nested": {"label": f"l{serial % 7}"}}

    for step in range(260):
        if step == 70:
            handle.create_index("tags")  # multikey, backfilled mid-stream
        elif step == 130:
            handle.drop_index("group")
        elif step == 170:
            handle.create_index("group")
        roll = rng.random()
        target = {"_id": rng.choice(identifiers)} if identifiers else {"_id": "none"}
        try:
            if roll < 0.30 or len(identifiers) < 8:
                handle.insert_one(fresh(len(identifiers)))
            elif roll < 0.35:
                handle.insert_many([fresh(len(identifiers)) for __ in range(3)])
            elif roll < 0.50:
                handle.update_one(target, {"$inc": {"n": step}})
            elif roll < 0.60:
                handle.update_one(target, {"$set": {"group": rng.randrange(4)},
                                           "$push": {"tags": step % 6}})
            elif roll < 0.66:
                handle.update_one(target, {"$unset": {"serial": ""},
                                           "$set": {"group": [step % 4, 9]}})
            elif roll < 0.72:
                handle.update_one(target, {"$set": {"serial": rng.randrange(40)}})
            elif roll < 0.80:
                handle.update_many({"group": rng.randrange(4)},
                                   {"$set": {"touched": step}})
            elif roll < 0.88:
                handle.replace_one(target, {"n": -step, "group": step % 4,
                                            "tags": [step % 5]})
            elif roll < 0.96:
                handle.delete_one(target)
            else:
                handle.delete_many({"group": rng.randrange(4)})
        except DuplicateKeyError:
            pass  # refused on the primary: nothing was logged
    return replica_set.oplog, replica_set.members[0].server


def reference_apply_entry(server: DocumentServer, entry: OplogEntry) -> int:
    """How a member applied a document entry before ``apply_post_image``:
    by running the write again (plan, match, copy, validate, measure).  Kept
    as the reference the one replay path must agree with -- except that it
    asks for the post-image's own ``_id``: it used to ask for the record id,
    ``str(_id)``, which no non-string ``_id`` equals, so those updates were
    silently dropped."""
    if entry.operation not in (OP_INSERT, OP_UPDATE):
        return apply_entry(server, entry)
    collection = server.database(entry.database).collection(entry.collection)
    if entry.record_id in collection.record_ids():
        return collection.replace_one({"_id": entry.document["_id"]},
                                      entry.document).ticks
    return collection.insert_one(entry.document).ticks


def member_state(server: DocumentServer, accounting: bool = True) -> dict:
    """Everything replay must reproduce: documents in ``engine.scan()``
    order, every index's contents, and the engine's accounting."""
    collection = server.database("app").collection("docs")
    collection.engine.verify_accounting()
    stats = collection.stats()
    del stats["plan_cache"]  # only the reference plans its replay
    del stats["locks"]  # a run of inserts is one lock round, not one an entry
    return {
        "documents": dump(server),
        "ids": (collection.record_ids(), collection.has_non_string_ids()),
        "indexes": {
            index.field_path: (
                index.unique, index.ordered_records(),
                {key: set(bucket) for key, bucket in index._entries.items()},
                [(key, set(bucket)) for key, bucket in index._tree.items()])
            for index in [*collection.indexes, collection.index_for("_id")]},
        "stats": stats if accounting else None,
    }


@pytest.mark.parametrize("storage_engine", ["wiredtiger", "mmapv1"])
@pytest.mark.parametrize("seed", [5, 17, 23])
class TestReplayDifferential:
    def test_storing_post_images_equals_running_the_writes_again(
            self, seed, storage_engine):
        oplog, primary = rich_crud_oplog(seed, storage_engine)
        operations = {entry.operation for entry in oplog}
        assert {OP_INSERT, OP_UPDATE, OP_DELETE} <= operations and len(oplog) > 150
        assert all(entry.size == document_size(entry.document)
                   for entry in oplog if entry.document is not None)

        member = DocumentServer(storage_engine)
        costs = [apply_entry(member, entry) for entry in oplog]
        reference = DocumentServer(storage_engine)
        reference_costs = [reference_apply_entry(reference, entry)
                           for entry in oplog]
        assert costs == reference_costs  # the same cost, entry by entry
        state = member_state(member)
        assert state == member_state(reference)
        # ... and both are the primary (whose own accounting also paid for
        # finding what it wrote).
        assert member_state(primary, accounting=False) == {**state, "stats": None}

    def test_replaying_any_batch_twice_changes_nothing(self, seed, storage_engine):
        oplog, __ = rich_crud_oplog(seed, storage_engine)
        entries = oplog.entries
        once = DocumentServer(storage_engine)
        for entry in entries:
            apply_entry(once, entry)
        expected = member_state(once, accounting=False)
        rng = random.Random(seed)
        again = DocumentServer(storage_engine)
        position = 0
        while position < len(entries):
            batch = entries[position:position + rng.randrange(1, 40)]
            for entry in batch + batch:
                apply_entry(again, entry)
            position += len(batch)
        assert member_state(again, accounting=False) == expected

    def test_resync_from_entry_zero_rebuilds_the_same_member(
            self, seed, storage_engine):
        oplog, __ = rich_crud_oplog(seed, storage_engine)
        replayed = DocumentServer(storage_engine)
        cost = 0
        for entry in oplog:
            cost += apply_entry(replayed, entry)
        member = ReplicaSetMember(1, "rs0", storage_engine)
        member.apply_entries(oplog.entries[:40])  # a stale member ...
        assert member.resync(oplog) == cost  # ... starts over from entry 0
        assert member.applied == oplog.last_optime()
        assert member_state(member.server) == member_state(replayed)


# -- a member applies runs, the primary logs batches (ISSUE 22) -------------------------


@functools.lru_cache(maxsize=None)
def cached_rich_oplog(seed: int, storage_engine: str) -> list[OplogEntry]:
    """Entries hold frozen documents: every replay may share them."""
    return list(rich_crud_oplog(seed, storage_engine)[0])


class TestRunsEqualEntryByEntryReplay:
    """``ReplicaSetMember.apply_entries`` stores a run of inserts in one
    round; the entry-by-entry loop it replaced is the reference, with ``==``
    on every cost and on the accounting."""

    @settings(max_examples=15, deadline=None)
    @given(seed=st.sampled_from([5, 17, 23]),
           storage_engine=st.sampled_from(["wiredtiger", "mmapv1"]),
           cuts=st.lists(st.integers(0, 400), max_size=12))
    def test_any_split_into_apply_entries_calls(self, seed, storage_engine, cuts):
        entries = cached_rich_oplog(seed, storage_engine)
        bounds = sorted({0, len(entries), *(cut % len(entries) for cut in cuts)})
        member = ReplicaSetMember(1, "rs0", storage_engine)
        reference = DocumentServer(storage_engine)
        applied = 0
        for start, stop in zip(bounds, bounds[1:]):
            expected = 0
            for entry in entries[start:stop]:
                expected += apply_entry(reference, entry)
            assert member.apply_entries(entries[start:stop]) == expected
            applied += stop - start
            assert member.applied == entries[stop - 1].optime  # never past the clip
            assert member.entries_applied == applied
        assert member_state(member.server) == member_state(reference)

    def test_a_run_covers_replays_and_repeated_ids(self):
        """A record the member already holds -- replayed, or twice in one
        run -- is stored in place, in the same round."""
        oplog = Oplog()
        for record_id, n in [("a", 1), ("b", 1), ("a", 2), ("c", 1), ("b", 2)]:
            oplog.append(1, OP_INSERT, "app", "docs", record_id=record_id,
                         document={"_id": record_id, "n": n})
        member = ReplicaSetMember(1, "rs0", "mmapv1")
        reference = DocumentServer("mmapv1")
        for entries in (oplog.entries[:2], oplog.entries):  # overlapping windows
            expected = 0
            for entry in entries:
                expected += apply_entry(reference, entry)
            assert member.apply_entries(entries) == expected
        assert dump(member.server) == dump(reference) == [
            ("a", {"_id": "a", "n": 2}), ("b", {"_id": "b", "n": 2}),
            ("c", {"_id": "c", "n": 1})]
        assert member_state(member.server) == member_state(reference)

    def test_a_run_that_fails_half_way_stands_at_the_last_entry_stored(self):
        member = ReplicaSetMember(1, "rs0", "wiredtiger")
        member.server.database("app").collection("docs").create_index(
            "serial", unique=True)
        oplog = Oplog()
        for index, serial in enumerate([0, 1, 2, 1, 4]):
            oplog.append(1, OP_INSERT, "app", "docs", record_id=f"d{index}",
                         document={"_id": f"d{index}", "serial": serial})
        with pytest.raises(DuplicateKeyError):
            member.apply_entries(oplog.entries)
        assert member.applied == oplog.entries[2].optime
        assert member.entries_applied == 3
        assert [record_id for record_id, __ in dump(member.server)] == [
            "d0", "d1", "d2"]


class PerDocumentCapture(_OplogCapture):
    """The primary's listener as it was: told of every record of a batch on
    its own -- one append, one advance of the primary each."""

    def inserted(self, records):
        for record_id, document, size in records:
            self("insert", record_id, document, size)


class TestBatchedAppendEqualsPerDocumentListener:
    @settings(max_examples=15, deadline=None)
    @given(sizes=st.lists(st.integers(1, 9), min_size=1, max_size=5),
           members=st.sampled_from([1, 3]), lag=st.integers(0, 4))
    def test_entries_optimes_and_applied_counts(self, sizes, members, lag):
        sets = [ReplicaSet(members=members, write_concern=1, replication_lag=lag)
                for __ in range(2)]
        reference = sets[1]
        reference.member_collection(reference.primary, "app", "docs").change_listener = (
            PerDocumentCapture(reference, "app", "docs"))
        serial = 0
        for size in sizes:
            batch = [{"_id": f"d{serial + index}", "n": index} for index in range(size)]
            serial += size
            for replica_set in sets:
                handle = DocumentClient(replica_set).collection("app", "docs")
                handle.insert_many(batch)
                handle.update_one({"_id": batch[0]["_id"]}, {"$inc": {"n": 1}})
            batched, looped = (
                ([(entry.optime, entry.operation, entry.record_id, entry.document,
                   entry.size) for entry in replica_set.oplog],
                 [(member.applied, member.entries_applied, dump(member.server))
                  for member in replica_set.members])
                for replica_set in sets)
            assert batched == looped
            # The lag window is the per-document listener's: no member is
            # ahead of the horizon its catch-up was clipped at.
            assert all(replica_set.oplog.lag_behind(member.applied) == min(lag, len(
                replica_set.oplog)) for replica_set in sets
                for member in replica_set.members[1:])

    def test_optimes_of_a_batch_are_contiguous_and_in_batch_order(self):
        oplog = Oplog()
        oplog.append(1, OP_DELETE, "app", "docs", record_id="x")
        entries = oplog.append_inserts(1, "app", "docs", [
            (f"d{index}", {"_id": f"d{index}"}, 17) for index in range(4)])
        assert [entry.optime for entry in entries] == [
            OpTime(1, index) for index in range(2, 6)]
        assert [entry.record_id for entry in oplog] == ["x", "d0", "d1", "d2", "d3"]
        assert all(entry.operation == OP_INSERT and entry.size == 17
                   for entry in entries)
        assert oplog.append(1, OP_DELETE, "app", "docs", record_id="d0"
                            ).optime == OpTime(1, 6)


class TestNonStringIdsReplicate:
    def test_updates_and_deletes_of_non_string_ids_reach_the_secondaries(self):
        """A record id is ``str(_id)``; replay that *queried* by it matched
        no non-string ``_id`` and dropped the change."""
        replica_set = ReplicaSet(members=3, write_concern="majority")
        handle = DocumentClient(replica_set).collection("app", "docs")
        handle.insert_many([{"_id": 5, "n": 1}, {"_id": 6.5, "n": 1},
                            {"_id": "7", "n": 1}])
        handle.update_one({"_id": 5}, {"$set": {"n": 2}})
        handle.delete_one({"_id": 6.5})
        for member in replica_set.members:
            assert [document for __, document in dump(member.server)] == [
                {"_id": 5, "n": 2}, {"_id": "7", "n": 1}]
