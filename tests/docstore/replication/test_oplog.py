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
from repro.docstore.documents import freeze_document
from repro.docstore.replication import (
    OP_CREATE_INDEX,
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
from tests.docstore.reference import measure_document


def dump(server: DocumentServer, database: str = "app",
         collection: str = "docs") -> list[tuple[str, dict]]:
    """The collection's state *including scan order* (order must replay too)."""
    if database not in server.database_names():
        return []
    engine = server.database(database).collection(collection).engine
    return list(engine.scan_uncharged())


def logged(oplog: Oplog, operation: str, record_id: str,
           document: dict | None = None, term: int = 1) -> OplogEntry:
    """Log one write of ``app.docs`` in the records form a primary's listener
    appends: the post-image frozen and sized as the write boundary stores it,
    a delete as ``(record_id, None, 0)``."""
    record = ((record_id, None, 0) if document is None
              else (record_id, *freeze_document(document)))
    [entry] = oplog.append(term, operation, "app", "docs", [record])
    return entry


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
        first = logged(oplog, OP_INSERT, "a", {"_id": "a"})
        second = logged(oplog, OP_DELETE, "a")
        assert first.optime < second.optime
        assert oplog.entries[-1].optime == second.optime

    def test_document_entries_require_record_id(self):
        oplog = Oplog()
        with pytest.raises(DocumentStoreError):
            oplog.append(1, OP_UPDATE, "app", "docs")
        with pytest.raises(DocumentStoreError):  # anywhere in a run: none logged
            oplog.append(1, OP_DELETE, "app", "docs",
                         [("a", None, 0), (None, None, 0)])
        assert len(oplog) == 0

    def test_entries_after_and_truncate(self):
        oplog = Oplog()
        entries = [logged(oplog, OP_INSERT, f"d{i}", {"_id": f"d{i}"})
                   for i in range(5)]
        tail = oplog.entries_after(entries[2].optime)
        assert [entry.record_id for entry in tail] == ["d3", "d4"]
        removed = oplog.truncate_after(entries[2].optime)
        assert [entry.record_id for entry in removed] == ["d3", "d4"]
        assert len(oplog) == 3
        # Post-truncation appends (a new term) still order after everything.
        fresh = logged(oplog, OP_INSERT, "x", {"_id": "x"}, term=2)
        assert fresh.optime > entries[4].optime

    def test_post_images_are_isolated_from_caller_mutation(self):
        """The write boundary freezes a post-image; the log keeps that very
        object, which a later change to the caller's document cannot reach."""
        oplog = Oplog()
        document = {"_id": "a", "nested": {"n": 1}}
        frozen, size = freeze_document(document)
        [entry] = oplog.append(1, OP_INSERT, "app", "docs", [("a", frozen, size)])
        document["nested"]["n"] = 999
        assert entry.document is frozen and entry.document["nested"]["n"] == 1
        assert entry.size == size == measure_document(frozen)


class TestApplyEntryIdempotency:
    def test_insert_twice_is_idempotent(self):
        entry = logged(Oplog(), OP_INSERT, "a", {"_id": "a", "n": 1})
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
        entry = logged(Oplog(), OP_UPDATE, "a", {"_id": "a", "n": 42})
        apply_entry(server, entry)
        assert [record_id for record_id, __ in dump(server)] == ["a", "b"]
        assert collection.find_one({"_id": "a"})["n"] == 42

    def test_delete_of_absent_record_is_a_noop(self):
        server = DocumentServer()
        entry = logged(Oplog(), OP_DELETE, "ghost")
        assert apply_entry(server, entry) == 0

    def test_a_replay_announces_nothing(self):
        """A demoted primary keeps its oplog capture: what it replays must
        not reach a listener, or it would be logged again."""
        collection = DocumentServer().database("app").collection("docs")
        heard: list[str] = []
        collection.change_listener = lambda operation, records: heard.append(
            operation)
        document, size = freeze_document({"_id": "a", "n": 1})
        collection.apply_post_images([("a", document, size), ("a", None, 0)])
        assert heard == [] and len(collection) == 0
        collection.insert_one({"_id": "b"})  # a client's write is announced
        assert heard == ["insert"]


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
    """How a member applied a document entry before it stored post-images:
    by running the write again (plan, match, copy, validate, measure) -- an
    insert or an update as ``insert_one`` / ``replace_one``, a delete as
    ``delete_one`` by the stored ``_id`` (a non-string ``_id`` matches only
    itself), nothing when the record is absent.  Kept as the reference the
    one replay path must agree with -- except that an update asks for the
    post-image's own ``_id``: it used to ask for the record id, ``str(_id)``,
    which no non-string ``_id`` equals, so those updates were silently
    dropped."""
    if entry.operation not in (OP_INSERT, OP_UPDATE, OP_DELETE):
        return apply_entry(server, entry)
    collection = server.database(entry.database).collection(entry.collection)
    if entry.operation == OP_DELETE:
        stored = collection.engine.peek(entry.record_id)
        if stored is None:
            return 0
        return collection.delete_one({"_id": stored[0]["_id"]}).ticks
    if entry.record_id in collection.record_ids():
        return collection.replace_one({"_id": entry.document["_id"]},
                                      entry.document).ticks
    return collection.insert_one(entry.document).ticks


def member_state(server: DocumentServer, accounting: bool = True) -> dict:
    """Everything replay must reproduce: documents in ``scan_uncharged()``
    order, every index's contents, and the engine's accounting."""
    collection = server.database("app").collection("docs")
    collection.engine.verify_accounting()
    stats = collection.stats()
    del stats["plan_cache"]  # only the reference plans its replay
    del stats["locks"]  # a run is one lock round, not one an entry
    return {
        "documents": dump(server),
        "ids": collection.record_ids(),
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
        assert all(entry.size == measure_document(entry.document)
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
        assert member.applied == oplog.entries[-1].optime
        assert member_state(member.server) == member_state(replayed)


# -- a member applies runs of any kind, the primary logs a write in one append ---------


@functools.lru_cache(maxsize=None)
def cached_rich_oplog(seed: int, storage_engine: str) -> list[OplogEntry]:
    """Entries hold frozen documents: every replay may share them."""
    return list(rich_crud_oplog(seed, storage_engine)[0])


class TestRunsEqualEntryByEntryReplay:
    """``ReplicaSetMember.apply_entries`` applies a run of document entries
    of any kind in one round; running each write again, entry by entry, is
    the reference, with ``==`` on every cost and on the accounting."""

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
                expected += reference_apply_entry(reference, entry)
            assert member.apply_entries(entries[start:stop]) == expected
            applied += stop - start
            assert member.applied == entries[stop - 1].optime  # never past the clip
            assert member.entries_applied == applied
        assert member_state(member.server) == member_state(reference)

    def test_a_run_covers_replays_and_repeated_ids(self):
        """A record the member already holds -- replayed, twice in one run,
        inserted earlier in the run and then updated or deleted, deleted and
        inserted again -- is applied in place, in the same round; a delete of
        a record never stored bills nothing and misses no read."""
        oplog = Oplog()
        for operation, record_id, n in [
                (OP_INSERT, "a", 1), (OP_INSERT, "b", 1), (OP_INSERT, "a", 2),
                (OP_INSERT, "c", 1), (OP_INSERT, "d", 1), (OP_DELETE, "d", None),
                (OP_INSERT, "b", 2), (OP_UPDATE, "c", 2), (OP_DELETE, "ghost", None),
                (OP_INSERT, "e", 1), (OP_INSERT, "f", 1), (OP_DELETE, "f", None),
                (OP_INSERT, "f", 2)]:
            logged(oplog, operation, record_id,
                   None if n is None else {"_id": record_id, "n": n})
        member = ReplicaSetMember(1, "rs0", "mmapv1")
        reference = DocumentServer("mmapv1")
        # Overlapping windows; the last replays a delete and a re-insert of
        # a record the member holds.
        for entries in (oplog.entries[:2], oplog.entries, oplog.entries[-2:]):
            expected = 0
            for entry in entries:
                expected += reference_apply_entry(reference, entry)
            assert member.apply_entries(entries) == expected
        assert dump(member.server) == dump(reference) == [
            ("a", {"_id": "a", "n": 2}), ("b", {"_id": "b", "n": 2}),
            ("c", {"_id": "c", "n": 2}), ("e", {"_id": "e", "n": 1}),
            ("f", {"_id": "f", "n": 2})]
        assert member_state(member.server) == member_state(reference)
        engine = member.server.database("app").collection("docs").engine
        assert engine.costs.counts.get("read_miss", 0) == 0
        assert member.apply_entries(oplog.entries[8:9]) == 0  # the ghost again
        assert engine.costs.counts.get("read_miss", 0) == 0

    @pytest.mark.parametrize("writes, failing, held", [
        ([(OP_INSERT, "d0", 0), (OP_INSERT, "d1", 1), (OP_INSERT, "d2", 2),
          (OP_INSERT, "d3", 1), (OP_INSERT, "d4", 4)],
         3, ["d0", "d1", "d2"]),
        ([(OP_INSERT, "d0", 0), (OP_INSERT, "d1", 1), (OP_UPDATE, "d0", 5),
          (OP_DELETE, "d1", None), (OP_INSERT, "d2", 2), (OP_UPDATE, "d2", 5),
          (OP_INSERT, "d3", 3)],
         5, ["d0", "d2"]),
    ], ids=["inserts", "mixed"])
    def test_a_run_that_fails_half_way_stands_at_the_last_entry_stored(
            self, writes, failing, held):
        """The write at ``failing`` repeats an earlier unique key."""
        member = ReplicaSetMember(1, "rs0", "wiredtiger")
        member.server.database("app").collection("docs").create_index(
            "serial", unique=True)
        oplog = Oplog()
        for operation, record_id, serial in writes:
            logged(oplog, operation, record_id,
                   None if serial is None else {"_id": record_id, "serial": serial})
        with pytest.raises(DuplicateKeyError):
            member.apply_entries(oplog.entries)
        assert member.applied == oplog.entries[failing - 1].optime
        assert member.entries_applied == failing
        assert [record_id for record_id, __ in dump(member.server)] == held


class PerDocumentCapture(_OplogCapture):
    """The reference listener: every record it is told of is an append of
    its own -- one entry, one advance of the primary each."""

    def __call__(self, operation, records):
        for record in records:
            super().__call__(operation, [record])


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
                handle.delete_one({"_id": batch[-1]["_id"]})
            batched, looped = (
                ([(entry.optime, entry.operation, entry.record_id, entry.document,
                   entry.size) for entry in replica_set.oplog],
                 [(member.applied, member.entries_applied, dump(member.server))
                  for member in replica_set.members])
                for replica_set in sets)
            assert batched == looped
            # The lag window is the per-record listener's: no member is
            # ahead of the horizon its catch-up was clipped at.
            assert all(replica_set.oplog.lag_behind(member.applied) == min(lag, len(
                replica_set.oplog)) for replica_set in sets
                for member in replica_set.members[1:])

    def test_optimes_of_a_batch_are_contiguous_and_in_batch_order(self):
        oplog = Oplog()
        logged(oplog, OP_DELETE, "x")
        records = [(f"d{index}", {"_id": f"d{index}"}, 17) for index in range(4)]
        entries = oplog.append(1, OP_INSERT, "app", "docs", records)
        assert [entry.optime for entry in entries] == [
            OpTime(1, index) for index in range(2, 6)]
        assert [entry.record_id for entry in oplog] == ["x", "d0", "d1", "d2", "d3"]
        assert all(entry.operation == OP_INSERT and entry.document is document
                   and entry.size == 17
                   for entry, (__, document, __) in zip(entries, records))
        # DDL goes through the same block: one entry, no document.
        [ddl] = oplog.append(1, OP_CREATE_INDEX, "app", "docs",
                             field_path="n", unique=True)
        assert (ddl.optime, ddl.record_id, ddl.document, ddl.size,
                ddl.field_path, ddl.unique) == (OpTime(1, 6), None, None, 0, "n", True)
        delete = logged(oplog, OP_DELETE, "d0")
        assert (delete.optime, delete.document, delete.size) == (OpTime(1, 7), None, 0)


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
