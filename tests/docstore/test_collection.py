"""Tests for collections: what the store differential does not drive --
``find_one``, projections, refused and unmatched writes, costs, generated
ids, concurrent revalidation, index upkeep and statistics.

What each client-facing row answers is checked against the reference store
on every deployment, the two standalone engines included
(``test_operation_surface.py``, ``sharding/test_sharded_equivalence.py``).
"""

from __future__ import annotations

import pytest

from repro.docstore.collection import Collection
from repro.docstore.mmapv1 import MmapV1Engine
from repro.docstore.wiredtiger import WiredTigerEngine
from repro.errors import DocumentStoreError, DuplicateKeyError
from tests.docstore.reference import ReferenceStore


@pytest.fixture(params=[WiredTigerEngine, MmapV1Engine], ids=["wiredtiger", "mmapv1"])
def collection(request) -> Collection:
    return Collection("users", request.param())


def load_users(collection: Collection, count: int = 10) -> None:
    collection.insert_many([
        {"_id": f"u{index}", "name": f"user{index}", "age": 20 + index,
         "city": "basel" if index % 2 == 0 else "zurich"}
        for index in range(count)
    ])


class TestInsert:
    def test_insert_one_generates_id_when_missing(self, collection):
        result = collection.insert_one({"name": "alice"})
        assert result.inserted_ids and result.simulated_seconds > 0

    def test_insert_preserves_explicit_id(self, collection):
        collection.insert_one({"_id": "custom", "name": "alice"})
        assert collection.find_one({"_id": "custom"})["name"] == "alice"

    def test_duplicate_id_rejected(self, collection):
        collection.insert_one({"_id": "a"})
        with pytest.raises(DuplicateKeyError):
            collection.insert_one({"_id": "a"})

    def test_insert_many_counts_costs(self, collection):
        result = collection.insert_many([{"n": index} for index in range(5)])
        assert len(result.inserted_ids) == 5
        assert result.simulated_seconds > 0

    def test_invalid_document_rejected(self, collection):
        with pytest.raises(DocumentStoreError):
            collection.insert_one({"$bad": 1})


class TestFind:
    def test_find_one_and_missing(self, collection):
        load_users(collection)
        assert collection.find_one({"_id": "u3"})["age"] == 23
        assert collection.find_one({"_id": "nope"}) is None

    def test_cursor_sort_skip_limit(self, collection):
        load_users(collection)
        ages = [doc["age"] for doc in collection.find().sort("age", -1).skip(2).limit(3)]
        assert ages == [27, 26, 25]

    def test_cursor_projection(self, collection):
        load_users(collection)
        doc = collection.find({"_id": "u1"}, projection={"name": 1}).first()
        assert set(doc) == {"name", "_id"}
        doc = collection.find({"_id": "u1"}, projection={"name": 0, "_id": 0}).first()
        assert "name" not in doc and "_id" not in doc

    def test_find_with_cost_reports_cost(self, collection):
        load_users(collection)
        result = collection.find_with_cost({"city": "basel"})
        assert result.simulated_seconds > 0
        assert result.matched_count == 5


class TestUpdate:
    def test_update_one_no_match(self, collection):
        result = collection.update_one({"_id": "missing"}, {"$set": {"x": 1}})
        assert result.matched_count == 0

    def test_update_identical_document_not_counted_as_modified(self, collection):
        collection.insert_one({"_id": "a", "v": 1})
        result = collection.update_one({"_id": "a"}, {"$set": {"v": 1}})
        assert result.matched_count == 1 and result.modified_count == 0

    def test_replace_one(self, collection):
        load_users(collection)
        collection.replace_one({"_id": "u1"}, {"fresh": True})
        doc = collection.find_one({"_id": "u1"})
        assert doc == {"_id": "u1", "fresh": True}

    def test_replace_with_operators_rejected(self, collection):
        load_users(collection)
        with pytest.raises(DocumentStoreError):
            collection.replace_one({"_id": "u1"}, {"$set": {"x": 1}})


class TestDelete:
    def test_delete_one_no_match(self, collection):
        assert collection.delete_one({"_id": "nope"}).deleted_count == 0

    def test_reinsert_after_delete_allowed(self, collection):
        collection.insert_one({"_id": "a", "v": 1})
        collection.delete_one({"_id": "a"})
        collection.insert_one({"_id": "a", "v": 2})
        assert collection.find_one({"_id": "a"})["v"] == 2


#: What a writer does to ``u0``, the first document in basel, between a
#: single-document write's latch-free find and its write lock.
WRITERS = {
    "changed-away": {"$set": {"city": "zurich"}},
    "still-matching": {"$set": {"seen": True}},
}
#: The single-document writes, each on the first document in basel.
SINGLE_WRITES = {
    "update_one": lambda c: c.update_one({"city": "basel"}, {"$inc": {"age": 100}}),
    "replace_one": lambda c: c.replace_one({"city": "basel"}, {"city": "basel"}),
    "delete_one": lambda c: c.delete_one({"city": "basel"}),
}


class TestSingleDocumentRevalidation:
    """A single-document write finds its match latch-free, then re-checks the
    stored version under the write lock: a match a writer changed away from
    the query is re-found, and the next match written; one changed but still
    matching is written from its fresh version."""

    @pytest.mark.parametrize("writer", sorted(WRITERS))
    @pytest.mark.parametrize("operation", sorted(SINGLE_WRITES))
    def test_a_writer_between_find_and_lock(self, collection, operation, writer,
                                            monkeypatch):
        load_users(collection, 4)
        find = Collection._find_with_cost
        finds = []

        def find_then_write(self, query, limit=None, span=None):
            found = find(self, query, limit, span)
            if query == {"city": "basel"}:
                finds.append([document["_id"] for document in found.documents])
                if len(finds) == 1:
                    self.update_one({"_id": "u0"}, WRITERS[writer])
            return found

        monkeypatch.setattr(Collection, "_find_with_cost", find_then_write)
        result = SINGLE_WRITES[operation](collection)
        monkeypatch.undo()

        users = {document["_id"]: document for document in collection.find({})}
        written = "u2" if writer == "changed-away" else "u0"
        assert finds == ([["u0"], ["u2"]] if written == "u2" else [["u0"]])
        assert (result.matched_count, result.modified_count, result.deleted_count) \
            == ((0, 0, 1) if operation == "delete_one" else (1, 1, 0))
        if writer == "changed-away":
            assert users["u0"]["city"] == "zurich" and users["u0"]["age"] == 20
        if operation == "update_one":
            assert users[written]["age"] == 120 + int(written[1])
            assert ("seen" in users["u0"]) == (writer == "still-matching")
        elif operation == "replace_one":
            assert users[written] == {"_id": written, "city": "basel"}
        else:
            assert written not in users and len(users) == 3


class TestIndexes:
    def test_index_used_for_equality_query(self, collection):
        load_users(collection, 50)
        collection.create_index("city")
        indexed = collection.find_with_cost({"city": "basel"})
        assert indexed.matched_count == 25

    def test_index_backfilled_on_creation(self, collection):
        load_users(collection, 10)
        collection.create_index("name")
        assert collection.indexes.get("name") is not None
        assert len(collection.indexes.get("name")) == 10

    def test_index_maintained_on_update_and_delete(self, collection):
        load_users(collection)
        collection.create_index("city")
        collection.update_one({"_id": "u0"}, {"$set": {"city": "bern"}})
        assert collection.find_with_cost({"city": "bern"}).matched_count == 1
        collection.delete_one({"_id": "u0"})
        assert collection.find_with_cost({"city": "bern"}).matched_count == 0

    def test_unique_index_enforced(self, collection):
        for store in (collection, ReferenceStore()):
            store.create_index("email", unique=True)
            store.insert_one({"email": "a@example.org", "n": [1, 2]})
            with pytest.raises(DuplicateKeyError):
                store.insert_one({"email": "a@example.org"})
            store.create_index("n", unique=True)
            with pytest.raises(DuplicateKeyError):  # an element of an array
                store.insert_one({"n": 2.0})

    @pytest.mark.parametrize("write", ["update_one", "update_many", "replace_one"])
    def test_update_violating_a_unique_index_changes_nothing(self, collection, write):
        """The violation is found before any index is touched: the document
        that keeps its old version stays findable through every index."""
        collection.create_index("age")
        collection.create_index("email", unique=True)
        collection.insert_many([{"_id": "a", "email": "a@x", "age": 1},
                                {"_id": "b", "email": "b@x", "age": 2}])
        age_index = collection.indexes.get("age")
        ordered_before = age_index.ordered_records()
        change = {"email": "a@x", "age": 3}
        with pytest.raises(DuplicateKeyError):
            getattr(collection, write)(
                {"_id": "b"}, change if write == "replace_one" else {"$set": change})
        assert collection.find_one({"_id": "b"}) == {"_id": "b", "email": "b@x", "age": 2}
        for query in ({"email": "b@x"}, {"age": 2}, {"age": {"$gte": 2}}):
            assert [doc["_id"] for doc in collection.find(query)] == ["b"], query
        assert [doc["_id"] for doc in collection.find({"email": "a@x"})] == ["a"]
        assert collection.find({"age": 3}).to_list() == []
        assert age_index.ordered_records() == ordered_before == 2

    def test_reader_during_backfill_sees_no_index_or_the_full_one(
            self, collection, monkeypatch):
        """Readers take no latch: a half-filled index must never be planned on."""
        load_users(collection, 10)
        scan = collection.engine.scan_uncharged
        seen_mid_backfill = []

        def scan_with_a_reader_halfway():
            for position, row in enumerate(scan()):
                if position == 5:
                    # The reader's own full scan must be the plain one.
                    monkeypatch.setattr(collection.engine, "scan_uncharged", scan)
                    seen_mid_backfill.append(
                        collection.find_with_cost({"city": "basel"}).matched_count)
                yield row

        monkeypatch.setattr(collection.engine, "scan_uncharged",
                            scan_with_a_reader_halfway)
        collection.create_index("city")
        assert seen_mid_backfill == [5]
        assert collection.find_with_cost({"city": "basel"}).matched_count == 5
        assert collection.explain({"city": "basel"})["winning_plan"][
            "access_path"] == "INDEX_EQ"

    def test_failed_unique_backfill_publishes_nothing(self, collection):
        load_users(collection, 10)
        collection.create_index("age")
        with pytest.raises(DuplicateKeyError):
            collection.create_index("city", unique=True)
        assert collection.indexes.names() == ["age"]
        assert collection.find_with_cost({"city": "basel"}).matched_count == 5

    def test_index_query_cheaper_than_scan(self):
        indexed = Collection("c", WiredTigerEngine())
        unindexed = Collection("c", WiredTigerEngine())
        for target in (indexed, unindexed):
            load_users(target, 200)
        indexed.create_index("city")
        indexed_cost = indexed.find_with_cost({"city": "basel"}).simulated_seconds
        scan_cost = unindexed.find_with_cost({"city": "basel"}).simulated_seconds
        assert indexed_cost < scan_cost


class TestStats:
    def test_stats_include_engine_and_indexes(self, collection):
        load_users(collection)
        collection.create_index("city")
        stats = collection.stats()
        assert stats["collection"] == "users"
        assert stats["documents"] == 10
        assert "city" in stats["indexes"]
