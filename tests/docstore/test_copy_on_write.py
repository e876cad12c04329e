"""Copy-on-write safety: external mutation can never corrupt stored state.

The hot-path overhaul removed every defensive ``deepcopy`` from the engines;
safety now rests on two invariants this suite pins down:

* the **write boundary** freezes one canonical copy per write, so mutating a
  document *after* handing it to ``insert`` cannot change the store, and
* the **client surface** (``find`` / ``find_one`` / cursor iteration /
  ``find_with_cost`` on a :class:`~repro.docstore.client.CollectionHandle`)
  returns defensive copies, so mutating a returned document -- however deeply
  -- cannot change stored data, secondary-index entries, oplog post-images or
  replicated members, on any deployment shape.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.docstore.client import DocumentClient
from repro.docstore.replication.replica_set import ReplicaSet
from repro.docstore.server import DocumentServer
from repro.docstore.sharding.cluster import ShardedCluster


def _make_documents(count: int) -> list[dict]:
    return [
        {"_id": f"user{index:04d}", "category": f"cat{index % 5}",
         "n": index, "nested": {"tags": [index, f"t{index}"], "flag": index % 2 == 0}}
        for index in range(count)
    ]


def _mutate_deeply(document: dict) -> None:
    """Trash every mutable layer of a returned document."""
    document["category"] = "corrupted"
    document["n"] = -999
    document["injected"] = {"evil": True}
    nested = document.get("nested")
    if isinstance(nested, dict):
        nested["flag"] = "corrupted"
        tags = nested.get("tags")
        if isinstance(tags, list):
            tags.append("corrupted")
            if tags:
                tags[0] = "corrupted"


def _canonical(documents: list[dict]) -> list[tuple]:
    return sorted((str(doc["_id"]), repr(sorted(doc.items()))) for doc in documents)


class TestClientSurfaceIsolation:
    """Mutating documents returned by the client surface changes nothing."""

    def _loaded_handle(self, server, count: int = 40):
        client = DocumentClient(server)
        handle = client.collection("db", "users")
        handle.insert_many(_make_documents(count))
        handle.create_index("category")
        return handle

    def test_find_results_are_isolated(self, deployment):
        handle = self._loaded_handle(deployment)
        baseline = _canonical(handle.find({}))
        for document in handle.find({}):
            _mutate_deeply(document)
        assert _canonical(handle.find({})) == baseline

    def test_find_one_and_find_with_cost_are_isolated(self, deployment):
        handle = self._loaded_handle(deployment)
        baseline = _canonical(handle.find({}))
        _mutate_deeply(handle.find_one({"_id": "user0003"}))
        for document in handle.find_with_cost({"category": "cat1"}).documents:
            _mutate_deeply(document)
        for document in handle.find_with_cost({"_id": {"$gte": "user0010"}},
                                              limit=5).documents:
            _mutate_deeply(document)
        assert _canonical(handle.find({})) == baseline

    def test_index_entries_survive_mutation(self, deployment):
        """Queries through the secondary index still see the original values."""
        handle = self._loaded_handle(deployment)
        expected = sorted(doc["_id"] for doc in handle.find({"category": "cat2"}))
        for document in handle.find({"category": "cat2"}):
            _mutate_deeply(document)
        assert sorted(doc["_id"] for doc in handle.find({"category": "cat2"})) == expected
        assert handle.find({"category": "corrupted"}) == []


class TestCursorIsolation:
    def test_cursor_iteration_returns_copies(self):
        server = DocumentServer()
        collection = server.database("db").collection("users")
        collection.insert_many(_make_documents(20))
        baseline = _canonical([doc for doc in collection.find({})])
        for document in collection.find({"n": {"$gte": 0}}).sort("n").limit(10):
            _mutate_deeply(document)
        assert _canonical([doc for doc in collection.find({})]) == baseline

    def test_find_one_returns_copy(self):
        server = DocumentServer()
        collection = server.database("db").collection("users")
        collection.insert_many(_make_documents(5))
        _mutate_deeply(collection.find_one({"_id": "user0001"}))
        fresh = collection.find_one({"_id": "user0001"})
        assert fresh["category"] == "cat1"
        assert fresh["nested"]["tags"] == [1, "t1"]


class TestWriteBoundaryIsolation:
    def test_mutating_inserted_document_after_insert(self):
        """The write boundary froze its own copy: the caller's object is dead."""
        server = DocumentServer()
        collection = server.database("db").collection("users")
        original = {"_id": "a", "nested": {"tags": [1, 2]}, "n": 1}
        collection.insert_one(original)
        original["n"] = -1
        original["nested"]["tags"].append("corrupted")
        stored = collection.find_one({"_id": "a"})
        assert stored["n"] == 1
        assert stored["nested"]["tags"] == [1, 2]

    def test_mutating_batch_documents_after_insert_many(self):
        server = DocumentServer()
        collection = server.database("db").collection("users")
        batch = _make_documents(10)
        collection.insert_many(batch)
        for document in batch:
            _mutate_deeply(document)
        assert collection.count_documents({"category": "corrupted"}) == 0
        assert collection.count_documents({}) == 10


class TestReplicationIsolation:
    def test_oplog_post_images_survive_client_mutation(self):
        replica_set = ReplicaSet(members=3, write_concern="majority")
        client = DocumentClient(replica_set)
        handle = client.collection("db", "users")
        handle.insert_many(_make_documents(15))
        handle.update_one({"_id": "user0003"}, {"$set": {"n": 1000}})
        for document in handle.find({}):
            _mutate_deeply(document)
        for entry in replica_set.oplog:
            if entry.document is not None:
                assert entry.document.get("category") != "corrupted"
                nested = entry.document.get("nested") or {}
                assert "corrupted" not in (nested.get("tags") or [])

    def test_secondaries_unaffected_by_client_mutation(self):
        replica_set = ReplicaSet(members=3, write_concern="majority")
        client = DocumentClient(replica_set)
        handle = client.collection("db", "users")
        handle.insert_many(_make_documents(15))
        for document in handle.find({}):
            _mutate_deeply(document)
        primary = replica_set.require_primary()
        for member in replica_set.members:
            if member is primary:
                continue
            docs = member.server.database("db").collection("users") \
                .find_with_cost({}).documents
            assert all(doc["category"].startswith("cat") for doc in docs)


    def test_members_share_one_frozen_document_no_mutation_reaches_it(self):
        """A member stores the oplog's post-image, not a copy of it: after
        inserts and updates every member holds the *same* object the oplog
        does -- and the client surface still hands out copies, so trashing
        whatever it returns reaches none of them."""
        replica_set = ReplicaSet(members=3, write_concern="majority")
        handle = DocumentClient(replica_set).collection("db", "users")
        handle.create_index("category")
        handle.insert_many(_make_documents(15))
        handle.insert_one({"_id": 99, "category": "cat9", "n": 99})
        handle.update_one({"_id": "user0003"}, {"$set": {"n": 1000}})
        handle.update_many({"category": "cat1"}, {"$push": {"nested.tags": "x"}})
        handle.update_one({"_id": 99}, {"$set": {"category": "cat0"}})
        handle.replace_one({"_id": "user0005"}, {"category": "cat0", "n": 5})

        def stored(member) -> dict[str, dict]:
            engine = member.server.database("db").collection("users").engine
            return dict(engine.scan_uncharged())

        post_images = {entry.record_id: entry.document
                       for entry in replica_set.oplog if entry.document is not None}
        for member in replica_set.members:
            documents = stored(member)
            assert documents.keys() == post_images.keys()
            for record_id, document in documents.items():
                assert document is post_images[record_id]

        baseline = _canonical(handle.find({}))
        for document in handle.find({}):
            _mutate_deeply(document)
        _mutate_deeply(handle.find_one({"_id": 99}))
        for document in handle.find_with_cost({"category": "cat0"}).documents:
            _mutate_deeply(document)
        for member in replica_set.members:
            assert _canonical(list(stored(member).values())) == baseline


class TestShardedIsolation:
    def test_router_merge_documents_are_isolated(self):
        cluster = ShardedCluster(shards=4)
        client = DocumentClient(cluster)
        handle = client.collection("db", "users")
        handle.insert_many(_make_documents(60))
        baseline = _canonical(handle.find({}))
        # A limited multi-shard range scan exercises the router's merge path.
        for document in handle.find_with_cost({"_id": {"$gte": "user0000"}},
                                              limit=25).documents:
            _mutate_deeply(document)
        assert _canonical(handle.find({})) == baseline


operation_keys = st.integers(0, 15)
payloads = st.dictionaries(
    st.sampled_from(["category", "n", "extra"]),
    st.one_of(st.integers(-20, 20), st.text(alphabet="abc", max_size=4),
              st.lists(st.integers(0, 5), max_size=3)),
    max_size=3,
)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(operation_keys, payloads), min_size=1, max_size=25))
def test_property_client_mutation_never_leaks(operations):
    """For any CRUD mix, trashing every returned document changes nothing."""
    server = DocumentServer()
    reference = DocumentServer()
    client = DocumentClient(server)
    handle = client.collection("db", "c")
    reference_collection = reference.database("db").collection("c")
    live: set[str] = set()
    for key, payload in operations:
        doc_id = f"d{key}"
        if doc_id in live:
            handle.update_one({"_id": doc_id}, {"$set": payload})
            reference_collection.update_one({"_id": doc_id}, {"$set": payload})
        else:
            handle.insert_one({"_id": doc_id, **payload})
            reference_collection.insert_one({"_id": doc_id, **payload})
            live.add(doc_id)
        for document in handle.find({}):
            document.clear()
            document["poison"] = [object()]
    mutated = _canonical(handle.find({}))
    expected = _canonical(reference_collection.find_with_cost({}).documents)
    assert mutated == expected
