"""A multi-document write stores its matches as one run -- and ends where writing
them one at a time did.

``update_many`` and ``delete_many`` used to write each match in a lock round of
its own: the stripe lock, a store, two charges and a listener call per
document.  They now revalidate every match under one ``write_batch`` round and
store the set with one ``Collection._store_run``.  The per-document loops are
kept here, out of ``src/``, as the reference -- built from one-record
``_store_run`` calls under the stripe lock, as ``PerDocumentCapture`` keeps the
per-record oplog append.  On both engines and five deployments the run must
leave the same answers and bills, the same documents in the same scan order,
the same indexes, the same engine accounting and, on a replica set, the same
oplog; also when a writer got to a match first, and when a unique index or an
operator refuses an update partway.
"""

from __future__ import annotations

import random
from typing import Any

import pytest

from repro.docstore.client import DocumentClient
from repro.docstore.collection import Collection, OperationResult
from repro.docstore.documents import measure_document
from repro.docstore.mmapv1 import MmapV1Engine
from repro.docstore.replication.replica_set import ReplicaSet
from repro.docstore.server import DocumentServer
from repro.docstore.sharding import ShardedCluster
from repro.docstore.update_ops import apply_update
from repro.docstore.wiredtiger import WiredTigerEngine
from repro.errors import DocumentStoreError, DuplicateKeyError
from tests.docstore.sharding.test_parallel_router import closed_cluster
from tests.docstore.test_call_budget import calls
from tests.docstore.test_matching import matches


def reference_update_many(self: Collection, query: dict[str, Any],
                          update: dict[str, Any], span: Any = None
                          ) -> OperationResult:
    """How ``update_many`` wrote its matches before the run: each under its
    stripe lock, revalidated, stored and announced on its own."""
    found = self._find_with_cost(query, span=span)
    ticks, matched, modified = found.ticks, 0, 0
    for document in found.documents:
        record_id = str(document["_id"])
        with self.engine.locks.write(record_id):
            current = self.engine.peek(record_id)
            if current is None or (current is not document
                                   and not matches(current, query)):
                continue
            new_document = apply_update(current, update)
            ticks += self._store_run("update", [(
                record_id, current, new_document,
                measure_document(new_document))], [])
        matched += 1
        if new_document != current:
            modified += 1
    return OperationResult(matched_count=matched, modified_count=modified,
                           ticks=ticks)


def reference_delete_many(self: Collection, query: dict[str, Any],
                          span: Any = None) -> OperationResult:
    """How ``delete_many`` removed its matches before the run: one at a
    time, each under its stripe lock."""
    found = self._find_with_cost(query, span=span)
    ticks, deleted = found.ticks, 0
    for document in found.documents:
        record_id = str(document["_id"])
        with self.engine.locks.write(record_id):
            current = self.engine.peek(record_id)
            if current is None or (current is not document
                                   and not matches(current, query)):
                continue
            ticks += self._store_run("delete", [(record_id, current, None, 0)], [])
        deleted += 1
    return OperationResult(deleted_count=deleted, ticks=ticks)


def install_reference_loops(monkeypatch) -> None:
    monkeypatch.setattr(Collection, "_update_many", reference_update_many)
    monkeypatch.setattr(Collection, "_delete_many", reference_delete_many)


#: Five deployment shapes; each engine is small enough that a run evicts
#: (wiredTiger), moves documents and pages them in (mmapv1).
SHAPES = {
    "standalone": lambda engine, **options: DocumentServer(engine, **options),
    "four-shards": lambda engine, **options: ShardedCluster(
        shards=4, storage_engine=engine, **options),
    "four-shards-serial": lambda engine, **options: closed_cluster(
        shards=4, storage_engine=engine, **options),
    "replica-set": lambda engine, **options: ReplicaSet(
        members=3, storage_engine=engine, write_concern="majority", **options),
    "replicated-cluster": lambda engine, **options: ShardedCluster(
        shards=2, replicas=2, storage_engine=engine, write_concern="majority",
        **options),
}
ENGINE_OPTIONS = {"wiredtiger": {"cache_bytes": 8_000},
                  "mmapv1": {"padding_factor": 1.1, "memory_bytes": 20_000}}


def build(shape: str, engine: str) -> Any:
    return SHAPES[shape](engine, **ENGINE_OPTIONS[engine])


def document(index: int, rng: random.Random) -> dict[str, Any]:
    return {"_id": f"k{index:04d}", "n": index, "group": index % 4,
            "active": bool(index % 3), "pad": "x" * rng.randrange(10, 300),
            "tags": [f"t{tag}" for tag in rng.sample(range(8), rng.randrange(4))]}


def outcome(result: OperationResult) -> tuple:
    return (result.matched_count, result.modified_count, result.deleted_count,
            result.ticks, dict(result.shard_costs))


def workload(handle: Any, seed: int, count: int = 120) -> list[tuple]:
    """A seeded mix around ``update_many`` / ``delete_many``: indexed, multikey
    and unindexed matches, updates that grow documents, re-key an index or
    change nothing, and single writes and batches in between."""
    rng = random.Random(seed)
    handle.create_index("group")
    handle.insert_many([document(index, rng) for index in range(count)])
    handle.create_index("tags")
    outcomes, serial = [], count
    for __ in range(40):
        roll, group = rng.random(), rng.randrange(4)
        if roll < 0.2:
            result = handle.update_many(
                {"group": group}, {"$set": {"pad": "y" * rng.randrange(10, 900)}})
        elif roll < 0.35:
            result = handle.update_many(
                {"active": True, "n": {"$lt": rng.randrange(serial)}},
                {"$inc": {"n": 1}, "$push": {"tags": "t9"}})
        elif roll < 0.45:
            result = handle.update_many({"tags": f"t{rng.randrange(10)}"},
                                        {"$set": {"group": group}})
        elif roll < 0.5:  # stored, but nothing changes
            result = handle.update_many({"group": group, "active": True},
                                        {"$set": {"active": True}})
        elif roll < 0.65:
            result = handle.delete_many({"group": group,
                                         "n": {"$lt": rng.randrange(serial)}})
        elif roll < 0.7:
            result = handle.delete_many({"tags": f"t{rng.randrange(10)}"})
        elif roll < 0.8:
            batch = rng.randrange(1, 12)
            result = handle.insert_many([document(index, rng)
                                         for index in range(serial, serial + batch)])
            serial += batch
        elif roll < 0.9:
            result = handle.update_one({"_id": f"k{rng.randrange(serial):04d}"},
                                       {"$set": {"pad": "z" * rng.randrange(900)}})
        else:
            result = handle.delete_one({"_id": f"k{rng.randrange(serial):04d}"})
        outcomes.append(outcome(result))
    return outcomes


def collections(deployment: Any) -> list[Collection]:
    """Every physical ``db.c``: the server's, each shard's, each member's."""
    if isinstance(deployment, ShardedCluster):
        return [collection for shard in deployment.shards
                for collection in collections(shard)]
    if isinstance(deployment, ReplicaSet):
        return [member.server.database("db").collection("c")
                for member in deployment.members]
    return [deployment.database("db").collection("c")]


def replica_sets(deployment: Any) -> list[ReplicaSet]:
    if isinstance(deployment, ShardedCluster):
        return [shard for shard in deployment.shards if isinstance(shard, ReplicaSet)]
    return [deployment] if isinstance(deployment, ReplicaSet) else []


def collection_state(collection: Collection, accounting: bool = True) -> dict:
    """Documents in scan order, every index, and the engine's accounting
    (lock rounds aside: a run is one, a loop one per document)."""
    engine = collection.engine
    engine.verify_accounting()
    statistics = engine.statistics()
    del statistics["locks"]
    return {
        "documents": list(engine.scan_uncharged()),
        "ids": collection.record_ids(),
        "indexes": {
            index.field_path: (
                index.unique, index.ordered_records(),
                {key: set(bucket) for key, bucket in index._entries.items()},
                [(key, set(bucket)) for key, bucket in index._tree.items()])
            for index in [*collection.indexes, collection.index_for("_id")]},
        "engine": statistics if accounting else None,
    }


def oplog_state(replica_set: ReplicaSet) -> tuple:
    return ([(entry.optime, entry.operation, entry.database, entry.collection,
              entry.record_id, entry.document, entry.size, entry.field_path,
              entry.unique) for entry in replica_set.oplog],
            [(member.applied, member.entries_applied)
             for member in replica_set.members])


def deployment_state(deployment: Any) -> tuple:
    return ([collection_state(collection) for collection in collections(deployment)],
            [oplog_state(replica_set) for replica_set in replica_sets(deployment)])


def close(*deployments: Any) -> None:
    for deployment in deployments:
        getattr(deployment, "close", lambda: None)()


@pytest.mark.parametrize("engine", sorted(ENGINE_OPTIONS))
@pytest.mark.parametrize("shape", sorted(SHAPES))
class TestARunEqualsTheLoop:
    def test_answers_bills_documents_indexes_and_oplogs(self, shape, engine,
                                                        monkeypatch):
        deployment = build(shape, engine)
        outcomes = workload(DocumentClient(deployment).collection("db", "c"),
                            seed=7)
        state = deployment_state(deployment)
        with monkeypatch.context() as patch:
            install_reference_loops(patch)
            reference = build(shape, engine)
            expected = workload(DocumentClient(reference).collection("db", "c"),
                                seed=7)
            expected_state = deployment_state(reference)
        assert outcomes == expected
        assert sum(matched for matched, *__ in outcomes) > 200
        assert sum(deleted for __, __m, deleted, *__t in outcomes) > 30
        assert state == expected_state
        engines = [collection.engine for collection in collections(deployment)]
        counts = [each.costs.counts for each in engines]
        assert sum(count.get("update", 0) for count in counts) > 200
        assert sum(count.get("index_maintenance", 0) for count in counts) > 200
        if engine == "mmapv1":
            assert sum(each.statistics()["document_moves"] for each in engines) > 0
        else:
            assert sum(each.statistics()["cache"]["evictions"] for each in engines) > 0
        close(deployment, reference)


def stale_matches(engine: str, operation: str, monkeypatch) -> tuple:
    """``operation`` over ``{"group": 0}`` with a writer between its find and
    its write: ``k2`` deleted, ``k4`` moved to group 1, ``k6`` changed but
    still a match.  Returns the outcome and the documents left."""
    engine_class = WiredTigerEngine if engine == "wiredtiger" else MmapV1Engine
    collection = Collection("c", engine_class(**ENGINE_OPTIONS[engine]))
    collection.insert_many([{"_id": f"k{index}", "group": index % 2, "n": index}
                            for index in range(10)])
    find = Collection._find_with_cost

    def find_then_write(self, query, limit=None, span=None):
        found = find(self, query, limit, span)
        if query == {"group": 0} and limit is None:
            self.delete_one({"_id": "k2"})
            self.update_one({"_id": "k4"}, {"$set": {"group": 1}})
            self.update_one({"_id": "k6"}, {"$set": {"seen": True}})
        return found

    with monkeypatch.context() as patch:
        patch.setattr(Collection, "_find_with_cost", find_then_write)
        if operation == "update_many":
            result = collection.update_many({"group": 0}, {"$inc": {"n": 100}})
        else:
            result = collection.delete_many({"group": 0})
    return outcome(result), collection_state(collection)


@pytest.mark.parametrize("engine", sorted(ENGINE_OPTIONS))
@pytest.mark.parametrize("operation", ["update_many", "delete_many"])
def test_a_match_a_writer_got_to_first_is_revalidated(engine, operation,
                                                      monkeypatch):
    """Found latch-free, revalidated under the run's lock round: a match
    deleted or changed away from the query is skipped, one changed but still
    matching is written from its fresh version -- as the loop did."""
    answered, state = stale_matches(engine, operation, monkeypatch)
    install_reference_loops(monkeypatch)
    assert (answered, state) == stale_matches(engine, operation, monkeypatch)
    left = {document["_id"]: document for __, document in state["documents"]}
    if operation == "update_many":
        assert answered[:2] == (3, 3)
        assert [left[key]["n"] for key in ("k0", "k4", "k6", "k8")] == [
            100, 4, 106, 108]
        assert left["k6"]["seen"] is True
    else:
        assert answered[2] == 3
        assert sorted(left) == ["k1", "k3", "k4", "k5", "k7", "k9"]


def test_a_run_walks_its_query_once_to_revalidate(monkeypatch):
    """Two matches changed away from the query between the find and the
    lock round: the query is compiled for them once, at the first -- one
    walk of it (``query_shape``) in the revalidation, where every raced
    document compiled it again."""
    collection = Collection("c", WiredTigerEngine())
    collection.insert_many([{"_id": f"k{index}", "group": index % 2, "n": index}
                            for index in range(10)])
    find = Collection._find_with_cost

    def find_then_write(self, query, limit=None, span=None):
        found = find(self, query, limit, span)
        if limit is None:
            for key in ("k4", "k8"):
                self.update_one({"_id": key}, {"$set": {"group": 1}})
        return found

    monkeypatch.setattr(Collection, "_find_with_cost", find_then_write)
    answers = []

    def update_many(collection: Collection) -> None:
        answers.append(collection.update_many({"group": 0}, {"$inc": {"n": 100}}))
    assert calls(update_many, collection, of="query_shape",
                 made_in="matching.py") == 1
    assert (answers[0].matched_count, answers[0].modified_count) == (3, 3)


#: ``$inc: {serial: 1}`` over six documents in ``_id`` order: the serials
#: before, the error the fourth raises, and the serials left -- the three
#: before it updated, nothing after.
PARTWAY = {
    # its serial would be the next document's, under a unique index
    "unique-index": ([0, 10, 20, 30, 31, 50], DuplicateKeyError,
                     [1, 11, 21, 30, 31, 50]),
    # it holds no number to increment
    "operator": ([0, 10, 20, "thirty", 40, 50], DocumentStoreError,
                 [1, 11, 21, "thirty", 40, 50]),
}


def fails_partway(deployment: Any, case: str) -> list[Any]:
    """Run ``PARTWAY[case]``'s failing ``update_many``; returns the serials it
    leaves, in ``_id`` order."""
    serials, error, __ = PARTWAY[case]
    handle = DocumentClient(deployment).collection("db", "c")
    handle.create_index("serial", unique=True)
    handle.insert_many([{"_id": f"k{index}", "serial": serial, "group": 1}
                        for index, serial in enumerate(serials)])
    with pytest.raises(error):
        handle.update_many({"group": 1}, {"$inc": {"serial": 1}})
    return [document["serial"] for document in
            sorted(handle.find({}), key=lambda document: document["_id"])]


@pytest.mark.parametrize("engine", sorted(ENGINE_OPTIONS))
@pytest.mark.parametrize("case", sorted(PARTWAY))
class TestAnUpdateManyThatFailsPartway:
    def test_the_same_prefix_is_stored_logged_and_replicated(self, case, engine,
                                                             monkeypatch):
        shapes = ("standalone", "replica-set")
        deployments = {shape: build(shape, engine) for shape in shapes}
        serials = {shape: fails_partway(deployments[shape], case) for shape in shapes}
        with monkeypatch.context() as patch:
            install_reference_loops(patch)
            references = {shape: build(shape, engine) for shape in shapes}
            expected = {shape: fails_partway(references[shape], case)
                        for shape in shapes}
        assert serials == expected == {shape: PARTWAY[case][2] for shape in shapes}
        for shape in shapes:
            assert (deployment_state(deployments[shape])
                    == deployment_state(references[shape]))
        [replica_set] = replica_sets(deployments["replica-set"])
        assert [entry.operation for entry in replica_set.oplog][-4:] == [
            "insert"] + ["update"] * 3
        # Replicated == standalone at w=majority: every member holds the prefix.
        [alone] = collections(deployments["standalone"])
        for member in collections(replica_set):
            assert (collection_state(member, accounting=False)
                    == collection_state(alone, accounting=False))
        assert (collection_state(collections(replica_set)[0])["engine"]["operations"]
                == collection_state(alone)["engine"]["operations"])
